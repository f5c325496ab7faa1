"""PREMA-style temporal multitasking baseline (Choi & Rhu, HPCA 2020).

PREMA time-multiplexes the whole accelerator between models with
token-based preemptive priority: waiting tasks accumulate tokens in
proportion to their priority (tighter QoS = higher priority), and the
task with the most tokens runs next for one preemption quantum.  Ported
to the CPU as in the paper's evaluation: one task owns all cores at a
time, preemption happens at layer boundaries.

Temporal multiplexing leaves the machine under-utilised whenever the
running model cannot scale to every core — the reason the paper finds it
generally inferior to spatial sharing (Fig. 12).
"""

from __future__ import annotations

from repro.compiler.costmodel import CostModel
from repro.models.layers import batched
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import ModelProfile

#: Preemption quantum: a chosen task runs layers until this much
#: isolated execution time is filled.
_QUANTUM_S = 2e-3


class PremaScheduler:
    """Token-based temporal multitasking, one query at a time."""

    def __init__(self, cost_model: CostModel,
                 profiles: dict[str, ModelProfile]) -> None:
        self.cost_model = cost_model
        self.profiles = profiles

    def _token_score(self, engine: Engine, query: Query) -> float:
        """PREMA token: priority x waiting time (+ progress tiebreak).

        Priority is the inverse QoS target, so latency-critical light
        models preempt heavy ones — PREMA's starvation-avoidance design.
        """
        priority = 1.0 / query.qos_s
        waiting = max(0.0, engine.now - query.arrival_s)
        started_bonus = 0.5 if query.next_layer > 0 else 0.0
        return priority * (waiting + 1e-6) + started_bonus

    def _chunk_stop(self, query: Query, cores: int) -> int:
        """Run layers until the quantum is filled (preemption boundary)."""
        profile = self.profiles[query.model.name]
        elapsed = 0.0
        stop = query.next_layer
        layers = query.model.graph.layers
        while stop < len(layers) and elapsed < _QUANTUM_S:
            layer = batched(layers[stop], query.batch)
            version = profile.static_versions[stop]
            elapsed += self.cost_model.latency(layer, version, cores, 0.0)
            stop += 1
        return max(stop, query.next_layer + 1)

    def schedule(self, engine: Engine) -> None:
        if engine.running:
            return  # temporal: the machine belongs to one task
        candidates = list(engine.ready) + list(engine.waiting)
        if not candidates:
            return
        chosen = max(candidates,
                     key=lambda q: self._token_score(engine, q))
        if chosen in engine.ready:
            engine.ready.remove(chosen)
        else:
            engine.waiting.remove(chosen)
        cores = engine.available_cores
        stop = self._chunk_stop(chosen, cores)
        profile = self.profiles[chosen.model.name]
        versions = profile.static_versions[chosen.next_layer:stop]
        engine.start_block(chosen, stop, cores, versions)
