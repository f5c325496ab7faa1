"""Compiled model libraries: per-layer version tables ready for serving.

A :class:`CompiledModel` aligns one :class:`CompiledLayer` with each layer
of a fused model graph.  :class:`ModelCompiler` drives paper Alg. 1 over a
whole model, sharing compilation results between layers with identical
shape signatures (bottleneck stacks repeat the same convolutions many
times, so this saves most of the tuning cost — as TVM's tuning cache does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.graph import ModelGraph
from repro.models.layers import LayerSpec
from repro.compiler.artifacts import (
    BUDGET_DECIMALS,
    ArtifactStore,
    artifact_key,
    compile_layers,
    compiler_context,
    context_fingerprint,
)
from repro.compiler.costmodel import CostModel
from repro.compiler.multiversion import CompiledLayer, SinglePassCompiler

#: Fraction of the model QoS handed to the layers; the rest absorbs
#: scheduling overheads (thread spawns, launches, queueing slack).
QOS_MARGIN = 0.85
#: Per-layer budget floor, capped at half an even split of the budget.
MIN_LAYER_BUDGET_S = 40e-6


@dataclass(frozen=True)
class CompiledModel:
    """A model plus its per-layer multi-version code tables."""

    graph: ModelGraph
    qos_s: float
    layers: tuple[CompiledLayer, ...]

    def __post_init__(self) -> None:
        if len(self.layers) != len(self.graph.layers):
            raise ValueError(
                f"{self.graph.name}: {len(self.layers)} compiled layers for "
                f"{len(self.graph.layers)} graph layers")

    @property
    def name(self) -> str:
        return self.graph.name

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def version_counts(self) -> list[int]:
        """Per-layer retained version counts (paper Fig. 14c)."""
        return [layer.version_count for layer in self.layers]


@dataclass
class CompileStats:
    """Dedup/reuse accounting over one compiler's lifetime.

    ``layers_total`` counts every graph layer seen; ``store_hits`` the
    artifacts served from the persistent store; ``compiled_fresh`` the
    Alg. 1 runs actually paid for.  ``layers_total - store_hits -
    compiled_fresh`` is the in-process cross-model dedup win.
    """

    layers_total: int = 0
    store_hits: int = 0
    compiled_fresh: int = 0

    @property
    def memo_hits(self) -> int:
        return self.layers_total - self.store_hits - self.compiled_fresh


class ModelCompiler:
    """Compiles whole models through the single-pass compiler.

    Parameters
    ----------
    cost_model:
        Platform-bound latency oracle.
    single_pass:
        Optional pre-configured Alg. 1 driver (trials, versions, levels).
    store:
        Optional :class:`~repro.compiler.artifacts.ArtifactStore`; each
        unique (signature, budget) is looked up before compiling and
        recorded after, so warm stores skip Alg. 1 entirely.
    workers:
        Fork-pool width for :meth:`compile_models`' missing-layer batch;
        1 (the default) compiles serially in-process.
    """

    def __init__(self, cost_model: CostModel,
                 single_pass: SinglePassCompiler | None = None,
                 store: ArtifactStore | None = None,
                 workers: int = 1) -> None:
        self.cost_model = cost_model
        self.single_pass = single_pass or SinglePassCompiler(cost_model)
        self.store = store
        self.workers = max(1, int(workers))
        self.stats = CompileStats()
        self._context_fp = context_fingerprint(
            compiler_context(self.single_pass))
        self._cache: dict[tuple, CompiledLayer] = {}

    @property
    def unique_layers(self) -> int:
        """Distinct (signature, budget) cells compiled or loaded so far."""
        return len(self._cache)

    def _layer_budgets(self, graph: ModelGraph, qos_s: float) -> list[float]:
        """Op-count-proportional QoS split with a per-layer floor.

        Pure flop-proportional splitting (Alg. 1 line 3) hands tiny
        layers (pools, classifier heads) budgets below their latency
        floor, which would demand infinite cores; the floor keeps every
        layer feasible, with the excess taken proportionally from the
        layers above the floor.
        """
        total = qos_s * QOS_MARGIN
        raw = [total * fraction for fraction in graph.op_fractions()]
        floor = min(MIN_LAYER_BUDGET_S, total / (2 * len(raw)))
        floored = [max(b, floor) for b in raw]
        excess = sum(floored) - total
        if excess > 0:
            above = sum(b for b in floored if b > floor)
            if above > 0:
                scale = max(0.0, 1.0 - excess / above)
                floored = [b * scale if b > floor else b for b in floored]
        return floored

    def compile_models(self, specs: list[tuple[ModelGraph, float]]
                       ) -> list[CompiledModel]:
        """Compile several models in one deduplicated batch.

        All unique (signature, budget) cells missing from the
        in-process memo *and* the artifact store are compiled in one
        pass — across worker processes when ``workers > 1`` — so zoo
        models sharing conv/dense signatures pay for each shared layer
        once, and a warm store pays for none.
        """
        for _, qos_s in specs:
            if qos_s <= 0:
                raise ValueError("qos_s must be positive")
        plans: list[list[tuple]] = []
        missing: dict[tuple, tuple] = {}
        for graph, qos_s in specs:
            budgets = self._layer_budgets(graph, qos_s)
            plan = []
            for layer, layer_budget in zip(graph.layers, budgets):
                key = (layer.signature,
                       round(layer_budget, BUDGET_DECIMALS))
                plan.append((layer, key))
                self.stats.layers_total += 1
                if key in self._cache or key in missing:
                    continue
                entry = self._store_get(key, layer)
                if entry is not None:
                    self._cache[key] = entry
                    self.stats.store_hits += 1
                else:
                    missing[key] = (layer, layer_budget)
            plans.append(plan)

        if missing:
            items = list(missing.items())
            fresh = compile_layers(
                self.single_pass,
                [(layer, budget) for _, (layer, budget) in items],
                workers=self.workers)
            for (key, _), entry in zip(items, fresh):
                self._cache[key] = entry
                self.stats.compiled_fresh += 1
                self._store_put(key, entry)

        models = []
        for (graph, qos_s), plan in zip(specs, plans):
            compiled: list[CompiledLayer] = []
            for layer, key in plan:
                entry = self._cache[key]
                if entry.layer is not layer:
                    # Shared signature: re-point the table at this layer
                    # instance so diagnostics show the right name.
                    entry = CompiledLayer(
                        layer=layer,
                        qos_budget_s=entry.qos_budget_s,
                        levels=entry.levels,
                        versions=entry.versions,
                        latency_table=entry.latency_table,
                        version_for_level=entry.version_for_level,
                        dominant_count=entry.dominant_count,
                        sample_count=entry.sample_count,
                    )
                compiled.append(entry)
            models.append(CompiledModel(graph=graph, qos_s=qos_s,
                                        layers=tuple(compiled)))
        return models

    def _store_get(self, key: tuple,
                   layer: LayerSpec) -> CompiledLayer | None:
        if self.store is None:
            return None
        signature, budget = key
        return self.store.get(
            artifact_key(self._context_fp, signature, budget),
            self._context_fp, layer, budget)

    def _store_put(self, key: tuple, entry: CompiledLayer) -> None:
        if self.store is None:
            return
        signature, budget = key
        self.store.put(artifact_key(self._context_fp, signature, budget),
                       self._context_fp, entry)
