"""GACER-style granularity-aware concurrency regulation (baseline).

GACER (see PAPERS.md) regulates multi-tenant throughput with two coupled
knobs instead of per-layer core auctions: a *concurrency cap* — how many
queries may hold execution resources at once — and a *block granularity*
that coarsens as concurrency drops (few co-runners → long uninterrupted
blocks amortise launch overhead; many co-runners → finer blocks keep the
allocation fluid).  The cap is tuned online by a low-frequency
hill-climbing controller on observed completion throughput: keep moving
the cap in the direction that improved throughput over the last
measurement window, reverse when it regressed.

The policy is deliberately simpler than VELTAIR's Alg. 2/3 — no
interference proxy, no per-block version re-selection — which is exactly
what makes it a useful A/B baseline: it isolates how much of the win
comes from concurrency regulation alone.  It also ports to any
:class:`~repro.hardware.platform.DeviceSpec` unchanged, since it reasons
in fractions of the device's parallel width.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, ModelProfile, SpatialScheduler

#: Floor of the concurrency cap: at least one query always runs.
_MIN_CONCURRENCY = 1
#: Completions per throughput measurement of the hill-climber.
_WINDOW = 16
#: Block length (layers) at a concurrency of one; it shrinks as the cap
#: grows.
_COARSE_BLOCK = 12
#: Grants target finishing slightly ahead of the summed layer budget,
#: so regulation, not per-layer auctions, absorbs jitter.
_BUDGET_HEADROOM = 0.8


class GacerScheduler(SpatialScheduler):
    """Concurrency-regulated blocks with throughput hill-climbing."""

    allow_grow = False

    def __init__(self, cost_model, profiles) -> None:
        super().__init__(cost_model, profiles)
        #: Enough co-runners to cover the machine without shredding
        #: grants below useful widths (≥ 8 units each); at least 2.
        self.max_concurrency = max(2, min(8, cost_model.cpu.cores // 8))
        #: The current cap; regulation starts from two co-runners.
        self.concurrency = 2
        self._direction = 1
        self._last_completed = 0
        self._last_mark_s = 0.0
        self._last_rate: float | None = None

    @property
    def block_layers(self) -> int:
        """Granularity coupled to concurrency: fewer co-runners, coarser."""
        return max(1, _COARSE_BLOCK // self.concurrency)

    # -- the regulator -------------------------------------------------------

    def _regulate(self, engine: Engine) -> None:
        done = len(engine.completed)
        if done - self._last_completed < _WINDOW:
            return
        elapsed = engine.now - self._last_mark_s
        if elapsed <= 0.0:
            return
        rate = (done - self._last_completed) / elapsed
        if self._last_rate is not None and rate < self._last_rate:
            self._direction = -self._direction
        self._last_rate = rate
        self._last_completed = done
        self._last_mark_s = engine.now
        self.concurrency = min(self.max_concurrency,
                               max(_MIN_CONCURRENCY,
                                   self.concurrency + self._direction))
        if engine.tracer is not None:
            engine.tracer.event(
                "gacer.cap", engine.now, cat="scheduler",
                args={"concurrency": self.concurrency,
                      "direction": self._direction,
                      "throughput_qps": rate})

    # -- planning ------------------------------------------------------------

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        self._regulate(engine)
        active = {block.query.query_id for block in engine.running.values()}
        if len(active) >= self.concurrency and query.query_id not in active:
            return None  # cap reached; wait for a slot
        profile = self.profile_for(query)
        start = query.next_layer
        return profile.memoized(("gacer", self.concurrency, start),
                                lambda: self._block_plan(profile, start))

    def _block_plan(self, profile: ModelProfile, start: int) -> BlockPlan:
        stop = min(start + self.block_layers, len(profile.compiled.layers))
        # An even share of the machine per admitted co-runner.
        cap = max(1, profile.cost_model.cpu.cores // self.concurrency)
        budget = sum(profile.layer_budgets_s[start:stop]) * _BUDGET_HEADROOM
        desired = profile.block_cores(start, stop, budget, cap=cap)
        return BlockPlan(stop_layer=stop, desired_cores=desired,
                         versions=profile.static_versions[start:stop])
