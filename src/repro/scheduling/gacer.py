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
from repro.scheduling.base import BlockPlan, SpatialScheduler


class GacerScheduler(SpatialScheduler):
    """Concurrency-regulated blocks with throughput hill-climbing."""

    allow_grow = False

    def __init__(self, cost_model, profiles,
                 min_concurrency: int = 1,
                 max_concurrency: int | None = None,
                 window: int = 16,
                 coarse_block: int = 12,
                 budget_headroom: float = 0.8) -> None:
        super().__init__(cost_model, profiles)
        width = cost_model.cpu.cores
        if max_concurrency is None:
            # Enough co-runners to cover the machine without shredding
            # grants below useful widths (≥ 8 units each).
            max_concurrency = max(2, min(8, width // 8))
        if min_concurrency < 1 or max_concurrency < min_concurrency:
            raise ValueError("need 1 <= min_concurrency <= max_concurrency")
        if window < 1:
            raise ValueError("window must be >= 1 completions")
        if not 0.0 < budget_headroom <= 1.0:
            raise ValueError("budget_headroom must be in (0, 1]")
        self.min_concurrency = min_concurrency
        self.max_concurrency = max_concurrency
        self.window = window
        self.coarse_block = coarse_block
        self.budget_headroom = budget_headroom
        self.concurrency = min(max(2, min_concurrency), max_concurrency)
        self._direction = 1
        self._last_completed = 0
        self._last_mark_s = 0.0
        self._last_rate: float | None = None

    @property
    def block_layers(self) -> int:
        """Granularity coupled to concurrency: fewer co-runners, coarser."""
        return max(1, self.coarse_block // self.concurrency)

    # -- the regulator -------------------------------------------------------

    def _regulate(self, engine: Engine) -> None:
        done = len(engine.completed)
        if done - self._last_completed < self.window:
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
                               max(self.min_concurrency,
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
        stop = min(start + self.block_layers, len(query.model.layers))
        versions = profile.static_versions[start:stop]

        # An even share of the machine per admitted co-runner; the
        # budget headroom keeps the grant slightly ahead of the deadline
        # so regulation, not per-layer auctions, absorbs jitter.
        cap = max(1, self.cost_model.cpu.cores // self.concurrency)
        budget = (sum(profile.layer_budgets_s[start:stop])
                  * self.budget_headroom)
        desired = self.block_cores(query, start, stop, versions, budget,
                                   cap=cap)
        return BlockPlan(stop_layer=stop, desired_cores=desired,
                         versions=versions)
