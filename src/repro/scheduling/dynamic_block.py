"""Dynamic threshold-based layer-block formation — paper Alg. 2 + Sec. 4.3.

Blocks are cut at *conflict-prone* layers: a layer whose core requirement
exceeds ``Avg_C + thres`` starts a new block, and every block's grant is
capped at that bound — the block absorbs the spike by giving its other
layers more cores and letting the block meet the summed budget (paper
Fig. 10a).

The threshold is recomputed at every dispatch from the live system state
(paper Sec. 4.3): the cores left idle after granting every active model
its average requirement are distributed to models proportionally to their
average demand.  Low load => large threshold => big grants and maximal
resource-usage efficiency; high load => small threshold => demand is
flattened toward the average and conflicts stay rare.

This scheduler with static versions is the VELTAIR-AS configuration.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, ModelProfile, SpatialScheduler

#: Blocks target finishing *ahead* of their summed budget so that
#: interference jitter and queueing do not push queries over QoS; the
#: Avg_C + thres cap still bounds how many cores that may cost (Alg. 2's
#: "no more than Avg_C + thres").
_BUDGET_HEADROOM = 0.8


class DynamicBlockScheduler(SpatialScheduler):
    """Adaptive layer blocks with static (isolation-best) code versions."""

    allow_grow = True
    admit_full_grant_only = True
    #: Plan-memo tag of the rows :meth:`layer_plan` returns.  The
    #: pressure-0 rows of two row kinds pivot differently, so a policy
    #: with other rows needs its own tag, or plans cross-serve between
    #: policies sharing a profile.
    rows = "static"

    # -- planning hooks (overridden by the full scheduler) ------------------

    def planning_pressure(self, engine: Engine) -> float:
        """Static configuration ignores interference when planning."""
        return 0.0

    def layer_plan(self, profile: ModelProfile, pressure: float):
        """Each layer's code version and core demand at ``pressure``:
        the profile's static rows."""
        return profile.static_versions, profile.layer_required_cores

    def threshold_for(self, engine: Engine, query: Query,
                      avg_cores: int) -> int:
        """Paper Sec. 4.3: the cores left idle after granting every
        co-located query its ``Avg_C``, shared in proportion to
        ``Avg_C``; ``avg_cores`` is the candidate's.

        Queries count once by ``query_id`` (a pipeline's stages share
        their pipeline's id), at their latest block's ``Avg_C``, and the
        candidate replaces a running namesake.
        """
        demand = {block.query.query_id: self.profile_for(block.query).avg_cores
                  for block in engine.running.values()}
        demand[query.query_id] = avg_cores
        total = sum(demand.values())
        idle = self.cost_model.cpu.cores - total
        if idle <= 0:
            return 0
        return int(idle * avg_cores / total)

    # -- Alg. 2 ----------------------------------------------------------------

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        pressure = self.planning_pressure(engine)
        threshold = self.threshold_for(engine, query, profile.avg_cores)
        cap = min(self.cost_model.cpu.cores,
                  max(1, profile.avg_cores + threshold))
        start = query.next_layer
        return profile.memoized(
            (self.rows, pressure, cap, start),
            lambda: self._block_plan(profile, pressure, cap, start))

    def _block_plan(self, profile: ModelProfile, pressure: float, cap: int,
                    start: int) -> BlockPlan:
        versions, demands = self.layer_plan(profile, pressure)
        stop = find_first_pivot(demands, start, cap)
        budget = sum(profile.layer_budgets_s[start:stop]) * _BUDGET_HEADROOM
        desired = profile.block_cores(start, stop, budget, pressure=pressure,
                                      cap=cap)
        return BlockPlan(stop_layer=stop, desired_cores=desired,
                         versions=versions[start:stop])


def find_first_pivot(demands: tuple[int, ...], start: int, cap: int) -> int:
    """First layer after the block start whose demand exceeds the cap.

    Returns the pivot index (the beginning of the *next* block), or the
    model length when no later layer is conflict-prone.
    """
    # "Much higher than the averaged value" (paper Sec. 4.2): only
    # layers clearly above the cap split a block; borderline layers
    # are absorbed by the block's shared budget.
    cutoff = cap * 1.25
    for index in range(start + 1, len(demands)):
        if demands[index] >= cutoff:
            return index
    return len(demands)
