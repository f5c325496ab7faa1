"""Static layer-block scheduling — Block(6) / Block(11) of paper Fig. 3.

Consecutive layers are grouped into fixed-size blocks; each block gets
the minimal core grant meeting the sum of its layers' budgets.  Blocks
smooth the core-demand spikes of layer-wise scheduling, but a *fixed*
size can't fit every model/load combination — the motivation for the
dynamic blocks of :mod:`repro.scheduling.dynamic_block`.
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, ModelProfile, SpatialScheduler


class FixedBlockScheduler(SpatialScheduler):
    """Blocks of ``block_size`` consecutive layers, static versions."""

    allow_grow = True
    admit_full_grant_only = True

    def __init__(self, cost_model, profiles, block_size: int) -> None:
        if not block_size > 0:
            raise ValueError("block_size must be positive")
        super().__init__(cost_model, profiles)
        self.block_size = block_size

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        start = query.next_layer
        return profile.memoized(("fixed", self.block_size, start),
                                lambda: self._block_plan(profile, start))

    def _block_plan(self, profile: ModelProfile, start: int) -> BlockPlan:
        stop = min(start + self.block_size, len(profile.compiled.layers))
        desired = profile.block_cores(
            start, stop, sum(profile.layer_budgets_s[start:stop]))
        return BlockPlan(stop_layer=stop, desired_cores=desired,
                         versions=profile.static_versions[start:stop])
