"""Model-wise FCFS scheduling — the coarse-grained baseline (Sec. 3.2).

The whole model is one scheduling unit with a fixed core grant sized
offline to meet QoS in isolation.  Queries are served strictly in arrival
order; when the grant does not fit, the head query (and everyone behind
it) waits.  Smooth resource usage and near-zero conflicts, but the fixed
grant wastes cores on the many layers that need far fewer — which is why
its QoS satisfaction collapses first as load rises (paper Fig. 3a).
"""

from __future__ import annotations

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, SpatialScheduler


class ModelWiseFcfs(SpatialScheduler):
    """First-come-first-serve with the entire model as the unit."""

    allow_grow = False

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        need = profile.model_cores
        if engine.available_cores < need:
            return None  # head-of-line wait; not a scheduling conflict
        return profile.memoized(("model",), lambda: BlockPlan(
            stop_layer=len(profile.compiled.layers), desired_cores=need,
            versions=profile.static_versions))
