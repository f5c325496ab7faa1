"""Layer-wise spatial scheduling — the Planaria-style baseline (Sec. 3.2).

Every layer is allocated its minimal core requirement individually.  When
the request exceeds the free cores, the layer starts on whatever is
available and *grows* once cores free up (the paper's conflict-recovery
technique); each growth pays a thread-spawn overhead, which is exactly
the per-layer conflict cost the paper measures at ~220 us mean (Fig. 5b).

This is also the granularity substrate of VELTAIR-AC: adaptive
compilation without adaptive scheduling (:class:`AdaptiveCompilationOnly`)
selects interference-matched versions but still schedules layer by layer.
"""

from __future__ import annotations

from repro.interference.proxy import estimate_system_pressure
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import BlockPlan, SpatialScheduler


class LayerWiseScheduler(SpatialScheduler):
    """One layer per scheduling unit, static (isolation-best) versions."""

    allow_grow = True

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        index = query.next_layer
        return profile.memoized(("layer", index), lambda: BlockPlan(
            stop_layer=index + 1,
            desired_cores=profile.layer_required_cores[index],
            versions=(profile.static_versions[index],)))


class AdaptiveCompilationOnly(LayerWiseScheduler):
    """VELTAIR-AC: adaptive version selection at layer granularity.

    Versions are matched to the current planning pressure, but without
    layer blocks the tolerant (high-parallelism) versions inflate core
    demand and conflicts — the interaction paper Sec. 5.2 calls out.
    """

    admit_full_grant_only = True

    def __init__(self, cost_model, profiles, proxy=None) -> None:
        super().__init__(cost_model, profiles)
        self.proxy = proxy

    def planning_pressure(self, engine: Engine) -> float:
        """The interference estimate, quantized with the engine's
        pricing quantum: finer keys than pricing resolves only fragment
        the version/core-requirement caches."""
        return engine.quantize_pressure(
            estimate_system_pressure(engine, self.proxy))

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        profile = self.profile_for(query)
        index = query.next_layer
        pressure = self.planning_pressure(engine)
        return profile.memoized(("ac", pressure, index), lambda: BlockPlan(
            stop_layer=index + 1,
            desired_cores=profile.cores_at(pressure)[index],
            versions=(profile.versions_at(pressure)[index],)))
