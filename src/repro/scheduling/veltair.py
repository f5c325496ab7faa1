"""The full VELTAIR runtime scheduler — paper Alg. 3.

Dynamic layer blocks (Alg. 2, inherited) combined with adaptive code
version selection: at every dispatch the scheduler estimates the system
interference pressure — through the linear performance-counter proxy of
Sec. 4.3, or directly from the simulator state in oracle mode — ignores
soon-to-finish blocks, picks each layer's version for that pressure
level, and sizes the block's core grant with the interference-adjusted
requirements.
"""

from __future__ import annotations

from repro.interference.proxy import (
    LinearInterferenceProxy,
    estimate_system_pressure,
)
from repro.runtime.engine import Engine
from repro.scheduling.base import ModelProfile
from repro.scheduling.dynamic_block import DynamicBlockScheduler


class VeltairScheduler(DynamicBlockScheduler):
    """Adaptive scheduling + adaptive compilation (VELTAIR-FULL)."""

    rows = "pressure"

    def __init__(self, cost_model, profiles,
                 proxy: LinearInterferenceProxy | None = None) -> None:
        super().__init__(cost_model, profiles)
        self.proxy = proxy

    def planning_pressure(self, engine: Engine) -> float:
        """Current interference estimate, quantised for cache reuse.

        With a proxy the estimate comes from the monitored L3 counters;
        without one the simulator's planning pressure (which already
        applies the soon-to-finish filter) acts as an oracle.  The
        estimate is snapped to the engine's pricing quantum — pricing
        cannot distinguish finer levels, so a finer planning key would
        only fragment the version/core-requirement caches.
        """
        estimate = estimate_system_pressure(engine, self.proxy)
        return engine.quantize_pressure(estimate)

    def layer_plan(self, profile: ModelProfile, pressure: float):
        """The profile's version and demand rows at ``pressure``."""
        return profile.versions_at(pressure), profile.cores_at(pressure)
