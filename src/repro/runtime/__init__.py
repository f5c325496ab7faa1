"""Runtime substrate: task records, the pricing cache, and the DES engine."""

from repro.runtime.engine import Engine, SimulationMetrics
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, RunningBlock, block_duration

__all__ = [
    "Engine", "SimulationMetrics",
    "PricingCache",
    "Query", "RunningBlock", "block_duration",
]
