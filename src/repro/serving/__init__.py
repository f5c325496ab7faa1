"""Serving layer: workload generation, metrics, and the system facade."""

from repro.serving.server import ServingStack
from repro.serving.workload import (
    LIGHT_MIX,
    MEDIUM_MIX,
    WorkloadSpec,
    poisson_queries,
)

__all__ = [
    "ServingStack", "WorkloadSpec", "poisson_queries",
    "LIGHT_MIX", "MEDIUM_MIX",
]
