"""Serving layer: workload generation, metrics, and the system facade."""

from repro.serving.experiments import (
    CapacityResult,
    capacity,
    reports_over_qps,
    sweep_qps,
)
from repro.serving.metrics import (
    ServingReport,
    max_qps_at_satisfaction,
    summarize,
)
from repro.serving.server import POLICIES, ServingStack
from repro.serving.workload import (
    HEAVY_MIX,
    LIGHT_MIX,
    MEDIUM_MIX,
    WorkloadSpec,
    class_mix,
    full_mix,
    poisson_queries,
    single_model,
    uniform_queries,
)

__all__ = [
    "CapacityResult", "capacity", "reports_over_qps", "sweep_qps",
    "ServingReport", "max_qps_at_satisfaction", "summarize",
    "POLICIES", "ServingStack",
    "WorkloadSpec", "class_mix", "full_mix", "poisson_queries",
    "single_model", "uniform_queries",
    "LIGHT_MIX", "MEDIUM_MIX", "HEAVY_MIX",
]
