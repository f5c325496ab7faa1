"""Trace-driven scenario subsystem: arrival processes, traces, scenarios.

The paper evaluates under a single stationary Poisson stream; real
datacenter traces show diurnal ramps, bursts, flash crowds, and tenant
churn.  This package opens those scenarios to every experiment driver:

* :mod:`repro.workloads.arrivals` — :class:`ArrivalProcess` shapes
  (Poisson, MMPP bursty, diurnal, flash crowd, tenant churn, uniform),
  all normalised so ``qps`` is the process's long-run mean rate.
* :mod:`repro.workloads.trace` — :class:`ArrivalTrace` record/replay:
  save any generated stream to schema-versioned JSON and replay it
  bit-identically into any engine or fleet.
* :mod:`repro.workloads.scenario` — :class:`ScenarioSpec` combining
  arrival process x workload mix x QoS class scaling, plus the named
  scenario registry (``get_scenario("bursty")`` ...).

The ``"poisson"`` scenario is the library default and reproduces the
legacy :func:`repro.serving.workload.poisson_queries` stream draw for
draw, so pre-scenario results stay bit-identical.
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantChurnArrivals,
    UniformArrivals,
)
from repro.workloads.requests import (
    ClosedLoopSpec,
    ClosedLoopTenant,
    PipelineQuery,
    PipelineSpec,
    RequestStream,
    build_pipeline,
)
from repro.workloads.scenario import (
    SCENARIO_NAMES,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
)
from repro.workloads.trace import (
    TRACE_SCHEMA,
    ArrivalTrace,
    record_trace,
)

__all__ = [
    "ArrivalProcess", "PoissonArrivals", "UniformArrivals",
    "MMPPArrivals", "DiurnalArrivals", "FlashCrowdArrivals",
    "TenantChurnArrivals",
    "ScenarioSpec", "register_scenario", "get_scenario",
    "resolve_scenario", "scenario_names", "SCENARIO_NAMES",
    "ArrivalTrace", "record_trace", "TRACE_SCHEMA",
    "ClosedLoopSpec", "ClosedLoopTenant", "PipelineQuery",
    "PipelineSpec", "RequestStream", "build_pipeline",
]
