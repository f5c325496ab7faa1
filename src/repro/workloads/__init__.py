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

from repro.workloads.requests import ClosedLoopSpec
from repro.workloads.scenario import ScenarioSpec, get_scenario
from repro.workloads.trace import ArrivalTrace, record_trace

__all__ = [
    "ScenarioSpec", "get_scenario", "ArrivalTrace", "record_trace",
    "ClosedLoopSpec",
]
