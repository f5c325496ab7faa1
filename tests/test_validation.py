"""Non-finite settings fail loudly at construction.

Every bound on a float setting of an engine, fleet or stream record is
written so that NaN fails it (``not x > 0.0`` rather than ``x <= 0.0``):
a NaN that passes a bound runs a whole simulation at a NaN clock, or
sends a thinning sampler into a loop that never ends.
"""

import math

import pytest

from repro.cluster import AdmissionPolicy, AutoscalePolicy, NodeSpec
from repro.hardware.platform import THREADRIPPER_3990X
from repro.runtime.engine import BatchPolicy
from repro.serving.workload import (
    WorkloadSpec,
    poisson_queries,
    uniform_queries,
)
from repro.workloads import (
    ClosedLoopSpec,
    DiurnalArrivals,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    ScenarioSpec,
    TenantChurnArrivals,
)

NAN = math.nan

_TEMPLATE = NodeSpec(name="auto", device=THREADRIPPER_3990X)
_DUO = WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))
_AUTOSCALE_FIELDS = (
    "tick_s", "warmup_s", "cooldown_s", "slo_window_s", "panic_severity",
    "up_pressure", "down_pressure", "up_backlog_per_core",
    "down_backlog_per_core", "up_violation_rate", "down_violation_rate")

#: ``case -> build(compiled)``; every build must raise ``ValueError``.
#: The NaN-``qps`` cases stop at the rate check: a shape's sampler is
#: never reached, because some shapes loop forever on a NaN rate.
CASES = {
    "BatchPolicy.max_wait_s": lambda c: BatchPolicy(max_wait_s=NAN),
    "AdmissionPolicy.max_outstanding_per_core":
        lambda c: AdmissionPolicy(max_outstanding_per_core=NAN),
    "AdmissionPolicy.defer_s": lambda c: AdmissionPolicy(defer_s=NAN),
    **{f"AutoscalePolicy.{name}":
       (lambda c, name=name: AutoscalePolicy(template=_TEMPLATE,
                                             **{name: NAN}))
       for name in _AUTOSCALE_FIELDS},
    "ClosedLoopSpec.think_s": lambda c: ClosedLoopSpec(think_s=NAN),
    "ArrivalProcess.qps": lambda c: PoissonArrivals()._validate(NAN, 8),
    "poisson_queries.qps": lambda c: poisson_queries(c, _DUO, NAN, 8),
    "uniform_queries.qps":
        lambda c: uniform_queries(c, "mobilenet_v2", NAN, 8),
    "WorkloadSpec.weight_nan":
        lambda c: WorkloadSpec(name="w", entries=(("mobilenet_v2", NAN),)),
    "WorkloadSpec.weight_inf":
        lambda c: WorkloadSpec(name="w",
                               entries=(("mobilenet_v2", math.inf),)),
    "ScenarioSpec.qos_scale":
        lambda c: ScenarioSpec(name="s", qos_scale=(("light", NAN),)),
    "MMPPArrivals.burst_ratio": lambda c: MMPPArrivals(burst_ratio=NAN),
    "MMPPArrivals.cycles": lambda c: MMPPArrivals(cycles=NAN),
    "DiurnalArrivals.periods": lambda c: DiurnalArrivals(periods=NAN),
    "FlashCrowdArrivals.spike_ratio":
        lambda c: FlashCrowdArrivals(spike_ratio=NAN),
    "FlashCrowdArrivals.start_frac":
        lambda c: FlashCrowdArrivals(start_frac=NAN),
    "FlashCrowdArrivals.width_frac":
        lambda c: FlashCrowdArrivals(width_frac=NAN),
    "TenantChurnArrivals.turnovers":
        lambda c: TenantChurnArrivals(turnovers=NAN),
}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected(self, light_stack, case):
        with pytest.raises(ValueError):
            CASES[case](light_stack.compiled)
