"""Non-finite settings fail loudly at construction.

Every bound on a float or count setting of an engine, fleet, stream
record, scheduler or compiler is written so that NaN fails it
(``not x > 0.0`` rather than ``x <= 0.0``): a NaN that passes a bound
runs a whole simulation at a NaN clock, sends a thinning sampler into a
loop that never ends, or turns a count bound into no bound at all (a
NaN ``max_entries`` never evicts).
"""

import math

import pytest

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.spec import NodeSpec
from repro.compiler.autoscheduler import AutoScheduler
from repro.compiler.costmodel import CostModel
from repro.hardware.platform import THREADRIPPER_3990X
from repro.runtime.engine import BatchPolicy
from repro.runtime.pricing import PricingCache
from repro.scheduling.fixed_block import FixedBlockScheduler
from repro.serving.workload import (
    WorkloadSpec,
    poisson_queries,
    uniform_queries,
)
from repro.workloads.arrivals import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantChurnArrivals,
)
from repro.workloads.requests import ClosedLoopSpec, ClosedLoopTenant
from repro.workloads.scenario import ScenarioSpec

NAN = math.nan

_TEMPLATE = NodeSpec(name="auto", device=THREADRIPPER_3990X)
_DUO = WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))
_COST = CostModel(THREADRIPPER_3990X)
_AUTOSCALE_FIELDS = (
    "tick_s", "warmup_s", "cooldown_s", "slo_window_s", "panic_severity",
    "up_pressure", "down_pressure", "up_backlog_per_core",
    "down_backlog_per_core", "up_violation_rate", "down_violation_rate",
    "min_nodes", "max_nodes", "quiet_ticks")

#: ``case -> build(compiled)``; every build must raise ``ValueError``.
#: The NaN-``qps`` cases stop at the rate check: a shape's sampler is
#: never reached, because some shapes loop forever on a NaN rate.
CASES = {
    "BatchPolicy.max_wait_s": lambda c: BatchPolicy(max_wait_s=NAN),
    "BatchPolicy.max_batch": lambda c: BatchPolicy(max_batch=NAN),
    "PricingCache.max_entries": lambda c: PricingCache(max_entries=NAN),
    "AdmissionPolicy.max_outstanding_per_core":
        lambda c: AdmissionPolicy(max_outstanding_per_core=NAN),
    "AdmissionPolicy.defer_s": lambda c: AdmissionPolicy(defer_s=NAN),
    "AdmissionPolicy.max_defers": lambda c: AdmissionPolicy(max_defers=NAN),
    **{f"AutoscalePolicy.{name}":
       (lambda c, name=name: AutoscalePolicy(template=_TEMPLATE,
                                             **{name: NAN}))
       for name in _AUTOSCALE_FIELDS},
    "ClosedLoopSpec.think_s": lambda c: ClosedLoopSpec(think_s=NAN),
    "ClosedLoopSpec.tenants": lambda c: ClosedLoopSpec(tenants=NAN),
    "ClosedLoopSpec.concurrency": lambda c: ClosedLoopSpec(concurrency=NAN),
    "ClosedLoopTenant.budget":
        lambda c: ClosedLoopTenant(0, c, _DUO, lambda name: 0.01,
                                   budget=NAN, concurrency=1),
    "ClosedLoopTenant.concurrency":
        lambda c: ClosedLoopTenant(0, c, _DUO, lambda name: 0.01,
                                   budget=8, concurrency=NAN),
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
    "TenantChurnArrivals.mean_tenants":
        lambda c: TenantChurnArrivals(mean_tenants=NAN),
    "FixedBlockScheduler.block_size":
        lambda c: FixedBlockScheduler(_COST, {}, block_size=NAN),
    "AutoScheduler.population":
        lambda c: AutoScheduler(_COST, population=NAN),
}


class TestNonFiniteSettings:
    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected(self, light_stack, case):
        with pytest.raises(ValueError):
            CASES[case](light_stack.compiled)
