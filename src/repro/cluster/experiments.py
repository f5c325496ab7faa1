"""Fleet-level experiment drivers: autoscale sweeps and capacity searches.

The cluster analogues of :mod:`repro.serving.experiments`, on the same
machinery: every point is an independent fleet simulation run through
:func:`repro.parallel.sweep` (``fork``-ed workers inherit the compiled
stack by copy-on-write, never pickled; platforms without ``fork`` take
the serial in-process path), with the same pre-fork warm-up and the
same capacity bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.fleet import Cluster
from repro.cluster.metrics import ClusterReport
from repro.cluster.spec import ClusterSpec
from repro.parallel import sweep
from repro.serving.experiments import bisect_capacity, warm_stack
from repro.serving.server import ServingStack
from repro.workloads.scenario import resolve_scenario
from repro.serving.workload import WorkloadSpec, scenario_queries


def _point(stack: ServingStack, cluster_spec: ClusterSpec, router: str,
           admission: AdmissionPolicy | None, spec: WorkloadSpec,
           count: int, seed: int | None, scenario):
    """The fleet point function: offered QPS -> ClusterReport."""
    def run(qps: float) -> ClusterReport:
        cluster = Cluster(stack, cluster_spec, router=router,
                          admission=admission)
        return cluster.report(spec, qps, count, seed=seed,
                              scenario=scenario)

    return run


@dataclass(frozen=True)
class AutoscalePoint:
    """Static-peak vs autoscaled fleet on one identical stream.

    The cost-vs-QoS frontier cell: the autoscaled fleet's QoS
    satisfaction relative to the static-peak fleet
    (:attr:`qos_ratio`, want >= ~0.95) against the node-seconds it
    actually paid for (:attr:`node_seconds_ratio`, want << 1).
    """

    scenario: str
    qps: float
    static: ClusterReport
    autoscaled: ClusterReport

    @property
    def qos_ratio(self) -> float:
        """Autoscaled / static-peak QoS satisfaction (1.0 = no loss)."""
        if self.static.satisfaction_rate <= 0.0:
            return 1.0 if self.autoscaled.satisfaction_rate <= 0.0 else float("inf")
        return (self.autoscaled.satisfaction_rate
                / self.static.satisfaction_rate)

    @property
    def node_seconds_ratio(self) -> float:
        """Autoscaled / static-peak node-seconds (the capacity saving)."""
        if self.static.node_seconds <= 0.0:
            return 1.0
        return self.autoscaled.node_seconds / self.static.node_seconds


def sweep_autoscale(stack: ServingStack, static_spec: ClusterSpec,
                    initial_spec: ClusterSpec, policy: AutoscalePolicy,
                    spec: WorkloadSpec,
                    points: list[tuple[object, float]], count: int,
                    router: str = "pressure_aware",
                    admission: AdmissionPolicy | None = None,
                    seed: int | None = None,
                    workers: int | None = None) -> list[AutoscalePoint]:
    """One :class:`AutoscalePoint` per ``(scenario, qps)`` cell.

    ``static_spec`` is the peak-sized fixed fleet, ``initial_spec`` the
    autoscaled fleet's starting membership (typically ``min_nodes``
    small nodes), and each point serves the *same* seeded stream
    through both.  ``workers > 1`` fans cells over the fork pool
    (:func:`repro.parallel.sweep`); platforms without ``fork`` fail
    soft to the serial path.
    """
    cells = [(resolve_scenario(scenario), float(qps))
             for scenario, qps in points]

    def run(cell: tuple) -> AutoscalePoint:
        # Engines mutate queries, so each fleet gets its own
        # regeneration of the same seeded stream (bit-identical arrivals
        # and model draws).
        scenario, qps = cell

        def stream():
            return scenario_queries(
                stack.compiled, scenario, qps, count,
                seed=stack.seed if seed is None else seed, spec=spec)

        static = Cluster(stack, static_spec, router=router,
                         admission=admission).serve(stream(),
                                                    offered_qps=qps)
        autoscaled = Cluster(stack, initial_spec, router=router,
                             admission=admission,
                             autoscale=policy).serve(stream(),
                                                     offered_qps=qps)
        return AutoscalePoint(
            scenario=scenario.name if scenario is not None else "poisson",
            qps=qps, static=static, autoscaled=autoscaled)

    # dict.fromkeys, not set(): stable first-seen dedup order, so
    # runtimes warm (and the stack's runtime map fills) in the same
    # order every run regardless of PYTHONHASHSEED.
    devices = tuple(dict.fromkeys(initial_spec.device_specs
                                  + static_spec.device_specs
                                  + (policy.template.device,)))
    return sweep(run, cells, workers=workers,
                 warm=lambda: warm_stack(stack, devices))


@dataclass(frozen=True)
class ClusterCapacityResult:
    """Fleet QPS@target for one (router, fleet, workload) cell."""

    router: str
    cluster: str
    workload: str
    qps: float
    report: ClusterReport


def cluster_capacity(stack: ServingStack, cluster_spec: ClusterSpec,
                     spec: WorkloadSpec, count: int,
                     router: str = "pressure_aware",
                     admission: AdmissionPolicy | None = None,
                     target: float = 0.95,
                     low_qps: float = 10.0, high_qps: float = 1600.0,
                     tolerance_qps: float = 25.0,
                     seed: int | None = None,
                     workers: int | None = None,
                     scenario=None) -> ClusterCapacityResult:
    """Max offered QPS with ``target`` fleet QoS satisfaction.

    The fleet version of the paper's Fig. 12 metric: shed queries count
    as QoS violations, so admission control cannot buy capacity by
    rejecting its way to a clean satisfaction rate.  The bisection is
    :func:`repro.serving.experiments.bisect_capacity`: ``workers > 1``
    batches each round's probes across one persistent pool, so worker
    pricing caches stay warm across rounds.
    """
    point = _point(stack, cluster_spec, router, admission, spec, count,
                   seed, resolve_scenario(scenario))
    qps, report = bisect_capacity(
        point, workers, lambda: warm_stack(stack, cluster_spec.device_specs),
        target=target, low_qps=low_qps, high_qps=high_qps,
        tolerance_qps=tolerance_qps)
    return ClusterCapacityResult(router=router, cluster=cluster_spec.name,
                                 workload=spec.name, qps=qps,
                                 report=report)
