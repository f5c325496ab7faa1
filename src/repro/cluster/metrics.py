"""Fleet-level metrics: per-node reports rolled into one ClusterReport.

The rollup is pure arithmetic over per-node results — every fleet total
is the exact sum of its per-node constituents (the cluster benchmark
asserts this reconciliation), and the fleet-only metrics (goodput,
per-class tail latency, load imbalance, shed rate) are derived from the
same raw queries, never re-estimated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.autoscale import ScalingEvent
from repro.models.registry import WORKLOAD_CLASSES, get_entry
from repro.runtime.tasks import Query
from repro.serving.metrics import ServingReport


@dataclass(frozen=True)
class NodeReport:
    """One node's share of a fleet run."""

    name: str
    #: The node's device (CPU or accelerator) spec name — hetero fleets
    #: report each member's actual hardware, not a CPU-alias view.
    device_name: str
    cores: int
    policy: str
    assigned: int
    completed: int
    satisfied: int
    report: ServingReport
    #: ``"cpu"`` / ``"accelerator"`` — the device family this node runs.
    device_kind: str = "cpu"
    #: Lifecycle (autoscaled fleets; static members span the whole run).
    provisioned_s: float = 0.0
    retired_s: float = 0.0
    node_seconds: float = 0.0
    final_state: str = "live"

    @property
    def satisfaction_rate(self) -> float:
        return self.satisfied / self.completed if self.completed else 0.0


@dataclass(frozen=True)
class StageReport:
    """One pipeline stage's fleet-wide outcome (request-model serves)."""

    stage: int
    model: str
    completed: int
    shed: int
    average_latency_s: float
    p99_latency_s: float


@dataclass(frozen=True)
class PipelineRollup:
    """Fleet-wide pipeline accounting: chains, not stages.

    ``failed`` counts pipelines a shed stage killed — each is a whole
    QoS violation regardless of how its other stages fared.  Per-stage
    latencies in ``stages`` are measured from when the stage became
    runnable (hand-off instant), so they expose *where* a chain's
    budget goes.
    """

    offered: int
    completed: int
    satisfied: int
    failed: int
    p99_latency_s: float
    stages: tuple[StageReport, ...]

    @property
    def satisfaction_rate(self) -> float:
        return self.satisfied / self.offered if self.offered else 0.0


@dataclass(frozen=True)
class SessionReport:
    """One closed-loop tenant's outcome over a serve."""

    session: int
    issued: int
    completed: int
    satisfied: int
    shed: int
    average_latency_s: float

    @property
    def satisfaction_rate(self) -> float:
        return self.satisfied / self.issued if self.issued else 0.0


def pipeline_rollup(pipelines) -> PipelineRollup | None:
    """Fold :class:`~repro.workloads.PipelineQuery` outcomes fleet-wide."""
    if not pipelines:
        return None
    stage_count = max(len(pl.stages) for pl in pipelines)
    stage_reports = []
    for index in range(stage_count):
        latencies = []
        shed = 0
        model = ""
        for pl in pipelines:
            if index >= len(pl.stages):
                continue
            query = pl.stages[index]
            model = query.model.name
            if pl.shed_stage == index:
                shed += 1
            elif query.finished_s is not None:
                latencies.append(query.finished_s - query.arrival_s)
        stage_reports.append(StageReport(
            stage=index, model=model, completed=len(latencies), shed=shed,
            average_latency_s=(float(np.mean(latencies))
                               if latencies else 0.0),
            p99_latency_s=(float(np.percentile(latencies, 99))
                           if latencies else 0.0)))
    finished = [pl.latency_s for pl in pipelines if pl.finished_s is not None]
    return PipelineRollup(
        offered=len(pipelines),
        completed=len(finished),
        satisfied=sum(1 for pl in pipelines if pl.satisfied),
        failed=sum(1 for pl in pipelines if pl.failed),
        p99_latency_s=(float(np.percentile(finished, 99))
                       if finished else 0.0),
        stages=tuple(stage_reports))


def session_reports(tenants) -> tuple[SessionReport, ...]:
    """Per-tenant rollups from :class:`~repro.workloads.ClosedLoopTenant`."""
    reports = []
    for tenant in tenants:
        latencies = [query.latency_s for query in tenant.issued
                     if query.finished_s is not None]
        reports.append(SessionReport(
            session=tenant.session, issued=len(tenant.issued),
            completed=tenant.completed, satisfied=tenant.satisfied,
            shed=tenant.shed,
            average_latency_s=(float(np.mean(latencies))
                               if latencies else 0.0)))
    return tuple(reports)


@dataclass(frozen=True)
class ClusterReport:
    """Summary of one simulated fleet run."""

    offered_qps: float
    router: str
    #: Query accounting: ``offered == admitted + shed`` and
    #: ``admitted == sum(node.assigned)`` hold exactly.
    offered: int
    admitted: int
    completed: int
    satisfied: int
    shed: int
    deferrals: int
    #: Fleet QoS satisfaction; shed queries count as violations.
    satisfaction_rate: float
    qos_violation_rate: float
    #: Satisfied queries per second of fleet busy span.
    goodput_qps: float
    average_latency_s: float
    p99_latency_s: float
    #: P99 latency per workload class (light/medium/heavy), completed
    #: queries only; classes absent from the stream are omitted.  This
    #: is the aggregate view — to see *where* a class's tail comes from
    #: (queue vs execute vs interference stall), record the serve with
    #: a tracer and run ``python -m repro.telemetry summarize`` for the
    #: per-phase, per-model breakdown.
    class_p99_s: tuple[tuple[str, float], ...]
    #: max/mean of per-node (assigned / cores) — 1.0 is a perfectly
    #: width-proportional assignment.  Elastic fleets (non-empty
    #: scaling timeline) further normalise by each node's
    #: provisioned lifetime, i.e. assigned per core-second.
    load_imbalance: float
    shed_rate: float
    nodes: tuple[NodeReport, ...]
    #: Serve window (first arrival to last completion), seconds.
    span_s: float = 0.0
    #: Sum of per-node provision-to-retire spans — the fleet's capacity
    #: cost.  A static N-node fleet pays exactly ``N * span_s``; an
    #: autoscaled fleet pays for what it held.
    node_seconds: float = 0.0
    #: Core-second integrals: cores actually allocated to blocks vs
    #: cores provisioned (``cores * node_seconds`` summed per node).
    core_seconds_used: float = 0.0
    core_seconds_available: float = 0.0
    #: Most live (routable) nodes at any instant of the run.
    peak_live_nodes: int = 0
    #: Node lifecycle transitions, in order (empty for static fleets).
    scaling_timeline: tuple[ScalingEvent, ...] = ()
    #: Request-model rollups (``serve_stream`` only): pipeline chains
    #: and closed-loop sessions.  ``None``/empty for open-loop serves.
    pipelines: PipelineRollup | None = None
    sessions: tuple[SessionReport, ...] = ()

    @property
    def utilization(self) -> float:
        """Allocated core-seconds over provisioned core-seconds.

        A single end-of-run ratio: low utilization says cores sat idle
        but not *why* (admission gaps, drain tails, routing skew).  A
        traced serve answers that — the Chrome export's per-node lanes
        show the idle intervals directly, and ``summarize``'s
        inter-block phase shows scheduler-induced idleness per query.
        """
        if self.core_seconds_available <= 0.0:
            return 0.0
        return self.core_seconds_used / self.core_seconds_available

    @property
    def average_live_nodes(self) -> float:
        """Node-seconds spread over the serve window (mean fleet size)."""
        return self.node_seconds / self.span_s if self.span_s > 0 else 0.0

    def __str__(self) -> str:  # pragma: no cover - display helper
        scaled = (f" nodes(avg/peak)={self.average_live_nodes:.1f}"
                  f"/{self.peak_live_nodes}"
                  if self.scaling_timeline else "")
        return (f"qps={self.offered_qps:.0f} nodes={len(self.nodes)}"
                f" sat={self.satisfaction_rate:.1%}"
                f" goodput={self.goodput_qps:.0f}/s"
                f" p99={self.p99_latency_s * 1e3:.2f}ms"
                f" shed={self.shed_rate:.1%}"
                f" imbalance={self.load_imbalance:.2f}"
                f" node-s={self.node_seconds:.1f}{scaled}")


def rollup(offered: list[Query],
           node_results: list[tuple["object", list[Query], ServingReport]],
           shed: list[Query], deferrals: int, offered_qps: float,
           router: str, timeline: tuple[ScalingEvent, ...],
           peak_live_nodes: int, window: tuple[float, float],
           pipelines: PipelineRollup | None,
           sessions: tuple[SessionReport, ...]) -> ClusterReport:
    """Fold per-node outcomes into one :class:`ClusterReport`.

    ``node_results`` is one ``(node, completed_queries, report)`` triple
    per fleet member (:class:`~repro.cluster.fleet.ClusterNode`s whose
    lifecycle the serve has stamped).  ``window`` is the serve span
    (first arrival to last completion); ``timeline`` the scaling events.
    """
    window_start, window_end = window

    node_reports = []
    all_completed: list[Query] = []
    core_seconds_used = 0.0
    for node, completed, report in node_results:
        satisfied = sum(1 for query in completed if query.satisfied)
        core_seconds_used += node.engine.metrics.usage_core_seconds
        node_reports.append(NodeReport(
            name=node.spec.name, device_name=node.spec.device.name,
            device_kind=node.device_kind,
            cores=node.cores, policy=node.spec.policy,
            assigned=node.assigned, completed=len(completed),
            satisfied=satisfied, report=report,
            provisioned_s=node.provisioned_s, retired_s=node.retired_s,
            node_seconds=max(0.0, node.retired_s - node.provisioned_s),
            final_state=node.state))
        all_completed.extend(completed)

    offered_count = len(offered)
    admitted = sum(node.assigned for node in node_reports)
    completed_count = sum(node.completed for node in node_reports)
    satisfied_count = sum(node.satisfied for node in node_reports)
    satisfaction = satisfied_count / offered_count if offered_count else 0.0

    if all_completed:
        latencies = np.array([q.latency_s for q in all_completed])
        average_latency = float(latencies.mean())
        p99_latency = float(np.percentile(latencies, 99))
        start = min(q.arrival_s for q in offered)
        end = max(q.finished_s for q in all_completed)
        span = max(end - start, 0.0)
        goodput = satisfied_count / span if span > 0 else 0.0
    else:
        average_latency = float("inf")
        p99_latency = float("inf")
        goodput = 0.0

    by_class: dict[str, list[float]] = {}
    for query in all_completed:
        workload_class = get_entry(query.model.name).workload_class
        by_class.setdefault(workload_class, []).append(query.latency_s)
    class_p99 = tuple(
        (workload_class, float(np.percentile(by_class[workload_class], 99)))
        for workload_class in WORKLOAD_CLASSES if workload_class in by_class)

    if timeline:
        # Elastic fleet: normalise assignment by each node's provisioned
        # core-seconds, or a node that joined for the last tenth of the
        # run (or retired early) would read as wildly under/over-loaded
        # against whole-run members.  Static fleets keep the plain
        # per-core load (equal lifetimes would cancel out anyway).
        loads = [node.assigned / (node.cores * node.node_seconds)
                 for node in node_reports if node.node_seconds > 0]
    else:
        loads = [node.assigned / node.cores for node in node_reports]
    mean_load = (sum(loads) / len(loads)) if loads else 0.0
    imbalance = max(loads) / mean_load if mean_load > 0 else 1.0

    node_seconds = sum(node.node_seconds for node in node_reports)
    available = sum(node.cores * node.node_seconds
                    for node in node_reports)

    return ClusterReport(
        offered_qps=offered_qps,
        router=router,
        offered=offered_count,
        admitted=admitted,
        completed=completed_count,
        satisfied=satisfied_count,
        shed=len(shed),
        deferrals=deferrals,
        satisfaction_rate=satisfaction,
        qos_violation_rate=1.0 - satisfaction,
        goodput_qps=goodput,
        average_latency_s=average_latency,
        p99_latency_s=p99_latency,
        class_p99_s=class_p99,
        load_imbalance=imbalance,
        shed_rate=len(shed) / offered_count if offered_count else 0.0,
        nodes=tuple(node_reports),
        span_s=max(0.0, window_end - window_start),
        node_seconds=node_seconds,
        core_seconds_used=core_seconds_used,
        core_seconds_available=available,
        peak_live_nodes=peak_live_nodes,
        scaling_timeline=tuple(timeline),
        pipelines=pipelines,
        sessions=sessions,
    )
