"""Multi-node serving: fleet specs, routers, admission, autoscaling.

One :class:`~repro.serving.server.ServingStack` compile pass feeds every
node of a (possibly heterogeneous) fleet; a pluggable router assigns
each arrival from live node state — including the interference-proxy
pressure estimate — and an admission controller sheds or defers load
past a fleet pressure bound.  An :class:`AutoscalePolicy` makes the
fleet *elastic*: membership follows SLO feedback between ``min_nodes``
and ``max_nodes``, with warm-up on the way in and draining on the way
out.  See ``examples/cluster_serving.py`` and
``examples/autoscale_serving.py`` for tours,
``benchmarks/bench_cluster_scale.py`` and
``benchmarks/bench_autoscale.py`` for the scale and frontier studies.
"""

from repro.cluster.admission import (
    ADMIT,
    DEFER,
    SHED,
    AdmissionController,
    AdmissionPolicy,
    fleet_outstanding_per_core,
    fleet_pressure,
)
from repro.cluster.autoscale import (
    DRAIN,
    DRAINING,
    JOIN,
    LIVE,
    PROVISION,
    RETIRE,
    RETIRED,
    WARMING,
    AutoscaleController,
    AutoscalePolicy,
    FleetSignals,
    ScalingEvent,
)
from repro.cluster.experiments import (
    AutoscalePoint,
    ClusterCapacityResult,
    cluster_capacity,
    sweep_autoscale,
)
from repro.cluster.fleet import Cluster, ClusterNode
from repro.cluster.metrics import (
    ClusterReport,
    NodeReport,
    PipelineRollup,
    SessionReport,
    StageReport,
    pipeline_rollup,
    rollup,
    session_reports,
)
from repro.cluster.router import (
    ROUTERS,
    DeviceAffinityRouter,
    JoinShortestQueueRouter,
    LeastOutstandingRouter,
    PressureAwareRouter,
    RoundRobinRouter,
    Router,
    make_router,
)
from repro.cluster.spec import (
    DEFAULT_NODE_POLICY,
    ClusterSpec,
    NodeSpec,
    hetero_fleet,
    homogeneous,
    mixed_fleet,
)

__all__ = [
    "ADMIT", "DEFER", "SHED",
    "AdmissionController", "AdmissionPolicy",
    "fleet_outstanding_per_core", "fleet_pressure",
    "DRAIN", "DRAINING", "JOIN", "LIVE", "PROVISION", "RETIRE",
    "RETIRED", "WARMING",
    "AutoscaleController", "AutoscalePolicy", "FleetSignals",
    "ScalingEvent",
    "AutoscalePoint", "ClusterCapacityResult", "cluster_capacity",
    "sweep_autoscale",
    "Cluster", "ClusterNode",
    "ClusterReport", "NodeReport", "rollup",
    "PipelineRollup", "SessionReport", "StageReport",
    "pipeline_rollup", "session_reports",
    "ROUTERS", "Router", "make_router",
    "RoundRobinRouter", "LeastOutstandingRouter",
    "JoinShortestQueueRouter", "PressureAwareRouter",
    "DeviceAffinityRouter",
    "DEFAULT_NODE_POLICY", "ClusterSpec", "NodeSpec",
    "homogeneous", "mixed_fleet", "hetero_fleet",
]
