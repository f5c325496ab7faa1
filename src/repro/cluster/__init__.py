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

from repro.cluster.admission import AdmissionPolicy
from repro.cluster.autoscale import (
    JOIN,
    PROVISION,
    RETIRE,
    RETIRED,
    AutoscalePolicy,
)
from repro.cluster.experiments import cluster_capacity, sweep_autoscale
from repro.cluster.fleet import Cluster
from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    hetero_fleet,
    homogeneous,
    mixed_fleet,
)

__all__ = [
    "AdmissionPolicy",
    "JOIN", "PROVISION", "RETIRE", "RETIRED", "AutoscalePolicy",
    "cluster_capacity", "sweep_autoscale",
    "Cluster",
    "ClusterSpec", "NodeSpec", "homogeneous", "mixed_fleet", "hetero_fleet",
]
