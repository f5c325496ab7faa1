"""Pluggable query routers: which node gets the next arrival.

Routers see the fleet exactly as a production front-end would — queue
depths, core widths, and each node's *interference-proxy* pressure
estimate (the paper's Sec. 4.3 signal, here promoted from a per-node
scheduling input to a fleet-level routing input).  They never inspect
simulator internals beyond what a monitoring agent could export.

==================== =====================================================
``round_robin``      cyclic assignment, state- and width-blind
``least_outstanding`` fewest in-flight queries (queued + executing)
``join_shortest_queue`` fewest *queued* queries (executing ones ignored)
``pressure_aware``   lowest predicted interference pressure, with a
                     width-normalised queue term and QoS-class urgency
                     weighting (the headline router)
``device_affinity``  pressure_aware plus a learned per-(model, device
                     kind) cost term — batch-friendly models drift to
                     accelerators, latency-critical small models to CPUs
==================== =====================================================
"""

from __future__ import annotations

#: Score weights of the pressure-aware routers (see
#: :class:`PressureAwareRouter`): the queue term's weight, the node
#: width that counts as one unit of backlog capacity, and the QoS budget
#: at which a query counts as fully urgent.
_QUEUE_WEIGHT = 0.5
_REFERENCE_CORES = 64
_REFERENCE_QOS_S = 0.015
#: :class:`DeviceAffinityRouter`'s learned cost term: the EWMA step, and
#: the completions a (model, device kind) pair needs before its
#: observations replace the profiled prior.
_ALPHA = 0.2
_MIN_OBSERVATIONS = 3


class Router:
    """Base router: pick a node for one query at its arrival instant."""

    #: Registry name; subclasses override.
    name = "base"
    #: Telemetry sink, set by :meth:`Cluster.serve` for traced serves.
    #: Score-based routers check it and publish their per-node scores
    #: through :attr:`last_scores`; the routing decision itself is
    #: identical with or without it.
    tracer = None
    #: Per-node scores of the most recent :meth:`choose`, published only
    #: when :attr:`tracer` is set (the fleet driver folds them into the
    #: ``route`` event and clears the attribute).
    last_scores: dict | None = None

    def choose(self, nodes, query, now: float):
        """Return the node (from ``nodes``) that should serve ``query``."""
        raise NotImplementedError

    def _lowest(self, nodes, score):
        """The node with the lowest ``score``; with a tracer set, every
        node's score is also published through :attr:`last_scores`."""
        if self.tracer is None:
            return min(nodes, key=score)
        scored = [(score(node), node) for node in nodes]
        best = min(scored, key=lambda entry: entry[0])
        self.last_scores = {node.spec.name: value
                            for (value, _), node in scored}
        return best[1]


class RoundRobinRouter(Router):
    """Cyclic assignment — the width- and state-blind baseline.

    The cursor tracks the *identity* (``node.index``) of the last node
    served, not a position: a global counter modulo the current list
    length skips or double-serves nodes the moment membership changes
    (an autoscaled fleet joins and drains nodes mid-run).  Each pick is
    the first live node after the last-served id, wrapping — which on a
    static fleet reproduces the classic ``0, 1, ..., n-1, 0`` cycle
    byte for byte.
    """

    name = "round_robin"

    def __init__(self) -> None:
        #: ``node.index`` of the last node served; None before the
        #: first pick.  Live node lists are ascending by index.
        self._last_index: int | None = None

    def choose(self, nodes, query, now: float):
        if self._last_index is not None:
            for node in nodes:
                if node.index > self._last_index:
                    self._last_index = node.index
                    return node
        node = nodes[0]
        self._last_index = node.index
        return node


class LeastOutstandingRouter(Router):
    """Fewest in-flight queries (queued + executing); ties to the
    lowest-index node.  Load-aware but width-blind: a 256-core node and
    a 32-core node look identical at equal depth."""

    name = "least_outstanding"

    def choose(self, nodes, query, now: float):
        return min(nodes, key=lambda node: (node.engine.outstanding,
                                            node.index))


class JoinShortestQueueRouter(Router):
    """Fewest *queued* (not yet executing) queries.

    Distinct from ``least_outstanding``: queries already executing are
    invisible, so a node running many blocks with an empty queue looks
    idle — the classic JSQ blind spot under spatial multitasking.
    """

    name = "join_shortest_queue"

    def choose(self, nodes, query, now: float):
        return min(nodes, key=lambda node: (node.engine.queued, node.index))


class PressureAwareRouter(Router):
    """Route on interference pressure, width-normalised queue depth, and
    QoS-class urgency — the VELTAIR signal applied fleet-wide.

    Each node is scored as::

        score = (1 + urgency) * pressure + 0.5 * depth

    * ``pressure`` is the node's interference estimate in [0, 1]: the
      fitted linear proxy over the node's chip-wide L3 counters when the
      stack has one, else the simulator's planning pressure (oracle).
    * ``depth`` is the node's outstanding query count divided by its
      core width in reference-node units (``cores / 64``), so a
      256-core box absorbs 4x the backlog of a 64-core box before
      their scores meet — this is what a width-blind router misses.
    * ``urgency`` in [0, 1] grows as the query's QoS budget tightens
      (``0.015 s / qos_s``, clamped): latency-critical queries
      double-weight pressure and land on quiet nodes, while loose-QoS
      heavy queries mostly follow spare width and soak up the backlog —
      per-class isolation without any static partitioning.
    """

    name = "pressure_aware"

    def choose(self, nodes, query, now: float):
        urgency = min(1.0, _REFERENCE_QOS_S / query.qos_s)

        def score(node) -> tuple[float, int]:
            # ``cores`` counts allocation units — SMs on an accelerator
            # node — so the backlog is normalised by the node's parallel
            # width and ranks fairly against CPU members.
            width = node.cores / _REFERENCE_CORES
            depth = node.engine.outstanding / width
            value = ((1.0 + urgency) * node.pressure_estimate()
                     + _QUEUE_WEIGHT * depth)
            return (value, node.index)

        return self._lowest(nodes, score)


class DeviceAffinityRouter(PressureAwareRouter):
    """``pressure_aware`` plus a learned per-(model, device-kind) cost.

    Every completion the fleet produces is an observation of how well
    one model fits one device kind: its end-to-end latency divided by
    its QoS budget.  The router folds these into per-``(model, kind)``
    EWMAs and adds the estimate — urgency-weighted, like the pressure
    term — to the ``pressure_aware`` score::

        score = (1 + urgency) * cost + pressure + 0.5 * depth

    Batch-friendly models (wide layers that fill warps and SMs) observe
    low normalised cost on accelerator nodes and drift there;
    latency-critical small models observe warp-width waste and
    occupancy stalls and drift back to CPUs — placement learned from
    fleet telemetry, no static model→device table anywhere.

    Until three completions of a pair exist, the prior is the node
    runtime's *isolated* profiled service time over the query's budget —
    the offline per-device cost estimate — so cold starts already route
    with the right sign.  Observation ingestion is cursor-based over
    each node's completion log (a front-end tailing its metrics stream)
    and strictly arrival-order driven, so routing stays deterministic
    for a fixed stream.
    """

    name = "device_affinity"

    def __init__(self) -> None:
        #: (model name, device kind) -> EWMA of latency / QoS budget.
        self._cost: dict[tuple[str, str], float] = {}
        self._counts: dict[tuple[str, str], int] = {}
        #: Completion-log read cursors, keyed by node identity.
        self._cursors: dict[tuple[int, str], int] = {}

    def _ingest(self, nodes) -> None:
        for node in nodes:
            completed = node.engine.completed
            cursor_key = (node.index, node.spec.name)
            cursor = self._cursors.get(cursor_key, 0)
            kind = node.device_kind
            for query in completed[cursor:]:
                cost = (query.finished_s - query.arrival_s) / query.qos_s
                key = (query.model.name, kind)
                previous = self._cost.get(key)
                self._cost[key] = (cost if previous is None
                                   else previous
                                   + _ALPHA * (cost - previous))
                self._counts[key] = self._counts.get(key, 0) + 1
            self._cursors[cursor_key] = len(completed)

    def _estimate(self, node, query) -> float:
        key = (query.model.name, node.device_kind)
        if self._counts.get(key, 0) >= _MIN_OBSERVATIONS:
            return self._cost[key]
        profile = node.runtime.profiles.get(query.model.name)
        if profile is None:
            return 1.0
        return profile.isolated_service_s / query.qos_s

    def choose(self, nodes, query, now: float):
        self._ingest(nodes)
        urgency = min(1.0, _REFERENCE_QOS_S / query.qos_s)

        def score(node) -> tuple[float, int]:
            width = node.cores / _REFERENCE_CORES
            depth = node.engine.outstanding / width
            value = ((1.0 + urgency) * self._estimate(node, query)
                     + node.pressure_estimate()
                     + _QUEUE_WEIGHT * depth)
            return (value, node.index)

        return self._lowest(nodes, score)


#: Router registry, mirroring the policy table of ``ServingStack``.
ROUTERS = ("round_robin", "least_outstanding", "join_shortest_queue",
           "pressure_aware", "device_affinity")


def make_router(name: str) -> Router:
    """A fresh instance of the router registered as ``name``."""
    if name == "round_robin":
        return RoundRobinRouter()
    if name == "least_outstanding":
        return LeastOutstandingRouter()
    if name == "join_shortest_queue":
        return JoinShortestQueueRouter()
    if name == "pressure_aware":
        return PressureAwareRouter()
    if name == "device_affinity":
        return DeviceAffinityRouter()
    raise ValueError(f"unknown router {name!r}; known: {ROUTERS}")
