"""The fleet simulation driver: N node engines, one global arrival stream.

:class:`Cluster` is the multi-node analogue of
:meth:`ServingStack.run <repro.serving.server.ServingStack.run>`: it
builds one :class:`~repro.runtime.engine.Engine` + policy per node over
the stack's *shared* artifacts (one compile pass fleet-wide), then
co-simulates them against a single arrival stream.  At each global
arrival every active node is advanced to the arrival instant
(:meth:`Engine.run_until`), the admission controller rules on the offer,
the router picks a node from live fleet state, and the query is injected
into that node's event loop (:meth:`Engine.submit`) — so routing
decisions see exactly the node states a real front-end would observe at
that moment, not a post-hoc assignment.

Request-model streams run through the same loop with a
:class:`~repro.workloads.requests.RequestDriver` attached: a completion
may then hand a pipeline stage off or issue a tenant's next request at
its own instant, so the loop steps causally — no node runs past its
next event while an offer could still land before it.  A single node is
a fleet of one: :meth:`ServingStack.run_stream
<repro.serving.server.ServingStack.run_stream>` is a one-node
``round_robin`` serve.

Fleet membership is dynamic: with an
:class:`~repro.cluster.autoscale.AutoscalePolicy` the serve loop
interleaves control ticks into the offer heap, provisions nodes from
the policy's template (with a warm-up delay before they join the
routing set), and drains nodes out (they leave the routing set, finish
their in-flight work, then retire and stop being driven).  Routers and
admission only ever see the *live* membership; the scaling timeline and
per-node lifecycle land in the :class:`~repro.cluster.metrics.ClusterReport`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import replace

from repro.cluster.admission import (
    ADMIT,
    DEFER,
    AdmissionController,
    AdmissionPolicy,
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
    ScalingEvent,
)
from repro.cluster.metrics import (
    ClusterReport,
    pipeline_rollup,
    rollup,
    session_reports,
)
from repro.cluster.router import make_router
from repro.cluster.spec import ClusterSpec, NodeSpec
from repro.interference.proxy import estimate_system_pressure
from repro.runtime.engine import Engine
from repro.runtime.tasks import Query
from repro.telemetry.tracer import FLEET_SIGNAL_FIELDS
from repro.serving.metrics import summarize
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.workloads.requests import RequestDriver, RequestStream

#: Serve-loop event kinds (never compared: sequence numbers are unique).
_OFFER = "offer"
_TICK = "tick"
_JOIN = "join"


class ClusterNode:
    """One fleet member: an engine + local policy over shared artifacts.

    ``tracer`` (a :class:`repro.telemetry.Tracer`) is bound to the
    node's name, so this node's block/query spans and scheduler events
    land in the shared fleet stream already stamped with the node.
    ``on_complete`` is the engine's completion hook (the request
    driver's, during a request-model serve).
    """

    def __init__(self, index: int, spec: NodeSpec, stack: ServingStack,
                 tracer=None, on_complete=None) -> None:
        self.index = index
        self.spec = spec
        self.runtime = stack.runtime_for(spec.device)
        self.engine = Engine(self.runtime.cost_model,
                             price_cache=self.runtime.price_cache,
                             tracer=(tracer.bind(spec.name)
                                     if tracer is not None else None),
                             on_complete=on_complete)
        self.scheduler = stack.make_scheduler(spec.policy,
                                              runtime=self.runtime)
        self.engine.begin([], self.scheduler)
        #: Queries the router assigned here.
        self.assigned = 0
        #: Lifecycle (see :mod:`repro.cluster.autoscale`): static fleet
        #: members are live for the whole run; autoscaled nodes move
        #: warming -> live -> draining -> retired.
        self.state = LIVE
        self.provisioned_s = 0.0
        self.drain_started_s: float | None = None
        self.retired_s: float | None = None
        #: Completions already fed to the autoscale SLO window.
        self._slo_cursor = 0

    @property
    def cores(self) -> int:
        return self.spec.device.cores

    @property
    def width(self) -> int:
        """The node's parallel width (cores or SMs) — routing units."""
        return self.spec.device.parallel_width

    @property
    def device_kind(self) -> str:
        return self.spec.device_kind

    def pressure_estimate(self) -> float:
        """This node's interference estimate — the routing signal.

        The same estimation contract the node's own adaptive scheduler
        uses (:func:`estimate_system_pressure`), over the proxy fitted
        for *this node's* CPU spec by the stack's runtime factory.
        """
        return estimate_system_pressure(self.engine, self.runtime.proxy)


class Cluster:
    """A reusable fleet harness: spec + router + admission over one stack.

    Engines are per-``serve`` (fresh nodes each call, exactly like
    ``ServingStack.run`` builds fresh engines per run), so one
    ``Cluster`` can drive a whole QPS sweep.  ``router`` is a registry
    name (:data:`~repro.cluster.router.ROUTERS`); a fresh router is
    built per serve, so no routing state leaks between serves.  An
    :class:`AutoscalePolicy` turns on the feedback control plane:
    ``spec`` then describes the *initial* fleet and membership follows
    load between the policy's ``min_nodes`` and ``max_nodes``.
    """

    def __init__(self, stack: ServingStack, spec: ClusterSpec,
                 router: str = "pressure_aware",
                 admission: AdmissionPolicy | None = None,
                 autoscale: AutoscalePolicy | None = None) -> None:
        self.stack = stack
        self.spec = spec
        self.router = router
        self.admission = admission
        self.autoscale = autoscale
        #: Every node of the most recent :meth:`serve`, in provision
        #: order, retired ones included (debugging handle).
        self.last_nodes: list[ClusterNode] | None = None
        #: Every stage-level query the most recent serve offered, with
        #: realized arrival times — hand-offs and closed-loop follow-ups
        #: included.  ``record_trace(cluster.last_offered, ...)``
        #: captures a feedback-shaped stream for open-loop replay.
        self.last_offered: list[Query] | None = None

    @staticmethod
    def _retire_time(node: ClusterNode) -> float:
        """When a drained node actually emptied: its last finish."""
        completed = node.engine.completed
        finish = completed[-1].finished_s if completed else None
        retired = node.drain_started_s
        if finish is not None and finish > retired:
            retired = finish
        return retired

    @classmethod
    def _retire_drained(cls, all_nodes: list[ClusterNode],
                        routable: list[ClusterNode],
                        timeline: list[ScalingEvent]) -> None:
        """Retire every emptied draining node at its actual last finish.

        Concurrently draining nodes empty at their own last-finish
        instants; retiring them in node-index order would stamp the
        timeline out of chronological order.
        """
        emptied = [node for node in all_nodes
                   if node.state == DRAINING
                   and node.engine.outstanding == 0]
        emptied.sort(key=lambda node: (cls._retire_time(node), node.index))
        for node in emptied:
            node.retired_s = cls._retire_time(node)
            node.state = RETIRED
            timeline.append(ScalingEvent(
                time_s=node.retired_s, action=RETIRE, node=node.spec.name,
                live_nodes=len(routable)))

    def serve(self, queries: list[Query],
              offered_qps: float | None = None,
              tracer=None) -> ClusterReport:
        """Route and co-simulate one query stream; returns the rollup.

        ``tracer`` (a :class:`repro.telemetry.Tracer`) records the whole
        fleet into one stream: per-node engine spans, routing choices
        (with per-node scores for score-based routers), admission
        verdicts, the scaling timeline, and the autoscale controller's
        per-tick ``fleet.signals`` counters.  Observational only — the
        rollup is bit-identical with tracing on or off.
        """
        return self.serve_stream(RequestStream(queries=queries),
                                 offered_qps, tracer)

    def serve_stream(self, stream: RequestStream,
                     offered_qps: float | None = None,
                     tracer=None) -> ClusterReport:
        """Serve a :class:`repro.workloads.RequestStream` fleet-wide.

        The request-model twin of :meth:`serve`: pipeline stage *k+1*
        is offered (through admission and routing, like any query) the
        instant stage *k* completes; closed-loop tenants issue their
        next request at each completion or shed.  A *deferred* pipeline
        stage re-offers as usual; a *shed* stage fails the whole
        pipeline's QoS and no later stage runs.  The returned report
        carries :attr:`ClusterReport.pipelines` /
        :attr:`ClusterReport.sessions` rollups.  A stream holding only
        plain ``queries`` serves exactly like :meth:`serve`.
        """
        seq = itertools.count()
        #: The serve heap: offers (deferred queries re-pushed at their
        #: re-offer instant with the attempt count bumped, request
        #: follow-ups pushed by the driver), autoscale control ticks and
        #: node-join events.
        events: list = []
        #: Offers not yet resolved.
        pending = 0

        def offer(query: Query, at: float, attempts: int = 0) -> None:
            nonlocal pending
            heapq.heappush(events, (at, next(seq), _OFFER,
                                    (attempts, query)))
            pending += 1

        driver = RequestDriver(
            stream, lambda query: offer(query, query.arrival_s), tracer)
        queries = list(driver.issued)
        if not queries:
            raise ValueError("cannot serve an empty stream")
        for query in sorted(queries, key=lambda q: (q.arrival_s,
                                                     q.query_id)):
            offer(query, query.arrival_s)
        # Only pipelines and tenants turn completions into new offers.
        hook = driver.on_complete if stream.interactive else None

        def build_node(index: int, spec: NodeSpec) -> ClusterNode:
            return ClusterNode(index, spec, self.stack, tracer=tracer,
                               on_complete=hook)

        #: Every node ever provisioned, in provision order (ascending
        #: ``index``); membership state lives on the nodes.
        all_nodes = [build_node(index, spec)
                     for index, spec in enumerate(self.spec.nodes)]
        router = make_router(self.router)
        #: Score-based routers publish per-node scores when this is set.
        router.tracer = tracer
        controller = (AdmissionController(self.admission)
                      if self.admission is not None else None)
        scaler = (AutoscaleController(self.autoscale)
                  if self.autoscale is not None else None)

        start_s = min(query.arrival_s for query in queries)
        for node in all_nodes:
            node.provisioned_s = start_s
        #: The routing set: live nodes, ascending index (provisioned
        #: nodes join strictly after every earlier join).
        routable = list(all_nodes)
        timeline: list[ScalingEvent] = []
        peak_live = len(routable)
        auto_names = itertools.count(1)
        if scaler is not None:
            heapq.heappush(events, (start_s + self.autoscale.tick_s,
                                    next(seq), _TICK, None))
        shed: list[Query] = []
        last_advance = float("-inf")

        def advance(to: float) -> None:
            """Drive every node that still has or may get work to ``to``."""
            nonlocal last_advance
            for node in all_nodes:
                if node.state != RETIRED:
                    node.engine.run_until(to)
            last_advance = to
            self._retire_drained(all_nodes, routable, timeline)

        while True:
            if hook is not None:
                # Causal step: a completion may offer work at its own
                # instant, so no node runs past its next event while an
                # offer could still land before it.  Ties go to the
                # nodes, as in every advance.
                step = min((t for t in (node.engine.next_event_s()
                                        for node in all_nodes
                                        if node.state != RETIRED)
                            if t is not None), default=None)
                if step is not None and (not events
                                         or step <= events[0][0]):
                    advance(step)
                    continue
            if not events:
                break
            now, _, kind, payload = heapq.heappop(events)
            if now > last_advance:
                # One advance per distinct event time: re-offers and
                # simultaneous arrivals share it.
                advance(now)

            if kind == _TICK:
                if pending > 0:
                    self._autoscale_tick(scaler, all_nodes, routable,
                                         timeline, events, seq,
                                         auto_names, now, build_node)
                    heapq.heappush(
                        events, (now + self.autoscale.tick_s, next(seq),
                                 _TICK, None))
                continue
            if kind == _JOIN:
                node = payload
                node.state = LIVE
                routable.append(node)
                peak_live = max(peak_live, len(routable))
                timeline.append(ScalingEvent(
                    time_s=now, action=JOIN, node=node.spec.name,
                    live_nodes=len(routable)))
                continue

            pending -= 1
            attempts, query = payload
            if controller is not None:
                decision = controller.decide(routable, query, attempts)
                if decision == DEFER:
                    offer(query, now + controller.policy.defer_s,
                          attempts + 1)
                    if tracer is not None:
                        tracer.event("admission.defer", now, cat="cluster",
                                     qid=query.query_id,
                                     args={"attempts": attempts})
                    continue
                if decision != ADMIT:
                    shed.append(query)
                    if tracer is not None:
                        tracer.event("admission.shed", now, cat="cluster",
                                     qid=query.query_id,
                                     args={"attempts": attempts})
                    driver.on_shed(query, now)
                    continue
            node = router.choose(routable, query, now)
            if tracer is not None:
                args = {"node": node.spec.name, "attempts": attempts}
                if router.last_scores is not None:
                    args["scores"] = router.last_scores
                    router.last_scores = None
                tracer.event("route", now, cat="cluster",
                             node=node.spec.name, qid=query.query_id,
                             args=args)
            node.engine.submit(query, at=now)
            node.assigned += 1
            # Process the arrival at its own instant so the next offer
            # at the same timestamp routes on fresh node state.
            node.engine.run_until(now)

        # Tail: an open-loop serve finishes each node's in-flight work
        # here (the causal loop leaves nothing to drain), then lifecycle
        # is stamped.
        for node in all_nodes:
            if node.state != RETIRED:
                node.engine.drain()
        self._retire_drained(all_nodes, routable, timeline)
        offered_log = driver.issued
        window_end = max(
            [query.arrival_s for query in offered_log]
            + [node.engine.completed[-1].finished_s
               for node in all_nodes if node.engine.completed])
        for node in all_nodes:
            if node.retired_s is None:
                node.retired_s = window_end

        if offered_qps is None:
            # Rate estimate from the stream itself: N queries span N-1
            # inter-arrival gaps.  A single query (or simultaneous
            # arrivals) has no measurable rate; 0.0 marks "unknown".
            arrivals = [q.arrival_s for q in offered_log]
            span = max(arrivals) - min(arrivals)
            offered_qps = ((len(offered_log) - 1) / span if span > 0
                           else 0.0)

        # Per-node offered share of the fleet rate: a node's share is
        # of what was *admitted* — shed queries never reached any node,
        # so dividing by the full offered count would under-state every
        # node's load whenever the controller sheds (and the per-node
        # offered rates would no longer sum to the fleet rate).
        admitted_total = sum(node.assigned for node in all_nodes)
        node_results = []
        for node in all_nodes:
            completed = node.engine.completed
            share = (node.assigned / admitted_total if admitted_total
                     else 0.0)
            report = summarize(completed, node.engine.metrics,
                               offered_qps * share)
            node_results.append((node, completed, report))

        if tracer is not None:
            # The scaling timeline and the controller's per-tick signals
            # are appended once the serve loop has finished — identical
            # data to inline emission, and the controller itself stays
            # untouched by telemetry.  The fleet.signals counters follow
            # repro.telemetry.FLEET_SIGNAL_FIELDS, making a recorded
            # trace double as an offline training set for learned
            # routers (one sample per control tick, with the scale.*
            # decisions interleaved by timestamp).
            for event in timeline:
                args = {"live_nodes": event.live_nodes}
                if event.reason:
                    args["reason"] = event.reason
                tracer.event(f"scale.{event.action}", event.time_s,
                             cat="autoscale", node=event.node, args=args)
            if scaler is not None:
                for signal in scaler.signals:
                    tracer.counter(
                        "fleet.signals", signal.time_s,
                        {field: getattr(signal, field)
                         for field in FLEET_SIGNAL_FIELDS})
        driver.trace_requests(window_end)

        self.last_nodes = all_nodes
        self.last_offered = offered_log
        return rollup(
            offered=offered_log, node_results=node_results, shed=shed,
            deferrals=controller.deferrals if controller else 0,
            offered_qps=offered_qps, router=router.name,
            timeline=tuple(timeline), peak_live_nodes=peak_live,
            window=(start_s, window_end),
            pipelines=pipeline_rollup(stream.pipelines),
            sessions=session_reports(stream.tenants))

    def _autoscale_tick(self, scaler: AutoscaleController,
                        all_nodes: list[ClusterNode],
                        routable: list[ClusterNode],
                        timeline: list[ScalingEvent], events: list,
                        seq, auto_names, now: float, build_node) -> None:
        """One control tick: feed the SLO window, maybe resize the fleet."""
        for node in all_nodes:
            completed = node.engine.completed
            if node._slo_cursor < len(completed):
                scaler.observe_completions(completed[node._slo_cursor:])
                node._slo_cursor = len(completed)
        warming = sum(1 for node in all_nodes if node.state == WARMING)
        delta = scaler.decide(now, routable, warming)
        if delta > 0:
            for _ in range(delta):
                name = f"{self.autoscale.template.name}-{next(auto_names)}"
                # A warming node from the template, joined after warm-up.
                # Spin-up goes through stack.runtime_for: it re-profiles
                # for the template's device but never recompiles.
                node = build_node(len(all_nodes),
                                  replace(self.autoscale.template, name=name))
                node.state = WARMING
                node.provisioned_s = now
                all_nodes.append(node)
                timeline.append(ScalingEvent(
                    time_s=now, action=PROVISION, node=name,
                    live_nodes=len(routable), reason=scaler.reason()))
                heapq.heappush(
                    events, (now + self.autoscale.warmup_s, next(seq),
                             _JOIN, node))
        elif delta < 0:
            # Drain the emptiest live node; prefer the youngest on ties
            # (scale-in releases the most recently acquired capacity).
            victim = min(routable,
                         key=lambda n: (n.engine.outstanding, -n.index))
            routable.remove(victim)
            victim.state = DRAINING
            victim.drain_started_s = now
            timeline.append(ScalingEvent(
                time_s=now, action=DRAIN, node=victim.spec.name,
                live_nodes=len(routable), reason=scaler.reason()))
            self._retire_drained(all_nodes, routable, timeline)

    def report(self, spec: WorkloadSpec, qps: float, count: int,
               seed: int | None = None, scenario=None,
               tracer=None) -> ClusterReport:
        """Generate a stream, serve it fleet-wide, summarise.

        Default arrivals are the stationary Poisson stream; a
        ``scenario`` (:class:`repro.workloads.ScenarioSpec` or
        registered name) swaps in any trace-driven shape at mean rate
        ``qps`` — the fleet twin of ``ServingStack.report``.
        ``tracer`` records the serve (see :meth:`serve`).
        """
        queries = scenario_queries(
            self.stack.compiled, scenario, qps, count,
            seed=self.stack.seed if seed is None else seed, spec=spec)
        return self.serve(queries, offered_qps=qps, tracer=tracer)
