"""The fleet simulation driver: N node engines, one global arrival stream.

:class:`Cluster` is the multi-node analogue of
:meth:`ServingStack.run <repro.serving.server.ServingStack.run>`: it
builds one :class:`~repro.runtime.engine.Engine` + policy per node over
the stack's *shared* artifacts (one compile pass fleet-wide), then
co-simulates them against a single arrival stream.  A serve is one run
object whose heap holds offers, autoscale ticks and node joins.  At
each event time every active node is advanced to that instant
(:meth:`Engine.run_until`); an offer then passes admission, the router
picks a node from live fleet state, and the query is injected into that
node's event loop (:meth:`Engine.submit`) — so routing decisions see
exactly the node states a real front-end would observe at that moment,
not a post-hoc assignment.

Request-model streams run through the same loop with a
:class:`~repro.workloads.requests.RequestDriver` attached: a completion
may then hand a pipeline stage off or issue a tenant's next request at
its own instant, so the loop steps causally — no node runs past its
next event while an offer could still land before it.  A single node is
a fleet of one: :meth:`ServingStack.run_stream
<repro.serving.server.ServingStack.run_stream>` is a one-node
``round_robin`` serve.

Fleet membership is dynamic: with an
:class:`~repro.cluster.autoscale.AutoscalePolicy` the control ticks
provision nodes from the policy's template (with a warm-up delay before
they join the routing set) and drain nodes out (they leave the routing
set, finish their in-flight work, then retire and stop being driven).
Ticks run while an offer is pending and, for a closed loop or pipeline,
while any node has work in flight.  Routers and admission only ever see
the *live* membership; the scaling timeline and per-node lifecycle land
in the :class:`~repro.cluster.metrics.ClusterReport`.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
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
        """Serve a :class:`repro.workloads.requests.RequestStream` fleet-wide.

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
        run = _FleetRun(self, stream, tracer)
        run.drive()
        self.last_nodes = run.nodes
        self.last_offered = run.driver.issued
        return run.finish(offered_qps)

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


class _FleetRun:
    """One serve of a stream: the fleet's state and its event handlers.

    Heap entries are ``(time, seq, handler, payload)``: offers
    (:meth:`_route`, re-pushed on deferral), autoscale ticks
    (:meth:`_tick`) and node joins (:meth:`_join`).  Sequence numbers
    are unique, so handlers are never compared.
    """

    def __init__(self, cluster: Cluster, stream: RequestStream,
                 tracer) -> None:
        self.cluster = cluster
        self.tracer = tracer
        self.events: list = []
        self._seq = itertools.count()
        #: Offers not yet resolved.
        self.pending = 0
        # The driver reaches the run weakly: a strong callback would
        # close a run -> driver -> run cycle that keeps a finished
        # serve's engines alive until the cyclic collector runs.
        run = weakref.proxy(self)
        self.driver = RequestDriver(
            stream, lambda query: run.offer(query, query.arrival_s), tracer)
        queries = sorted(self.driver.issued,
                         key=lambda q: (q.arrival_s, q.query_id))
        if not queries:
            raise ValueError("cannot serve an empty stream")
        for query in queries:
            self.offer(query, query.arrival_s)
        # Only pipelines and tenants turn completions into new offers.
        self.hook = self.driver.on_complete if stream.interactive else None
        self.start_s = queries[0].arrival_s
        #: Every node ever provisioned, in provision order (ascending
        #: ``index``); membership state lives on the nodes.
        self.nodes: list[ClusterNode] = []
        for spec in cluster.spec.nodes:
            self._add_node(spec, self.start_s)
        #: The routing set: live nodes, ascending index (provisioned
        #: nodes join strictly after every earlier join).
        self.routable = list(self.nodes)
        self.router = make_router(cluster.router)
        #: Score-based routers publish per-node scores when this is set.
        self.router.tracer = tracer
        self.controller = (AdmissionController(cluster.admission)
                           if cluster.admission is not None else None)
        self.scaler = (AutoscaleController(cluster.autoscale)
                       if cluster.autoscale is not None else None)
        self.timeline: list[ScalingEvent] = []
        self._auto_names = itertools.count(1)
        self.shed: list[Query] = []
        self._last_advance = float("-inf")
        if self.scaler is not None:
            self._push(self.start_s + cluster.autoscale.tick_s, self._tick)

    def _push(self, at: float, handler, payload=None) -> None:
        heapq.heappush(self.events, (at, next(self._seq), handler, payload))

    def _add_node(self, spec: NodeSpec, now: float) -> ClusterNode:
        node = ClusterNode(len(self.nodes), spec, self.cluster.stack,
                           tracer=self.tracer, on_complete=self.hook)
        node.provisioned_s = now
        self.nodes.append(node)
        return node

    def offer(self, query: Query, at: float, attempts: int = 0) -> None:
        """Queue ``query`` for admission and routing at ``at``."""
        self._push(at, self._route, (attempts, query))
        self.pending += 1

    def drive(self) -> None:
        """Handle events in time order; with pipelines or tenants, also
        step the nodes until none has an event left."""
        events = self.events
        while True:
            if self.hook is not None:
                # Causal step: a completion may offer work at its own
                # instant, so no node runs past its next event while an
                # offer could still land before it.  Ties go to the
                # nodes, as in every advance.
                step = min((t for t in (node.engine.next_event_s()
                                        for node in self.nodes
                                        if node.state != RETIRED)
                            if t is not None), default=None)
                if step is not None and (not events
                                         or step <= events[0][0]):
                    self._advance(step)
                    continue
            if not events:
                return
            now, _, handler, payload = heapq.heappop(events)
            if now > self._last_advance:
                # One advance per distinct event time: re-offers and
                # simultaneous arrivals share it.
                self._advance(now)
            handler(now, payload)

    def _advance(self, to: float) -> None:
        """Drive every node that still has or may get work to ``to``."""
        for node in self.nodes:
            if node.state != RETIRED:
                node.engine.run_until(to)
        self._last_advance = to
        self._retire_drained()

    def _retire_drained(self) -> None:
        """Retire every emptied draining node at its actual last finish.

        Concurrently draining nodes empty at their own last-finish
        instants, so they retire in (retire time, index) order: the
        timeline stays chronological.
        """
        emptied = []
        for node in self.nodes:
            if node.state == DRAINING and node.engine.outstanding == 0:
                completed = node.engine.completed
                retired = node.drain_started_s
                if completed and completed[-1].finished_s > retired:
                    retired = completed[-1].finished_s
                emptied.append((retired, node.index, node))
        for retired, _, node in sorted(emptied):
            node.retired_s = retired
            node.state = RETIRED
            self.timeline.append(ScalingEvent(
                time_s=retired, action=RETIRE, node=node.spec.name,
                live_nodes=len(self.routable)))

    def _route(self, now: float, payload: tuple[int, Query]) -> None:
        """An offer: admission, then routing and submission."""
        self.pending -= 1
        attempts, query = payload
        controller, tracer = self.controller, self.tracer
        if controller is not None:
            decision = controller.decide(self.routable, query, attempts)
            if decision == DEFER:
                self.offer(query, now + controller.policy.defer_s,
                           attempts + 1)
                if tracer is not None:
                    tracer.event("admission.defer", now, cat="cluster",
                                 qid=query.query_id,
                                 args={"attempts": attempts})
                return
            if decision != ADMIT:
                self.shed.append(query)
                if tracer is not None:
                    tracer.event("admission.shed", now, cat="cluster",
                                 qid=query.query_id,
                                 args={"attempts": attempts})
                self.driver.on_shed(query, now)
                return
        node = self.router.choose(self.routable, query, now)
        if tracer is not None:
            args = {"node": node.spec.name, "attempts": attempts}
            if self.router.last_scores is not None:
                args["scores"] = self.router.last_scores
                self.router.last_scores = None
            tracer.event("route", now, cat="cluster", node=node.spec.name,
                         qid=query.query_id, args=args)
        node.engine.submit(query, at=now)
        node.assigned += 1
        # Process the arrival at its own instant so the next offer at
        # the same timestamp routes on fresh node state.
        node.engine.run_until(now)

    def _tick(self, now: float, _) -> None:
        """A control tick: feed the SLO window, maybe resize the fleet.

        Ticks re-arm while an offer is pending or, with pipelines or
        tenants, while work is in flight: a zero-think closed loop never
        has an offer pending at a tick.
        """
        in_flight = self.hook is not None and any(
            node.engine.outstanding for node in self.nodes)
        if self.pending == 0 and not in_flight:
            return
        scaler, policy = self.scaler, self.cluster.autoscale
        for node in self.nodes:
            completed = node.engine.completed
            if node._slo_cursor < len(completed):
                scaler.observe_completions(completed[node._slo_cursor:])
                node._slo_cursor = len(completed)
        warming = sum(1 for node in self.nodes if node.state == WARMING)
        delta = scaler.decide(now, self.routable, warming)
        for _ in range(delta):
            # A warming node from the template, joined after warm-up.
            # Spin-up goes through stack.runtime_for: it re-profiles for
            # the template's device but never recompiles.
            name = f"{policy.template.name}-{next(self._auto_names)}"
            node = self._add_node(replace(policy.template, name=name), now)
            node.state = WARMING
            self.timeline.append(ScalingEvent(
                time_s=now, action=PROVISION, node=name,
                live_nodes=len(self.routable), reason=scaler.reason()))
            self._push(now + policy.warmup_s, self._join, node)
        if delta < 0:
            # Drain the emptiest live node; prefer the youngest on ties
            # (scale-in releases the most recently acquired capacity).
            victim = min(self.routable,
                         key=lambda n: (n.engine.outstanding, -n.index))
            self.routable.remove(victim)
            victim.state = DRAINING
            victim.drain_started_s = now
            self.timeline.append(ScalingEvent(
                time_s=now, action=DRAIN, node=victim.spec.name,
                live_nodes=len(self.routable), reason=scaler.reason()))
            self._retire_drained()
        self._push(now + policy.tick_s, self._tick)

    def _join(self, now: float, node: ClusterNode) -> None:
        """A warmed-up node enters the routing set."""
        node.state = LIVE
        self.routable.append(node)
        self.timeline.append(ScalingEvent(
            time_s=now, action=JOIN, node=node.spec.name,
            live_nodes=len(self.routable)))

    def finish(self, offered_qps: float | None) -> ClusterReport:
        """Drain the tail, stamp lifecycles and roll the serve up."""
        # An open-loop serve finishes each node's in-flight work here
        # (the causal loop leaves nothing to drain).
        for node in self.nodes:
            if node.state != RETIRED:
                node.engine.drain()
        self._retire_drained()
        offered_log = self.driver.issued
        window_end = max(
            [query.arrival_s for query in offered_log]
            + [node.engine.completed[-1].finished_s
               for node in self.nodes if node.engine.completed])
        for node in self.nodes:
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
        admitted_total = sum(node.assigned for node in self.nodes)
        node_results = []
        for node in self.nodes:
            completed = node.engine.completed
            share = (node.assigned / admitted_total if admitted_total
                     else 0.0)
            report = summarize(completed, node.engine.metrics,
                               offered_qps * share)
            node_results.append((node, completed, report))

        if self.tracer is not None:
            self._trace_control_plane()
        self.driver.trace_requests(window_end)
        # Only a join grows the routing set, and every scaling event
        # records the live count after its transition.
        peak_live = max([len(self.cluster.spec.nodes)]
                        + [event.live_nodes for event in self.timeline])
        return rollup(
            offered=offered_log, node_results=node_results, shed=self.shed,
            deferrals=self.controller.deferrals if self.controller else 0,
            offered_qps=offered_qps, router=self.router.name,
            timeline=tuple(self.timeline), peak_live_nodes=peak_live,
            window=(self.start_s, window_end),
            pipelines=pipeline_rollup(self.driver.stream.pipelines),
            sessions=session_reports(self.driver.stream.tenants))

    def _trace_control_plane(self) -> None:
        """Record the scaling timeline and the per-tick signals.

        Appended once the serve has finished — identical data to inline
        emission, and the controller itself stays untouched by
        telemetry.  The ``fleet.signals`` counters follow
        :data:`repro.telemetry.tracer.FLEET_SIGNAL_FIELDS`, making a recorded
        trace double as an offline training set for learned routers
        (one sample per control tick, with the ``scale.*`` decisions
        interleaved by timestamp).
        """
        tracer = self.tracer
        for event in self.timeline:
            args = {"live_nodes": event.live_nodes}
            if event.reason:
                args["reason"] = event.reason
            tracer.event(f"scale.{event.action}", event.time_s,
                         cat="autoscale", node=event.node, args=args)
        if self.scaler is not None:
            for signal in self.scaler.signals:
                tracer.counter(
                    "fleet.signals", signal.time_s,
                    {field: getattr(signal, field)
                     for field in FLEET_SIGNAL_FIELDS})
