"""Generalized request model: closed-loop sessions and pipeline chains.

The open-loop :class:`~repro.runtime.tasks.Query` stream is drawn up
front, submitted once, and completed or shed — so feedback effects (the
regime where admission control, autoscaling, and adaptive scheduling
earn their keep) never appear.  This module adds the missing half:

* :class:`ClosedLoopTenant` — a session with fixed concurrency that
  issues its next request only when one completes (or is shed), so slow
  or shed queries *reduce* offered load instead of vanishing.  Driven
  through the engine/cluster completion-hook seam
  (``Engine.on_complete``).
* :class:`PipelineQuery` — a model chain (e.g. detector → classifier)
  expressed as staged resource requirements: stage *k+1* is submitted
  when stage *k* completes, the QoS budget is apportioned across
  stages, and a shed stage fails the whole pipeline's QoS.
* :class:`RequestStream` — what a request-model scenario emits instead
  of a flat query list; drivers dispatch on :attr:`RequestStream.interactive`.
* :class:`RequestDriver` — the request-model bookkeeping the one serve
  loop (:meth:`repro.cluster.fleet.Cluster.serve_stream`) drives.

Determinism: every tenant owns its own generator seeded
``base_seed + session`` (so per-session draws are independent of issue
interleaving), and stage/request query ids are derived arithmetically —
no global counters, no wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.compiler.library import CompiledModel
from repro.config import make_rng
from repro.runtime.tasks import Query
from repro.serving.workload import WorkloadSpec

#: Session ids partition the query-id space: request ``serial`` of
#: session ``s`` gets qid ``s * _SESSION_STRIDE + serial``.  Keeps qids
#: unique and self-describing across tenants without a global counter.
_SESSION_STRIDE = 10**6


@dataclass(frozen=True)
class PipelineSpec:
    """A model chain run as one logical request.

    ``stages`` are model names executed in order; the pipeline's total
    QoS budget is the sum of per-stage budgets (each stage's scenario
    QoS times ``qos_scale``), so the apportionment is explicit and a
    stage that overruns its share can still be rescued by a fast
    successor.
    """

    name: str
    stages: tuple[str, ...]
    qos_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.stages) < 2:
            raise ValueError(
                f"pipeline {self.name!r} needs >= 2 stages")
        if self.qos_scale <= 0:
            raise ValueError(
                f"pipeline {self.name!r}: qos_scale must be positive")


@dataclass
class PipelineQuery:
    """One in-flight pipeline request: a chain of stage queries.

    Every stage :class:`~repro.runtime.tasks.Query` carries the
    pipeline's id as its ``query_id`` (the qid link telemetry and
    reports join on) and its stage index in ``stage``.  Stage 0's
    arrival is the pipeline arrival; later stages get their
    ``arrival_s`` stamped at hand-off time, so per-stage latency is
    measured from when the stage became runnable.
    """

    pipeline_id: int
    spec: PipelineSpec
    stages: tuple[Query, ...]
    arrival_s: float
    #: Total end-to-end budget (sum of per-stage budgets).
    qos_s: float
    session: int | None = None
    #: Index of the first stage not yet completed.
    next_stage: int = 0
    finished_s: float | None = None
    #: Stage index shed by admission, or None.  A shed stage fails the
    #: whole pipeline (no later stage runs, QoS counted as missed).
    shed_stage: int | None = None

    @property
    def done(self) -> bool:
        return self.finished_s is not None or self.shed_stage is not None

    @property
    def failed(self) -> bool:
        return self.shed_stage is not None

    @property
    def latency_s(self) -> float:
        if self.finished_s is None:
            raise ValueError(f"pipeline {self.pipeline_id} not finished")
        return self.finished_s - self.arrival_s

    @property
    def satisfied(self) -> bool:
        return (self.finished_s is not None
                and self.shed_stage is None
                and self.latency_s <= self.qos_s)


def build_pipeline(compiled: Mapping[str, CompiledModel],
                   spec: PipelineSpec, pipeline_id: int, arrival_s: float,
                   qos_for: Callable[[str], float],
                   session: int | None = None) -> PipelineQuery:
    """Materialise one pipeline request's stage queries.

    ``qos_for`` maps a model name to its scenario QoS budget; each
    stage's budget is that times ``spec.qos_scale``.  Only stage 0 gets
    the pipeline arrival — later stages' ``arrival_s`` is stamped by
    the driver at hand-off.
    """
    stages = []
    total_qos = 0.0
    for index, name in enumerate(spec.stages):
        budget = qos_for(name) * spec.qos_scale
        total_qos += budget
        stages.append(Query(
            query_id=pipeline_id,
            model=compiled[name],
            arrival_s=arrival_s if index == 0 else float("nan"),
            qos_s=budget,
            session=session,
            stage=index,
        ))
    return PipelineQuery(
        pipeline_id=pipeline_id, spec=spec, stages=tuple(stages),
        arrival_s=arrival_s, qos_s=total_qos, session=session)


@dataclass(frozen=True)
class ClosedLoopSpec:
    """Shape of a closed-loop scenario: tenants x concurrency x think."""

    tenants: int = 4
    concurrency: int = 2
    #: Pause between a completion and the tenant's next issue.
    think_s: float = 0.0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if not self.think_s >= 0:
            raise ValueError("think_s must be >= 0")


class ClosedLoopTenant:
    """One closed-loop session: fixed concurrency, completion-driven.

    The tenant starts ``concurrency`` requests at ``start_s`` and
    issues the next one only when a completion (or shed) hands control
    back — the feedback loop open-loop traces can't express.  Each
    tenant draws its models from its own generator seeded
    ``base_seed + session``, so a tenant's request sequence is
    reproducible regardless of how sessions interleave at runtime.
    """

    def __init__(self, session: int, compiled: Mapping[str, CompiledModel],
                 workload: WorkloadSpec,
                 qos_for: Callable[[str], float],
                 budget: int, concurrency: int,
                 think_s: float = 0.0, base_seed: int | None = None,
                 start_s: float = 0.0) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.session = session
        self.compiled = compiled
        self.workload = workload
        self.qos_for = qos_for
        #: Requests this tenant may still issue (issued counts down).
        self.remaining = budget
        self.concurrency = concurrency
        self.think_s = think_s
        self.start_s = start_s
        seed = (base_seed or 0) + session
        self._rng = make_rng(seed)
        self._serial = 0
        #: Requests issued / completed / satisfied / shed, for rollups.
        self.issued: list[Query] = []
        self.completed = 0
        self.satisfied = 0
        self.shed = 0

    def _draw(self, arrival_s: float) -> Query:
        index = int(self._rng.choice(len(self.workload.models),
                                     p=self.workload.probabilities()))
        name = self.workload.models[index]
        query = Query(
            query_id=self.session * _SESSION_STRIDE + self._serial,
            model=self.compiled[name],
            arrival_s=arrival_s,
            qos_s=self.qos_for(name),
            session=self.session,
        )
        self._serial += 1
        self.remaining -= 1
        self.issued.append(query)
        return query

    def initial_requests(self, start_s: float | None = None) -> list[Query]:
        """The first ``concurrency`` requests, all arriving at start."""
        at = self.start_s if start_s is None else start_s
        return [self._draw(at)
                for _ in range(min(self.concurrency, self.remaining))]

    def next_request(self, now: float) -> Query | None:
        """The follow-up issued by a completion at ``now``, if any."""
        if self.remaining <= 0:
            return None
        return self._draw(now + self.think_s)

    def observe(self, query: Query, shed: bool = False) -> None:
        """Account one of this tenant's requests reaching an outcome."""
        if shed:
            self.shed += 1
            return
        self.completed += 1
        if query.satisfied:
            self.satisfied += 1


@dataclass
class RequestStream:
    """What a request-model scenario emits instead of a flat list.

    ``queries`` are plain open-loop arrivals (empty for closed-loop
    scenarios), ``pipelines`` the staged requests, ``tenants`` the
    closed-loop sessions.  :attr:`interactive` tells a driver whether
    the stream needs the completion-hook machinery at all — a stream
    with only ``queries`` runs on the legacy open-loop path untouched.
    """

    queries: list[Query] = field(default_factory=list)
    pipelines: list[PipelineQuery] = field(default_factory=list)
    tenants: list[ClosedLoopTenant] = field(default_factory=list)

    @property
    def interactive(self) -> bool:
        return bool(self.pipelines) or bool(self.tenants)


class RequestDriver:
    """Request-model bookkeeping for one serve of a :class:`RequestStream`.

    The serve loop owns time, admission and routing; the driver owns
    what a request outcome means.  :attr:`issued` starts with the
    stream's opening offers; :meth:`on_complete` (the engines'
    completion hook) and :meth:`on_shed` hand pipeline stages off, fail
    shed pipelines and feed closed-loop tenants.  Every follow-up is
    appended to :attr:`issued` and passed to ``offer``, which routes it
    like any arrival at its ``arrival_s``.
    """

    def __init__(self, stream: RequestStream,
                 offer: Callable[[Query], None], tracer=None) -> None:
        self.stream = stream
        self._offer = offer
        self.tracer = tracer
        # Stage queries carry their pipeline's id as query_id.
        self._pipelines = {pipeline.pipeline_id: pipeline
                           for pipeline in stream.pipelines}
        self._tenants = {tenant.session: tenant for tenant in stream.tenants}
        #: Every stage-level query issued so far, in issue order, with
        #: realized arrival times.
        self.issued: list[Query] = list(stream.queries)
        self.issued.extend(pipeline.stages[0] for pipeline in stream.pipelines)
        for tenant in stream.tenants:
            self.issued.extend(tenant.initial_requests())

    def _pipeline(self, query: Query) -> PipelineQuery | None:
        return (self._pipelines.get(query.query_id)
                if query.stage is not None else None)

    def _feed_tenant(self, query: Query, now: float, shed: bool) -> None:
        tenant = self._tenants.get(query.session)
        if tenant is None:
            return
        tenant.observe(query, shed=shed)
        follow = tenant.next_request(now)
        if follow is not None:
            self.issued.append(follow)
            self._offer(follow)

    def on_complete(self, engine, query: Query) -> None:
        """Engine completion hook; ``engine.now`` is the completion instant."""
        pipeline = self._pipeline(query)
        if pipeline is None:
            self._feed_tenant(query, engine.now, shed=False)
            return
        pipeline.next_stage = query.stage + 1
        if pipeline.next_stage >= len(pipeline.stages):
            pipeline.finished_s = engine.now
            return
        handoff = pipeline.stages[pipeline.next_stage]
        handoff.arrival_s = engine.now
        self.issued.append(handoff)
        self._offer(handoff)

    def on_shed(self, query: Query, now: float) -> None:
        """Admission shed ``query`` at ``now``."""
        pipeline = self._pipeline(query)
        if pipeline is None:
            # Shedding hands control back to the tenant too — its next
            # request still issues, so a shedding fleet sees reduced
            # load, not a frozen session.
            self._feed_tenant(query, now, shed=True)
            return
        # A shed stage fails the whole pipeline: no later stage runs,
        # its QoS counts as missed.
        pipeline.shed_stage = query.stage
        if self.tracer is not None:
            self.tracer.event("pipeline.failed", now, cat="pipeline",
                              qid=pipeline.pipeline_id,
                              args={"stage": query.stage})

    def trace_requests(self, window_end: float) -> None:
        """Emit the request-level spans once the serve has finished.

        ``pipeline:`` spans share their stage queries' qid (the
        pipeline id); ``session:`` spans carry the tenant's first qid.
        """
        tracer = self.tracer
        if tracer is None:
            return
        for pipeline in self.stream.pipelines:
            end = (pipeline.finished_s if pipeline.finished_s is not None
                   else window_end)
            tracer.span(
                f"pipeline:{pipeline.spec.name}", pipeline.arrival_s,
                end - pipeline.arrival_s, cat="pipeline",
                qid=pipeline.pipeline_id,
                args={"stages": len(pipeline.stages),
                      "satisfied": pipeline.satisfied,
                      "failed": pipeline.failed})
        for tenant in self.stream.tenants:
            if not tenant.issued:
                continue
            first = min(q.arrival_s for q in tenant.issued)
            last = max((q.finished_s if q.finished_s is not None
                        else q.arrival_s) for q in tenant.issued)
            tracer.span(
                f"session:{tenant.session}", first, last - first,
                cat="session", qid=tenant.issued[0].query_id,
                args={"issued": len(tenant.issued),
                      "completed": tenant.completed,
                      "satisfied": tenant.satisfied,
                      "shed": tenant.shed})
