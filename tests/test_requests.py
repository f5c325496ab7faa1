"""Request-model tests: batching, completion hooks, pipelines, sessions.

Covers the PR 10 surface end to end on the light two-model stack:
engine-side dynamic batching (fusion mechanics, per-member attribution,
and the batching-off bit-identity guarantee), the ``on_complete`` hook
seam and :meth:`Engine.drain` ordering contract, pipeline hand-off on a
single node and shed-stage-fails-pipeline on a guarded cluster,
closed-loop determinism (double-run and fork-pool), trace record/replay
round-trips over realized feedback streams, the scenario registry's
request-model entries, and ``run_stream`` as a fleet of one (causal
fleet hand-offs, lazy proxy, traced pipelines).
"""

import math

import pytest

from repro.cluster import (
    AdmissionPolicy,
    Cluster,
    ClusterSpec,
    NodeSpec,
    homogeneous,
)
from repro.hardware.platform import EDGE_NODE_32
from repro.models.registry import get_entry
from repro.parallel import fork_worker_pool
from repro.runtime.engine import BatchPolicy, Engine
from repro.runtime.tasks import Query
from repro.scheduling.base import build_profile
from repro.serving import WorkloadSpec
from repro.serving.server import ServingStack
from repro.serving.workload import poisson_queries
from repro.telemetry import Tracer, summarize_trace, validate_trace
from repro.workloads import (
    SCENARIO_NAMES,
    ArrivalTrace,
    ClosedLoopSpec,
    ClosedLoopTenant,
    PipelineSpec,
    RequestStream,
    ScenarioSpec,
    get_scenario,
    record_trace,
)

_MIX = WorkloadSpec(name="req-mix", entries=(("mobilenet_v2", 2.0),
                                             ("googlenet", 1.0)))
_MONO = WorkloadSpec(name="req-mono", entries=(("mobilenet_v2", 1.0),))


def _loop_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="test-loop", workload=_MIX,
        closed_loop=ClosedLoopSpec(tenants=3, concurrency=2,
                                   think_s=0.005))


def _chain_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="test-chain",
        pipeline=PipelineSpec(name="mn-gn",
                              stages=("mobilenet_v2", "googlenet")))


def _guarded(stack) -> Cluster:
    return Cluster(stack, homogeneous(1),
                   admission=AdmissionPolicy(max_outstanding_per_core=0.05,
                                             max_defers=1))


def _report_key(report) -> tuple:
    """The fields a determinism test compares bit-exactly."""
    return (report.offered, report.admitted, report.completed,
            report.satisfied, report.shed,
            report.average_latency_s, report.p99_latency_s,
            tuple((s.session, s.issued, s.completed, s.satisfied, s.shed,
                   s.average_latency_s) for s in report.sessions))


# Fork-pool worker state: set before entering the pool (fork captures
# module globals by copy-on-write; nothing is pickled in).
_FORK_STATE = None


def _closed_loop_cell(seed: int) -> tuple:
    stack, count = _FORK_STATE
    stream = _loop_scenario().stream(stack.compiled, qps=0.0,
                                     count=count, seed=seed)
    return _report_key(_guarded(stack).serve_stream(stream))


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=1)
        with pytest.raises(ValueError, match="max_wait"):
            BatchPolicy(max_wait_s=-0.001)

    def test_batching_off_is_bit_identical(self, light_stack):
        queries = poisson_queries(light_stack.compiled, _MIX, qps=60.0,
                                  count=40, seed=13)
        legacy, _ = light_stack.run("veltair_full", queries)
        stream = RequestStream(
            queries=poisson_queries(light_stack.compiled, _MIX, qps=60.0,
                                    count=40, seed=13))
        outcome = light_stack.run_stream("veltair_full", stream)
        key = lambda qs: [(q.query_id, q.finished_s, q.core_seconds,
                           q.blocks) for q in qs]
        assert key(outcome.completed) == key(legacy)

    def test_fusion_and_member_attribution(self, light_stack):
        queries = poisson_queries(light_stack.compiled, _MONO, qps=2000.0,
                                  count=32, seed=5)
        for query in queries:
            query.qos_s *= 8.0
        engine = Engine(light_stack.cost_model,
                        price_cache=light_stack.price_cache,
                        batching=BatchPolicy(max_batch=4, max_wait_s=0.005))
        completed = engine.run(queries,
                               light_stack.make_scheduler("veltair_full"))
        # Every member completes individually, with its own latency.
        assert len(completed) == 32
        assert sorted(q.query_id for q in completed) == list(range(32))
        for query in completed:
            assert query.finished_s is not None
            assert query.finished_s > query.arrival_s
            assert query.batch == 1  # members stay unit-sized
            assert query.core_seconds > 0.0
        # Dense same-model arrivals actually fused: some batch closes
        # with >= 2 members, which then share one completion instant.
        finish_counts: dict[float, int] = {}
        for query in completed:
            finish_counts[query.finished_s] = (
                finish_counts.get(query.finished_s, 0) + 1)
        assert max(finish_counts.values()) >= 2
        # Completion order is the drain contract: nondecreasing finish.
        finishes = [q.finished_s for q in completed]
        assert finishes == sorted(finishes)
        assert engine.outstanding == 0


def _run_hooked(stack, queries, hook):
    """``stack.run("veltair_full", ...)`` with a completion hook."""
    engine = Engine(stack.cost_model, price_cache=stack.price_cache,
                    on_complete=hook)
    completed = engine.run(queries, stack.make_scheduler("veltair_full"))
    return completed, engine


class TestOnCompleteAndDrain:
    def test_hook_fires_per_completion_in_order(self, light_stack):
        queries = poisson_queries(light_stack.compiled, _MIX, qps=80.0,
                                  count=24, seed=9)
        seen: list[tuple[int, float, int]] = []

        def hook(engine, query):
            # The contract pinned by Engine.drain's docstring: the hook
            # fires immediately after the append, with engine.now at
            # the completion instant.
            assert engine.completed[-1] is query
            seen.append((query.query_id, engine.now,
                         len(engine.completed)))

        completed, engine = _run_hooked(light_stack, queries, hook)
        assert len(seen) == len(completed) == 24
        assert [qid for qid, _, _ in seen] == [q.query_id
                                               for q in completed]
        for (_, now, depth), query in zip(seen, completed):
            assert now == query.finished_s
        assert [depth for _, _, depth in seen] == list(range(1, 25))
        # Append-only, nondecreasing finish order.
        finishes = [q.finished_s for q in completed]
        assert finishes == sorted(finishes)

    def test_hook_can_submit_followups(self, light_stack):
        queries = poisson_queries(light_stack.compiled, _MIX, qps=80.0,
                                  count=12, seed=9)
        extra = {"sent": False}

        def hook(engine, query):
            if not extra["sent"]:
                extra["sent"] = True
                engine.submit(Query(
                    query_id=10_000,
                    model=light_stack.compiled["mobilenet_v2"],
                    arrival_s=engine.now,
                    qos_s=get_entry("mobilenet_v2").qos_s))

        completed, _ = _run_hooked(light_stack, queries, hook)
        assert len(completed) == 13
        assert any(q.query_id == 10_000 for q in completed)


class TestPipelines:
    def test_single_node_handoff(self, light_stack):
        stream = _chain_scenario().stream(light_stack.compiled, qps=30.0,
                                          count=6, seed=3)
        assert len(stream.pipelines) == 6 and not stream.tenants
        # Later stages are unscheduled until hand-off.
        for pipeline in stream.pipelines:
            assert math.isnan(pipeline.stages[1].arrival_s)
        outcome = light_stack.run_stream("veltair_full", stream)
        assert len(outcome.completed) == 12  # both stages of every chain
        assert len(outcome.issued) == 12
        for pipeline in outcome.pipelines:
            assert pipeline.done and not pipeline.failed
            stage0, stage1 = pipeline.stages
            # Stage k+1 was submitted the instant stage k completed.
            assert stage1.arrival_s == stage0.finished_s
            assert pipeline.finished_s == stage1.finished_s
            assert pipeline.latency_s >= (stage0.finished_s
                                          - stage0.arrival_s)
            assert pipeline.qos_s == stage0.qos_s + stage1.qos_s

    def test_fleet_handoff_enters_engine_at_completion(self, light_stack,
                                                       monkeypatch):
        # Every stage-1 query must reach its node's engine at its
        # stage-0 completion instant, not at the next serve event.
        entered = {}
        submit = Engine.submit

        def spy(engine, query, at=None):
            time = query.arrival_s if at is None else at
            entered[(query.query_id, query.stage)] = max(time, engine.now)
            submit(engine, query, at)

        monkeypatch.setattr(Engine, "submit", spy)
        stream = _chain_scenario().stream(light_stack.compiled, qps=30.0,
                                          count=20, seed=3)
        Cluster(light_stack, homogeneous(2)).serve_stream(stream)
        for pipeline in stream.pipelines:
            stage0, stage1 = pipeline.stages
            assert entered[(stage1.query_id, 1)] == stage0.finished_s
            assert stage1.arrival_s == stage0.finished_s

    def test_traced_run_stream_validates(self, light_stack):
        stream = _chain_scenario().stream(light_stack.compiled, qps=30.0,
                                          count=20, seed=3)
        tracer = Tracer(run_id="chain")
        outcome = light_stack.run_stream("veltair_full", stream,
                                         tracer=tracer)
        trace = tracer.trace()
        assert validate_trace(trace) == []
        assert len(trace.spans("pipeline")) == 20
        summary = summarize_trace(trace)
        assert summary.completed == len(outcome.completed) == 40
        overall = summary.overall
        # Each stage is charged its own blocks only.
        assert (overall.queue_s + overall.execute_s
                + overall.inter_block_s) == pytest.approx(overall.latency_s,
                                                         rel=1e-9)

    def test_shed_stage_fails_pipeline(self, light_stack):
        stream = _chain_scenario().stream(light_stack.compiled, qps=800.0,
                                          count=16, seed=3)
        report = _guarded(light_stack).serve_stream(stream,
                                                    offered_qps=800.0)
        rollup = report.pipelines
        assert rollup is not None and rollup.offered == 16
        assert rollup.failed >= 1, "overload must shed at least one stage"
        assert rollup.completed + rollup.failed == 16
        for pipeline in stream.pipelines:
            assert pipeline.done
            if pipeline.failed:
                assert pipeline.shed_stage is not None
                assert pipeline.finished_s is None
                assert not pipeline.satisfied
                # No stage after the shed one ever ran.
                for stage in pipeline.stages[pipeline.shed_stage:]:
                    assert stage.finished_s is None
        assert rollup.failed == sum(p.failed for p in stream.pipelines)


class TestClosedLoop:
    def test_feedback_accounting(self, light_stack):
        stream = _loop_scenario().stream(light_stack.compiled, qps=0.0,
                                         count=30, seed=11)
        assert len(stream.tenants) == 3 and not stream.pipelines
        report = _guarded(light_stack).serve_stream(stream)
        # Closed loop: every issued request is offered exactly once,
        # and sheds hand control back (the tenant issues its next).
        assert report.offered == 30
        assert report.admitted + report.shed == 30
        assert len(report.sessions) == 3
        assert sum(s.issued for s in report.sessions) == 30
        for session, tenant in zip(report.sessions, stream.tenants):
            assert session.session == tenant.session
            assert session.issued == len(tenant.issued)
            assert session.completed + session.shed == session.issued
            assert tenant.remaining == 0

    def test_tenant_sequence_is_interleaving_independent(self, light_stack):
        def draws(order):
            tenant = ClosedLoopTenant(
                session=4, compiled=light_stack.compiled, workload=_MIX,
                qos_for=lambda name: get_entry(name).qos_s,
                budget=8, concurrency=2, think_s=0.001, base_seed=11)
            out = [q.model.name for q in tenant.initial_requests()]
            for now in order:
                query = tenant.next_request(now)
                if query is not None:
                    out.append(query.model.name)
            return out

        # Different runtime interleavings, same per-tenant rng stream.
        assert draws([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]) == \
            draws([0.05, 0.9, 1.1, 1.15, 2.0, 3.0])

    def test_double_run_bit_identical(self, light_stack):
        keys = []
        for _ in range(2):
            stream = _loop_scenario().stream(light_stack.compiled, qps=0.0,
                                             count=30, seed=11)
            keys.append(_report_key(_guarded(light_stack)
                                    .serve_stream(stream)))
        assert keys[0] == keys[1]

    def test_fork_pool_matches_serial(self, light_stack):
        global _FORK_STATE
        _FORK_STATE = (light_stack, 30)
        serial = _closed_loop_cell(11)  # also pre-warms lazy artifacts
        with fork_worker_pool(2) as pool:
            if pool is None:
                pytest.skip("platform without fork")
            forked = pool.map(_closed_loop_cell, [11])[0]
        _FORK_STATE = None
        assert forked == serial


class TestTraceRoundTrip:
    def test_closed_loop_record_replay(self, light_stack, tmp_path):
        stream = _loop_scenario().stream(light_stack.compiled, qps=0.0,
                                         count=24, seed=7)
        cluster = Cluster(light_stack, homogeneous(1))
        cluster.serve_stream(stream)
        assert cluster.last_offered is not None
        assert len(cluster.last_offered) == 24
        trace = record_trace(cluster.last_offered, name="loop-trace",
                             meta={"scenario": "test-loop"})
        loaded = ArrivalTrace.load(trace.save(tmp_path / "loop.json"))
        key = lambda qs: [(q.arrival_s, q.model.name, q.qos_s)
                          for q in qs]
        replayed = trace.replay(light_stack.compiled)
        assert key(replayed) == key(loaded.replay(light_stack.compiled))
        # The realized feedback stream replays open-loop: reports from
        # two independent replays are bit-identical.
        reports = [
            _report_key(Cluster(light_stack, homogeneous(1))
                        .serve(loaded.replay(light_stack.compiled)))
            for _ in range(2)]
        assert reports[0] == reports[1]
        assert reports[0][2] == 24  # all replayed arrivals complete

    def test_pipeline_record_replay(self, light_stack, tmp_path):
        stream = _chain_scenario().stream(light_stack.compiled, qps=30.0,
                                          count=5, seed=3)
        outcome = light_stack.run_stream("veltair_full", stream)
        trace = record_trace(outcome.issued, name="chain-trace")
        assert len(trace.entries) == 10  # both stages, realized arrivals
        loaded = ArrivalTrace.load(trace.save(tmp_path / "chain.json"))
        replayed = loaded.replay(light_stack.compiled)
        assert [e.model for e in loaded.entries] == \
            [q.model.name for q in replayed]
        completed, _ = light_stack.run("veltair_full", replayed)
        assert len(completed) == 10
        assert all(q.finished_s is not None for q in completed)


class TestScenarioRegistry:
    def test_request_model_entries_registered(self):
        assert "agent_loop" in SCENARIO_NAMES
        assert "vision_pipeline" in SCENARIO_NAMES
        assert len(SCENARIO_NAMES) == 12
        loop = get_scenario("agent_loop")
        assert loop.request_model and loop.closed_loop.tenants == 6
        chain = get_scenario("vision_pipeline")
        assert chain.request_model
        assert chain.pipeline.stages == ("ssd_resnet34", "resnet50")

    def test_queries_raises_for_request_model(self, light_stack):
        with pytest.raises(ValueError, match="request model"):
            _loop_scenario().queries(light_stack.compiled, qps=10.0,
                                     count=4, seed=1)

    def test_open_loop_sweeps_reject_request_model(self, light_stack):
        from repro.serving.experiments import sweep_qps
        with pytest.raises(ValueError, match="request model"):
            sweep_qps(light_stack, "veltair_full", _MIX, [10.0], count=4,
                      scenario="agent_loop")


class TestFleetOfOne:
    def test_empty_stream_rejected(self, light_stack):
        with pytest.raises(ValueError, match="empty stream"):
            light_stack.run_stream("veltair_full", RequestStream())

    def test_non_proxy_policy_skips_proxy_fit(self, proxy_fits):
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             proxy_scenarios=60, artifact_store=None)
        outcome = stack.run_stream("layerwise", RequestStream(
            queries=poisson_queries(stack.compiled, _MONO, qps=40.0,
                                    count=6, seed=2)))
        assert len(outcome.completed) == 6
        # layerwise and round_robin never read the proxy: the fleet of
        # one must not pay its fit.
        assert proxy_fits == []

    def test_foreign_runtime_is_lazy(self, proxy_fits):
        """Every device's runtime fits its proxy on first read only."""
        stack = ServingStack(models=["mobilenet_v2"], trials=64, seed=7,
                             proxy_scenarios=60, artifact_store=None)

        def serve(policy: str) -> None:
            fleet = ClusterSpec(name="edge+own", nodes=(
                NodeSpec(name="edge", device=EDGE_NODE_32, policy=policy),
                NodeSpec(name="own", device=stack.cpu, policy=policy)))
            report = Cluster(stack, fleet, router="round_robin").serve(
                poisson_queries(stack.compiled, _MONO, qps=40.0, count=6,
                                seed=2))
            assert report.completed == 6

        # Neither layerwise nor round_robin reads a proxy, so neither
        # the foreign device nor the stack's own pays a fit.
        serve("layerwise")
        assert proxy_fits == []
        # veltair_full reads each node's proxy: one fit per device,
        # memoised across serves.
        serve("veltair_full")
        assert len(proxy_fits) == 2
        serve("veltair_full")
        assert len(proxy_fits) == 2


class TestBatchProfiles:
    def test_budgets_scale_with_batch(self, light_stack):
        unit = light_stack.profiles["mobilenet_v2"]
        fat = build_profile(light_stack.cost_model, unit.compiled, 4)
        assert fat.layer_budgets_s == tuple(b * 4
                                            for b in unit.layer_budgets_s)
        assert fat.isolated_service_s > unit.isolated_service_s
        assert fat.static_versions == unit.static_versions
        assert build_profile(light_stack.cost_model, unit.compiled,
                             1) == unit

    def test_profile_for_memoises_per_batch(self, light_stack):
        scheduler = light_stack.make_scheduler("veltair_full")
        compiled = light_stack.compiled["mobilenet_v2"]
        unit = Query(query_id=0, model=compiled, arrival_s=0.0,
                     qos_s=get_entry("mobilenet_v2").qos_s)
        fused = Query(query_id=1, model=compiled, arrival_s=0.0,
                      qos_s=get_entry("mobilenet_v2").qos_s, batch=4)
        assert scheduler.profile_for(unit) is \
            light_stack.profiles["mobilenet_v2"]
        first = scheduler.profile_for(fused)
        assert first is scheduler.profile_for(fused)
        assert first is not scheduler.profile_for(unit)
        assert first.layer_budgets_s[0] == \
            4 * scheduler.profile_for(unit).layer_budgets_s[0]
