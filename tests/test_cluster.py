"""Cluster subsystem tests: specs, routers, admission, fleet driver,
and the engine's incremental-driving hooks the fleet rides on."""

import gc
import struct
import weakref
import zlib

import pytest

from repro.cluster import (
    ROUTERS,
    AdmissionPolicy,
    AutoscalePolicy,
    Cluster,
    ClusterSpec,
    NodeSpec,
    cluster_capacity,
    fleet_pressure,
    homogeneous,
    make_router,
    mixed_fleet,
)
from repro.hardware.platform import (
    EDGE_NODE_32,
    PRODUCTION_SERVER_256,
    THREADRIPPER_3990X,
)
from repro.runtime.engine import Engine
from repro.scheduling.veltair import VeltairScheduler
from repro.serving.workload import WorkloadSpec, poisson_queries
from repro.workloads import (
    ClosedLoopSpec,
    PipelineSpec,
    RequestStream,
    ScenarioSpec,
)

MIX = WorkloadSpec(name="mix2", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))
MIX21 = WorkloadSpec(name="mix21", entries=(("mobilenet_v2", 2.0),
                                            ("googlenet", 1.0)))


class TestClusterSpec:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            ClusterSpec(name="x", nodes=())

    def test_rejects_duplicate_node_names(self):
        node = NodeSpec(name="a", device=THREADRIPPER_3990X)
        with pytest.raises(ValueError):
            ClusterSpec(name="x", nodes=(node, node))

    def test_rejects_empty_node_name(self):
        with pytest.raises(ValueError):
            NodeSpec(name="", device=THREADRIPPER_3990X)

    def test_homogeneous(self):
        spec = homogeneous(3)
        assert len(spec) == 3
        assert spec.total_cores == 3 * 64
        assert spec.device_specs == (THREADRIPPER_3990X,)
        with pytest.raises(ValueError):
            homogeneous(0)

    def test_mixed_fleet_shape(self):
        spec = mixed_fleet()
        assert len(spec) == 4
        assert spec.total_cores == 64 + 64 + 256 + 32
        assert spec.device_specs == (THREADRIPPER_3990X,
                                     PRODUCTION_SERVER_256, EDGE_NODE_32)


class _StubEngine:
    def __init__(self, queued: int, running: int) -> None:
        self.queued = queued
        self.outstanding = queued + running


class _StubNode:
    def __init__(self, index: int, cores: int, queued: int = 0,
                 running: int = 0, pressure: float = 0.0) -> None:
        self.index = index
        self.cores = cores
        self.engine = _StubEngine(queued, running)
        self._pressure = pressure

    def pressure_estimate(self) -> float:
        return self._pressure


class _StubQuery:
    def __init__(self, qos_s: float) -> None:
        self.qos_s = qos_s


class TestRouters:
    def test_registry_constructs_all(self):
        for name in ROUTERS:
            assert make_router(name).name == name
        with pytest.raises(ValueError):
            make_router("teleport")

    def test_round_robin_cycles(self):
        router = make_router("round_robin")
        nodes = [_StubNode(i, 64) for i in range(3)]
        picks = [router.choose(nodes, _StubQuery(0.01), 0.0).index
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_counts_running(self):
        nodes = [_StubNode(0, 64, queued=0, running=5),
                 _StubNode(1, 64, queued=2, running=0)]
        assert make_router("least_outstanding").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1
        # JSQ ignores executing queries: node 0 looks idle.
        assert make_router("join_shortest_queue").choose(
            nodes, _StubQuery(0.01), 0.0).index == 0

    def test_pressure_aware_prefers_quiet_node(self):
        nodes = [_StubNode(0, 64, queued=1, pressure=0.8),
                 _StubNode(1, 64, queued=1, pressure=0.1)]
        assert make_router("pressure_aware").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1

    def test_pressure_aware_width_normalises_depth(self):
        # Equal pressure, equal backlog: the wide node has the lower
        # per-width depth and takes the query.
        nodes = [_StubNode(0, 64, queued=8, pressure=0.2),
                 _StubNode(1, 256, queued=8, pressure=0.2)]
        assert make_router("pressure_aware").choose(
            nodes, _StubQuery(0.01), 0.0).index == 1

    def test_pressure_aware_urgency_weighting(self):
        # Tight-QoS queries avoid the pressured node even when it has
        # the shorter queue; loose-QoS queries take the short queue.
        nodes = [_StubNode(0, 64, queued=1, pressure=0.6),
                 _StubNode(1, 64, queued=3, pressure=0.0)]
        router = make_router("pressure_aware")
        assert router.choose(nodes, _StubQuery(0.010), 0.0).index == 1
        assert router.choose(nodes, _StubQuery(0.130), 0.0).index == 0


class TestIncrementalDrive:
    """begin/submit/run_until/drain must replay run() exactly."""

    def test_feeding_matches_run(self, light_stack):
        queries_a = poisson_queries(light_stack.compiled, MIX, 250, 60,
                                    seed=4)
        queries_b = poisson_queries(light_stack.compiled, MIX, 250, 60,
                                    seed=4)
        engine_a = Engine(light_stack.cost_model,
                          price_cache=light_stack.price_cache)
        done_a = engine_a.run(queries_a,
                              light_stack.make_scheduler("veltair_full"))

        engine_b = Engine(light_stack.cost_model,
                          price_cache=light_stack.price_cache)
        engine_b.begin([], light_stack.make_scheduler("veltair_full"))
        for query in sorted(queries_b, key=lambda q: (q.arrival_s,
                                                      q.query_id)):
            engine_b.run_until(query.arrival_s)
            engine_b.submit(query)
        done_b = engine_b.drain()

        assert len(done_a) == len(done_b) == 60
        finished_a = {q.query_id: q.finished_s for q in done_a}
        finished_b = {q.query_id: q.finished_s for q in done_b}
        assert finished_a == pytest.approx(finished_b)

    def test_submit_never_rewinds_the_clock(self, light_stack):
        queries = poisson_queries(light_stack.compiled, MIX, 100, 4,
                                  seed=1)
        engine = Engine(light_stack.cost_model,
                        price_cache=light_stack.price_cache)
        engine.begin([], light_stack.make_scheduler("veltair_full"))
        engine.submit(queries[0])       # something to advance through
        engine.run_until(10.0)
        assert engine.now == 10.0
        late = queries[1]
        late.arrival_s = 1.0  # already in the past
        engine.submit(late)
        engine.drain()
        assert late.started_s >= 10.0

    def test_drive_requires_scheduler(self, light_stack):
        engine = Engine(light_stack.cost_model)
        with pytest.raises(RuntimeError):
            engine.drain()

    def test_quantize_pressure(self, light_stack):
        """Pricing resolves a fixed 0.05 pressure grid."""
        engine = Engine(light_stack.cost_model)
        assert engine.quantize_pressure(0.237) == pytest.approx(0.25)
        assert engine.quantize_pressure(0.224) == pytest.approx(0.2)
        assert engine.quantize_pressure(0.02) == 0.0
        assert engine.quantize_pressure(0.0) == 0.0
        assert engine.quantize_pressure(5.0) == 1.0

    def test_planning_pressure_uses_engine_quantum(self, light_stack):
        """Satellite fix: no more hard-coded round(estimate, 2)."""
        scheduler = VeltairScheduler(light_stack.cost_model,
                                     light_stack.profiles, proxy=None)
        engine = Engine(light_stack.cost_model)
        engine.pressure = lambda: 0.237
        # round(, 2) would give 0.24; the 0.05 grid gives 0.25.
        assert scheduler.planning_pressure(engine) == pytest.approx(0.25)


class TestClusterServe:
    def test_reconciles_exactly(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2),
                          router="pressure_aware")
        report = cluster.report(MIX, qps=300, count=80, seed=3)
        assert report.offered == 80
        assert report.shed == 0
        assert report.admitted == sum(n.assigned for n in report.nodes)
        assert report.completed == sum(n.completed for n in report.nodes)
        assert report.satisfied == sum(n.satisfied for n in report.nodes)
        assert report.offered == report.admitted + report.shed
        assert report.completed == 80  # nothing lost without admission

    def test_round_robin_splits_evenly(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2), router="round_robin")
        report = cluster.report(MIX, qps=300, count=81, seed=3)
        assigned = sorted(n.assigned for n in report.nodes)
        assert assigned == [40, 41]
        assert report.load_imbalance == pytest.approx(41 / 40.5)

    def test_deterministic_per_seed(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2),
                          router="pressure_aware")
        first = cluster.report(MIX, qps=300, count=60, seed=9)
        second = cluster.report(MIX, qps=300, count=60, seed=9)
        assert first == second

    def test_pressure_aware_respects_width(self, light_stack):
        spec = ClusterSpec(name="het", nodes=(
            NodeSpec(name="small", device=EDGE_NODE_32),
            NodeSpec(name="big", device=THREADRIPPER_3990X)))
        cluster = Cluster(light_stack, spec, router="pressure_aware")
        report = cluster.report(MIX, qps=350, count=120, seed=3)
        by_name = {n.name: n for n in report.nodes}
        # 2/3 of the cores live on the big node; a width-aware router
        # must send it clearly more than the 50% a blind split would.
        assert by_name["big"].assigned > 0.55 * report.admitted

    def test_shared_artifacts_single_compile(self, light_stack):
        spec = ClusterSpec(name="het", nodes=(
            NodeSpec(name="small", device=EDGE_NODE_32),
            NodeSpec(name="big", device=THREADRIPPER_3990X)))
        Cluster(light_stack, spec).report(MIX, qps=200, count=40, seed=3)
        assert light_stack.artifact_builds == 1
        # Per-CPU runtimes are memoised and the reference CPU reuses the
        # stack's own cache; foreign CPUs get their own (prices are
        # bound to one cost model and cannot be shared across widths).
        reference = light_stack.runtime_for(light_stack.cpu)
        assert reference.price_cache is light_stack.price_cache
        edge = light_stack.runtime_for(EDGE_NODE_32)
        assert edge is light_stack.runtime_for(EDGE_NODE_32)
        assert edge.price_cache is not light_stack.price_cache
        assert edge.profiles.keys() == light_stack.profiles.keys()

    @pytest.mark.parametrize("policy", ["layerwise", "veltair_full"])
    def test_fleet_of_one_matches_run(self, light_stack, policy):
        """A one-node round_robin fleet is ServingStack.run, bit for bit."""
        def queries():
            return poisson_queries(light_stack.compiled, MIX, 250, 60,
                                   seed=4)

        completed, engine = light_stack.run(policy, queries())
        cluster = Cluster(light_stack, homogeneous(1, policy=policy),
                          router="round_robin")
        cluster.serve(queries())
        (node,) = cluster.last_nodes
        assert ([(q.query_id, q.finished_s) for q in node.engine.completed]
                == [(q.query_id, q.finished_s) for q in completed])
        assert (node.engine.metrics.usage_core_seconds
                == engine.metrics.usage_core_seconds)

    def test_serve_rejects_empty_stream(self, light_stack):
        with pytest.raises(ValueError):
            Cluster(light_stack, homogeneous(1)).serve([])

    def test_finished_serve_frees_its_engines(self, light_stack):
        """No reference cycle outlives a serve: once ``last_nodes`` is
        dropped, its engines are freed without the cyclic collector."""
        loop = ScenarioSpec(name="free-loop", workload=MIX,
                            closed_loop=ClosedLoopSpec(tenants=2,
                                                       concurrency=2))
        streams = (RequestStream(queries=poisson_queries(
                       light_stack.compiled, MIX, 300, 40, seed=3)),
                   loop.stream(light_stack.compiled, qps=0.0, count=20,
                               seed=3))
        cluster = Cluster(light_stack, homogeneous(2))
        for stream in streams:
            gc.collect()
            gc.disable()
            try:
                cluster.serve_stream(stream)
                engines = [weakref.ref(node.engine)
                           for node in cluster.last_nodes]
                cluster.last_nodes = None
                assert all(engine() is None for engine in engines)
            finally:
                gc.enable()


class TestAdmission:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_fleet_pressure=1.5)
        with pytest.raises(ValueError):
            AdmissionPolicy(mode="panic")
        with pytest.raises(ValueError):
            AdmissionPolicy(defer_s=0.0)

    def test_shed_mode_bounds_backlog(self, light_stack):
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="shed")
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.shed > 0
        assert report.admitted >= 1  # an idle fleet always admits
        assert report.offered == report.admitted + report.shed
        assert report.completed == report.admitted
        assert report.shed_rate == pytest.approx(report.shed / 120)
        # Shed queries are QoS violations: satisfaction is measured
        # against everything offered, not just what got in.
        assert report.satisfaction_rate <= report.satisfied / max(
            1, report.admitted)

    def test_defer_mode_retries_then_sheds(self, light_stack):
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=2)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.deferrals > 0
        assert report.offered == report.admitted + report.shed
        assert report.completed == report.admitted

    def test_fleet_pressure_core_weighted(self):
        nodes = [_StubNode(0, 64, pressure=1.0),
                 _StubNode(1, 192, pressure=0.0)]
        assert fleet_pressure(nodes) == pytest.approx(0.25)

    def test_node_offered_share_divides_by_admitted(self, light_stack):
        """Satellite fix: per-node offered QPS shares what was admitted.

        Shed queries never reach a node; dividing a node's share by the
        full offered count under-stated every node's load whenever the
        controller shed, and the per-node rates no longer summed to the
        fleet rate.
        """
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="shed")
        cluster = Cluster(light_stack, homogeneous(2),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        assert report.shed > 0
        assert sum(n.report.offered_qps for n in report.nodes) == (
            pytest.approx(report.offered_qps))

    def test_defer_accounting_and_reoffer_ordering(self, light_stack,
                                                   monkeypatch):
        """Defer -> shed bookkeeping plus the offer heap's ordering.

        Every decision the controller makes is recorded: deferred
        queries must be re-offered exactly ``defer_s`` later with the
        attempt count bumped, interleaved in time order with later
        arrivals, and the report's ``deferrals``/``shed``/``admitted``
        counts must equal the recorded decision stream.
        """
        from repro.cluster.admission import AdmissionController

        log = []

        class Recorder(AdmissionController):
            def decide(self, nodes, query, attempts):
                decision = super().decide(nodes, query, attempts)
                log.append((query.query_id, attempts, decision))
                return decision

        instances = []

        class Tracked(Recorder):
            def __init__(self, policy):
                super().__init__(policy)
                instances.append(self)

        monkeypatch.setattr("repro.cluster.fleet.AdmissionController",
                            Tracked)
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=2)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        report = cluster.report(MIX, qps=800, count=120, seed=3)
        (controller,) = instances

        decisions = [entry[2] for entry in log]
        assert report.deferrals == controller.deferrals == (
            decisions.count("defer"))
        assert report.shed == decisions.count("shed")
        assert report.admitted == decisions.count("admit")
        assert report.offered == report.admitted + report.shed

        # Per-query offer chains: attempts count 0, 1, ... and stop at
        # max_defers; only a defer extends the chain.
        by_query: dict[int, list] = {}
        for query_id, attempts, decision in log:
            by_query.setdefault(query_id, []).append((attempts, decision))
        assert any(len(chain) > 1 for chain in by_query.values())
        for chain in by_query.values():
            assert [a for a, _ in chain] == list(range(len(chain)))
            for _, decision in chain[:-1]:
                assert decision == "defer"
            assert len(chain) - 1 <= policy.max_defers
            if len(chain) - 1 == policy.max_defers:
                assert chain[-1][1] in ("admit", "shed")

    def test_reoffers_interleave_with_later_arrivals(self, light_stack,
                                                     monkeypatch):
        """A deferred re-offer is decided at arrival + k * defer_s, in
        time order with arrivals landing inside the deferral window."""
        from repro.cluster.admission import AdmissionController

        offers = []

        class Recorder(AdmissionController):
            def decide(self, nodes, query, attempts):
                offers.append((query.arrival_s
                               + attempts * self.policy.defer_s,
                               query.query_id, attempts))
                return super().decide(nodes, query, attempts)

        monkeypatch.setattr("repro.cluster.fleet.AdmissionController",
                            Recorder)
        policy = AdmissionPolicy(max_fleet_pressure=1.0,
                                 max_outstanding_per_core=0.02,
                                 mode="defer", defer_s=0.005,
                                 max_defers=3)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="round_robin", admission=policy)
        cluster.report(MIX, qps=800, count=120, seed=3)

        times = [time for time, _, _ in offers]
        assert times == sorted(times)
        deferred = [entry for entry in offers if entry[2] > 0]
        assert deferred, "the overload must actually defer something"


class TestClusterExperiments:
    def test_sweep_shapes_and_determinism(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2))
        for qps in (150.0, 300.0):
            report = cluster.report(MIX, qps, count=40, seed=3)
            assert report.offered_qps == qps
            assert report == cluster.report(MIX, qps, count=40, seed=3)

    def test_capacity_returns_passing_report(self, light_stack):
        result = cluster_capacity(light_stack, homogeneous(2), MIX,
                                  count=40, router="pressure_aware",
                                  target=0.8, low_qps=20.0,
                                  high_qps=160.0, tolerance_qps=80.0,
                                  seed=3)
        assert result.qps >= 20.0
        assert result.report.satisfaction_rate >= 0.8
        assert result.router == "pressure_aware"


#: The autoscale cell's policy: control constants sized to sub-second
#: streams (the values of ``test_autoscale.fast_policy(max_nodes=3)``,
#: spelled out so the pin does not move with that helper).
_GOLDEN_AUTOSCALE = AutoscalePolicy(
    template=NodeSpec(name="auto", device=THREADRIPPER_3990X),
    min_nodes=1, max_nodes=3, tick_s=0.02, warmup_s=0.04, cooldown_s=0.08,
    up_pressure=0.45, down_pressure=0.20,
    up_backlog_per_core=0.05, down_backlog_per_core=0.015,
    up_violation_rate=0.10, down_violation_rate=0.02,
    slo_window_s=0.15, panic_severity=2.0, quiet_ticks=3)

#: Exact outcome of one fleet serve per serve-loop path (light stack,
#: seed 3): ``(crc32 over (node index, query_id, stage or -1,
#: finished_s) in per-node completion order, (offered, admitted, shed,
#: deferrals), scaling timeline as (action, node, time_s,
#: live_nodes))``.  ``TestGoldenOutcomes`` pins single-node runs; these
#: pin routing, deferral, shedding, the autoscale lifecycle and fleet
#: hand-offs, and do not move unless a simulated result does.
_GOLDEN_FLEET = {
    "admission": (0x69f8c8d3, (150, 112, 38, 70), ()),
    "autoscale": (0xa6d72dbb, (300, 300, 0, 0), (
        ("provision", "auto-1", 0.020229197526412585, 1),
        ("provision", "auto-2", 0.020229197526412585, 1),
        ("join", "auto-1", 0.060229197526412585, 2),
        ("join", "auto-2", 0.060229197526412585, 3),
        ("drain", "auto-1", 0.22022919752641257, 2),
        ("retire", "auto-1", 0.22022919752641257, 2),
        ("drain", "auto-2", 0.38022919752641265, 1),
        ("retire", "auto-2", 0.38022919752641265, 1),
        ("provision", "auto-3", 0.4602291975264127, 1),
        ("join", "auto-3", 0.5002291975264127, 2),
        ("provision", "auto-4", 0.5802291975264128, 2),
        ("join", "auto-4", 0.6202291975264128, 3),
        ("drain", "auto-4", 0.820229197526413, 2),
        ("retire", "auto-4", 0.820229197526413, 2),
        ("drain", "auto-3", 0.9602291975264131, 1),
        ("retire", "auto-3", 0.9602291975264131, 1))),
    "pipeline": (0x1ccb0282, (144, 88, 56, 0), ()),
    "closed_loop": (0x11bfec4d, (120, 120, 0, 0), ()),
}


class TestGoldenFleetOutcomes:
    @staticmethod
    def _outcome(cluster, report) -> tuple:
        crc = 0
        for node in cluster.last_nodes:
            for query in node.engine.completed:
                stage = -1 if query.stage is None else query.stage
                crc = zlib.crc32(struct.pack("<qqqd", node.index,
                                             query.query_id, stage,
                                             query.finished_s), crc)
        return (crc, (report.offered, report.admitted, report.shed,
                      report.deferrals),
                tuple((event.action, event.node, event.time_s,
                       event.live_nodes)
                      for event in report.scaling_timeline))

    def test_admission(self, light_stack):
        policy = AdmissionPolicy(mode="defer", max_outstanding_per_core=0.04,
                                 defer_s=0.005, max_defers=1)
        cluster = Cluster(light_stack, homogeneous(3),
                          router="pressure_aware", admission=policy)
        report = cluster.report(MIX21, qps=1500, count=150, seed=3)
        assert report.deferrals > 0 and report.shed > 0
        assert all(node.assigned > 0 for node in report.nodes)
        assert (self._outcome(cluster, report)
                == _GOLDEN_FLEET["admission"])

    def test_autoscale(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(1),
                          router="pressure_aware",
                          autoscale=_GOLDEN_AUTOSCALE)
        report = cluster.report(MIX21, qps=300, count=300, seed=3,
                                scenario="diurnal")
        assert {event.action for event in report.scaling_timeline} == {
            "provision", "join", "drain", "retire"}
        assert (self._outcome(cluster, report)
                == _GOLDEN_FLEET["autoscale"])

    def test_pipeline(self, light_stack):
        scenario = ScenarioSpec(
            name="golden-chain",
            pipeline=PipelineSpec(name="mn-gn",
                                  stages=("mobilenet_v2", "googlenet")))
        stream = scenario.stream(light_stack.compiled, qps=1000.0,
                                 count=100, seed=3)
        cluster = Cluster(
            light_stack, homogeneous(2), router="round_robin",
            admission=AdmissionPolicy(max_outstanding_per_core=0.05))
        report = cluster.serve_stream(stream, offered_qps=1000.0)
        assert report.pipelines.offered == 100
        assert 0 < report.pipelines.failed < 100
        assert (self._outcome(cluster, report)
                == _GOLDEN_FLEET["pipeline"])

    def test_closed_loop(self, light_stack):
        scenario = ScenarioSpec(
            name="golden-loop", workload=MIX21,
            closed_loop=ClosedLoopSpec(tenants=3, concurrency=2,
                                       think_s=0.005))
        stream = scenario.stream(light_stack.compiled, qps=0.0, count=120,
                                 seed=3)
        cluster = Cluster(light_stack, homogeneous(2),
                          router="least_outstanding")
        report = cluster.serve_stream(stream)
        assert [s.issued for s in report.sessions] == [40, 40, 40]
        assert all(node.assigned > 0 for node in report.nodes)
        assert (self._outcome(cluster, report)
                == _GOLDEN_FLEET["closed_loop"])
