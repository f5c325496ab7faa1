"""Autoscale control plane: policy validation, controller feedback
logic, serve-loop membership changes, and the scaling-timeline /
node-seconds invariants the benchmark relies on."""

import pytest

from repro.cluster.autoscale import (
    DRAIN,
    JOIN,
    PROVISION,
    RETIRE,
    RETIRED,
    AutoscaleController,
    AutoscalePolicy,
)
from repro.cluster.experiments import sweep_autoscale
from repro.cluster.fleet import Cluster
from repro.cluster.router import make_router
from repro.cluster.spec import NodeSpec, homogeneous
from repro.hardware.platform import THREADRIPPER_3990X
from repro.serving.workload import WorkloadSpec, scenario_queries
from repro.telemetry.tracer import Tracer
from repro.workloads.requests import ClosedLoopSpec
from repro.workloads.scenario import ScenarioSpec

MIX = WorkloadSpec(name="mix2", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))

TEMPLATE = NodeSpec(name="auto", device=THREADRIPPER_3990X)


def fast_policy(**overrides) -> AutoscalePolicy:
    """Control constants sized to sub-second simulated streams."""
    defaults = dict(
        template=TEMPLATE, min_nodes=1, max_nodes=4,
        tick_s=0.02, warmup_s=0.04, cooldown_s=0.08,
        up_pressure=0.45, down_pressure=0.20,
        up_backlog_per_core=0.05, down_backlog_per_core=0.015,
        up_violation_rate=0.10, down_violation_rate=0.02,
        slo_window_s=0.15, panic_severity=2.0, quiet_ticks=3)
    defaults.update(overrides)
    return AutoscalePolicy(**defaults)


class TestAutoscalePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            fast_policy(min_nodes=0)
        with pytest.raises(ValueError):
            fast_policy(min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            fast_policy(tick_s=0.0)
        with pytest.raises(ValueError):
            fast_policy(warmup_s=-1.0)
        with pytest.raises(ValueError):
            fast_policy(panic_severity=1.0)
        with pytest.raises(ValueError):
            fast_policy(quiet_ticks=0)

    def test_hysteresis_bands_must_be_ordered(self):
        # down >= up leaves no hysteresis gap: rejected per signal.
        with pytest.raises(ValueError):
            fast_policy(up_pressure=0.3, down_pressure=0.3)
        with pytest.raises(ValueError):
            fast_policy(up_backlog_per_core=0.02,
                        down_backlog_per_core=0.05)
        with pytest.raises(ValueError):
            fast_policy(up_violation_rate=0.1, down_violation_rate=-0.1)


class _StubEngine:
    def __init__(self, outstanding: int) -> None:
        self.outstanding = outstanding
        self.queued = outstanding


class _StubNode:
    def __init__(self, index: int, cores: int = 64, outstanding: int = 0,
                 pressure: float = 0.0) -> None:
        self.index = index
        self.cores = cores
        self.engine = _StubEngine(outstanding)
        self._pressure = pressure

    def pressure_estimate(self) -> float:
        return self._pressure


class _StubCompletion:
    def __init__(self, finished_s: float, satisfied: bool) -> None:
        self.finished_s = finished_s
        self.satisfied = satisfied


class TestAutoscaleController:
    def test_violation_window_evicts(self):
        controller = AutoscaleController(fast_policy(slo_window_s=1.0))
        controller.observe_completions([
            _StubCompletion(0.0, False),
            _StubCompletion(0.9, True),
            _StubCompletion(1.4, True),
        ])
        # At t=1.5 the miss at 0.0 has left the window: 0 of 2 missed.
        assert controller.violation_rate(1.5) == 0.0
        controller.observe_completions([_StubCompletion(1.6, False)])
        assert controller.violation_rate(1.7) == pytest.approx(1 / 3)

    def test_violation_window_evicts_out_of_order_batches(self):
        """Batches arrive per node, so the deque is not time-sorted: an
        expired entry behind an in-window head must still evict."""
        controller = AutoscaleController(fast_policy(slo_window_s=1.0))
        controller.observe_completions([_StubCompletion(2.0, True)])
        # A slower node reports its *older* completions afterwards.
        controller.observe_completions([_StubCompletion(0.5, False),
                                        _StubCompletion(1.9, True)])
        # Horizon at 1.1: the 0.5 miss is expired even though it sits
        # behind the in-window 2.0 head.
        assert controller.violation_rate(2.1) == 0.0

    def test_scale_up_on_backlog(self):
        controller = AutoscaleController(fast_policy())
        # backlog per core 10/64 > 0.05 band, severity < panic.
        nodes = [_StubNode(0, outstanding=5)]
        assert controller.decide(0.0, nodes, warming=0) == 1

    def test_panic_jumps_to_max_and_bypasses_cooldown(self):
        controller = AutoscaleController(fast_policy(max_nodes=5))
        nodes = [_StubNode(0, outstanding=1)]
        assert controller.decide(0.0, nodes, warming=0) == 0
        # Mild breach right after an action is held by the cool-down...
        controller._last_action_s = 0.0
        mild = [_StubNode(0, outstanding=5)]
        assert controller.decide(0.01, mild, warming=0) == 0
        # ...a panic-severity breach is not, and fills to max_nodes.
        flooded = [_StubNode(0, outstanding=64)]
        assert controller.decide(0.02, flooded, warming=0) == 4

    def test_scale_down_needs_sustained_quiet(self):
        controller = AutoscaleController(fast_policy(quiet_ticks=3))
        nodes = [_StubNode(0), _StubNode(1)]
        assert controller.decide(1.00, nodes, warming=0) == 0
        assert controller.decide(1.02, nodes, warming=0) == 0
        assert controller.decide(1.04, nodes, warming=0) == -1
        # The streak resets after the action.
        assert controller.decide(1.20, nodes, warming=0) == 0

    def test_no_scale_down_below_min_or_while_warming(self):
        controller = AutoscaleController(fast_policy(min_nodes=1,
                                                     quiet_ticks=1))
        single = [_StubNode(0)]
        assert controller.decide(1.0, single, warming=0) == 0
        pair = [_StubNode(0), _StubNode(1)]
        assert controller.decide(2.0, pair, warming=1) == 0
        assert controller.decide(3.0, pair, warming=0) == -1

    def test_no_scale_up_past_max(self):
        controller = AutoscaleController(fast_policy(max_nodes=2))
        flooded = [_StubNode(0, outstanding=64), _StubNode(1, outstanding=64)]
        assert controller.decide(0.0, flooded, warming=0) == 0
        assert controller.decide(1.0, flooded[:1], warming=1) == 0


class TestRoundRobinMembership:
    """Satellite fix: the cursor tracks node ids, not list positions."""

    def test_static_fleet_cycle_unchanged(self):
        router = make_router("round_robin")
        nodes = [_StubNode(i) for i in range(3)]
        picks = [router.choose(nodes, None, 0.0).index for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_member_removal_does_not_skip_or_double_serve(self):
        router = make_router("round_robin")
        nodes = [_StubNode(i) for i in range(3)]
        assert router.choose(nodes, None, 0.0).index == 0
        assert router.choose(nodes, None, 0.0).index == 1
        # Node 1 drains: the cycle continues at 2, then wraps to 0 —
        # the old position-modulo counter would have repeated node 2.
        survivors = [nodes[0], nodes[2]]
        picks = [router.choose(survivors, None, 0.0).index
                 for _ in range(4)]
        assert picks == [2, 0, 2, 0]

    def test_member_join_enters_rotation_after_cursor(self):
        router = make_router("round_robin")
        nodes = [_StubNode(0), _StubNode(1)]
        assert router.choose(nodes, None, 0.0).index == 0
        grown = nodes + [_StubNode(2)]
        picks = [router.choose(grown, None, 0.0).index for _ in range(4)]
        assert picks == [1, 2, 0, 1]


@pytest.fixture(scope="module")
def diurnal_run(light_stack):
    """One autoscaled diurnal serve with scale-ups and scale-downs."""
    policy = fast_policy(min_nodes=1, max_nodes=3)
    cluster = Cluster(light_stack, homogeneous(1),
                      router="pressure_aware", autoscale=policy)
    report = cluster.report(MIX, qps=400, count=300, seed=5,
                            scenario="diurnal")
    return cluster, report


class TestAutoscaleServe:
    def test_timeline_present_and_chronological(self, diurnal_run):
        _, report = diurnal_run
        timeline = report.scaling_timeline
        assert timeline, "diurnal load at 400 QPS must trigger scaling"
        times = [event.time_s for event in timeline]
        assert times == sorted(times)
        assert {event.action for event in timeline} <= {
            PROVISION, JOIN, DRAIN, RETIRE}

    def test_provision_join_pairing_and_bounds(self, diurnal_run):
        _, report = diurnal_run
        timeline = report.scaling_timeline
        provisions = [e.node for e in timeline if e.action == PROVISION]
        joins = [e.node for e in timeline if e.action == JOIN]
        assert sorted(provisions) == sorted(joins)
        drains = [e.node for e in timeline if e.action == DRAIN]
        retires = [e.node for e in timeline if e.action == RETIRE]
        assert sorted(drains) == sorted(retires)
        assert 1 <= report.peak_live_nodes <= 3
        for event in timeline:
            assert 1 <= event.live_nodes <= 3

    def test_node_seconds_reconcile(self, diurnal_run):
        _, report = diurnal_run
        assert report.node_seconds == pytest.approx(
            sum(node.node_seconds for node in report.nodes))
        assert report.core_seconds_available == pytest.approx(
            sum(node.cores * node.node_seconds for node in report.nodes))
        assert 0.0 < report.utilization <= 1.0
        for node in report.nodes:
            assert node.node_seconds == pytest.approx(
                node.retired_s - node.provisioned_s)
            assert node.node_seconds <= report.span_s + 1e-9

    def test_drain_completes_in_flight_work(self, diurnal_run):
        cluster, report = diurnal_run
        retired = [n for n in report.nodes if n.final_state == RETIRED]
        assert retired, "the diurnal trough must retire at least one node"
        for node in retired:
            assert node.completed == node.assigned
        # Retired engines were not driven past their retirement.
        by_name = {n.spec.name: n for n in cluster.last_nodes}
        for node in retired:
            engine = by_name[node.name].engine
            assert engine.outstanding == 0

    def test_totals_reconcile_across_membership_change(self, diurnal_run):
        _, report = diurnal_run
        assert report.offered == report.admitted + report.shed
        assert report.admitted == sum(n.assigned for n in report.nodes)
        assert report.completed == sum(n.completed for n in report.nodes)
        assert report.satisfied == sum(n.satisfied for n in report.nodes)
        assert report.completed == report.admitted

    def test_ticks_run_through_a_closed_loop(self, light_stack):
        """A zero-think closed loop offers and routes each follow-up at
        its completion instant, so no offer is pending at any tick; the
        controller must keep ticking while requests are in flight."""
        scenario = ScenarioSpec(
            name="tick-loop",
            workload=WorkloadSpec(name="mix21", entries=(
                ("mobilenet_v2", 2.0), ("googlenet", 1.0))),
            closed_loop=ClosedLoopSpec(tenants=6, concurrency=2,
                                       think_s=0.0))
        stream = scenario.stream(light_stack.compiled, qps=0.0, count=240,
                                 seed=3)
        policy = fast_policy()
        tracer = Tracer(run_id="tick-loop")
        cluster = Cluster(light_stack, homogeneous(1),
                          router="pressure_aware", autoscale=policy)
        report = cluster.serve_stream(stream, tracer=tracer)
        ticks = [record.ts
                 for record in tracer.trace().counters("fleet.signals")]
        last = max(query.finished_s for node in cluster.last_nodes
                   for query in node.engine.completed)
        assert ticks and ticks[-1] >= last - policy.tick_s
        assert report.peak_live_nodes > 1

    def test_deterministic_per_seed(self, light_stack):
        policy = fast_policy(min_nodes=1, max_nodes=3)

        def run():
            cluster = Cluster(light_stack, homogeneous(1),
                              router="pressure_aware", autoscale=policy)
            return cluster.report(MIX, qps=400, count=150, seed=9,
                                  scenario="diurnal")

        first, second = run(), run()
        assert first == second
        assert first.scaling_timeline == second.scaling_timeline

    def test_static_fleet_report_shape(self, light_stack):
        cluster = Cluster(light_stack, homogeneous(2),
                          router="pressure_aware")
        report = cluster.report(MIX, qps=300, count=60, seed=3)
        assert report.scaling_timeline == ()
        assert report.peak_live_nodes == 2
        assert report.node_seconds == pytest.approx(2 * report.span_s)
        assert all(n.final_state == "live" for n in report.nodes)

    def test_elastic_beats_static_node_seconds(self, light_stack):
        points = sweep_autoscale(
            light_stack, homogeneous(3), homogeneous(1),
            fast_policy(min_nodes=1, max_nodes=3), MIX,
            [("diurnal", 350.0)], count=200, seed=5)
        (point,) = points
        assert point.node_seconds_ratio < 1.0
        assert point.autoscaled.offered == point.static.offered
        assert point.scenario == "diurnal"

    def test_warming_node_reuses_compile_pass(self, light_stack):
        light_stack.ensure_compiled()
        seen = light_stack.compiler.stats.layers_total
        policy = fast_policy(min_nodes=1, max_nodes=3)
        cluster = Cluster(light_stack, homogeneous(1),
                          router="pressure_aware", autoscale=policy)
        report = cluster.report(MIX, qps=450, count=150, seed=5,
                                scenario="flash_crowd")
        assert any(e.action == PROVISION
                   for e in report.scaling_timeline)
        assert light_stack.compiler.stats.layers_total == seen


class TestPlanCacheBound:
    """Each profile's plan memo is size-capped; eviction never changes
    results."""

    def test_required_cache_bounded_and_results_identical(self, light_stack,
                                                          fresh_runtime,
                                                          monkeypatch):
        import repro.scheduling.base
        from repro.runtime.engine import Engine

        def serve(policy):
            # Fresh profiles, so the memo bound in force is the one
            # they are built under.
            runtime = fresh_runtime(light_stack)
            queries = scenario_queries(light_stack.compiled, "bursty", 300,
                                       120, seed=4, spec=MIX)
            engine = Engine(light_stack.cost_model,
                            price_cache=runtime.price_cache)
            done = engine.run(queries,
                              light_stack.make_scheduler(policy, runtime))
            memos = [profile.plan_memo
                     for profile in runtime.profiles.values()]
            return {q.query_id: q.finished_s for q in done}, memos

        # Every policy whose plans the profiles memoise.
        policies = ("veltair_as", "veltair_full", "veltair_ac", "layerwise",
                    "block6", "gacer", "model_fcfs")
        unbounded = {policy: serve(policy) for policy in policies}
        # The memo is live: every policy but model_fcfs (one plan per
        # profile) fills more than the cap below.
        assert all(len(memo) > 8 for policy in policies[:-1]
                   for memo in unbounded[policy][1])

        monkeypatch.setattr(repro.scheduling.base, "PLAN_MEMO_ENTRIES", 8)
        for policy in policies:
            finished, memos = serve(policy)
            # Steady state: the capped memo never exceeds its bound, a
            # memo that outgrew it evicted, and eviction only forces
            # recomputes — results are bit-identical.
            assert finished == unbounded[policy][0], policy
            for memo, full in zip(memos, unbounded[policy][1]):
                assert len(memo) <= 8, policy
                assert (memo.evictions > 0) == (len(full) > 8), policy
