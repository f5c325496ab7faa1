"""Workload generation, metrics, and serving-facade tests."""

import numpy as np
import pytest

from repro.runtime.engine import SimulationMetrics
from repro.serving.metrics import max_qps_at_satisfaction, summarize
from repro.serving.server import POLICIES
from repro.serving.workload import (
    WorkloadSpec,
    class_mix,
    full_mix,
    poisson_queries,
    single_model,
    uniform_queries,
)


class TestWorkloadSpec:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", entries=())

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            WorkloadSpec(name="x", entries=(("resnet50", -1.0),))

    def test_probabilities_normalised(self):
        spec = WorkloadSpec(name="x", entries=(("a", 1.0), ("b", 3.0)))
        assert spec.probabilities().sum() == pytest.approx(1.0)
        assert spec.probabilities()[1] == pytest.approx(0.75)

    def test_class_mixes(self):
        assert set(class_mix("light").models) == {
            "efficientnet_b0", "mobilenet_v2", "tiny_yolov2"}
        assert set(class_mix("heavy").models) == {
            "ssd_resnet34", "bert_large"}

    def test_full_mix_weights_inverse_qos(self):
        spec = full_mix()
        weights = dict(spec.entries)
        assert weights["mobilenet_v2"] > weights["bert_large"]

    def test_single_model(self):
        assert single_model("resnet50").models == ["resnet50"]


class TestQueryGeneration:
    def test_poisson_deterministic_and_rate(self, resnet_stack):
        spec = single_model("resnet50")
        a = poisson_queries(resnet_stack.compiled, spec, 100, 500, seed=1)
        b = poisson_queries(resnet_stack.compiled, spec, 100, 500, seed=1)
        assert [q.arrival_s for q in a] == [q.arrival_s for q in b]
        gaps = np.diff([0.0] + [q.arrival_s for q in a])
        assert gaps.mean() == pytest.approx(1 / 100, rel=0.2)

    def test_poisson_rejects_unknown_model(self, resnet_stack):
        spec = single_model("bert_large")
        with pytest.raises(KeyError):
            poisson_queries(resnet_stack.compiled, spec, 100, 10)

    def test_poisson_rejects_bad_rate(self, resnet_stack):
        with pytest.raises(ValueError):
            poisson_queries(resnet_stack.compiled,
                            single_model("resnet50"), 0, 10)

    def test_uniform_exact_spacing(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 50, 10)
        gaps = np.diff([q.arrival_s for q in queries])
        assert np.allclose(gaps, 0.02)

    def test_qos_from_table2(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 50, 2)
        assert queries[0].qos_s == pytest.approx(0.015)


class TestSummarize:
    def test_empty_run(self):
        report = summarize([], SimulationMetrics(), offered_qps=100)
        assert report.satisfaction_rate == 0.0
        assert report.average_latency_s == float("inf")
        assert report.conflict_rate == 0.0

    def test_empty_run_reports_conflicts_from_blocks(self):
        # Saturated loads probed by the capacity bisection can start
        # (and conflict) many blocks while completing zero queries; the
        # conflict rate must come from block accounting, not be zeroed.
        metrics = SimulationMetrics(conflicts=6, blocks_started=24)
        report = summarize([], metrics, offered_qps=900)
        assert report.completed == 0
        assert report.conflict_rate == pytest.approx(6 / 24)
        assert report.blocks_started == 24

    def test_empty_run_conflict_rate_matches_normal_path(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 20, 4)
        for query in queries:
            query.started_s = query.arrival_s
            query.finished_s = query.arrival_s + 0.010
        metrics = SimulationMetrics(conflicts=3, blocks_started=12)
        with_completed = summarize(queries, metrics, offered_qps=20)
        without_completed = summarize([], metrics, offered_qps=20)
        assert (without_completed.conflict_rate
                == with_completed.conflict_rate)

    def test_counts_satisfied(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 20, 4)
        for index, query in enumerate(queries):
            query.started_s = query.arrival_s
            query.finished_s = query.arrival_s + (
                0.010 if index < 3 else 0.030)
        report = summarize(queries, SimulationMetrics(blocks_started=4),
                           offered_qps=20)
        assert report.satisfaction_rate == pytest.approx(0.75)
        assert report.completed == 4


class TestMaxQpsSearch:
    def test_bisection_finds_step(self):
        def run(qps):
            report = summarize([], SimulationMetrics(), qps)
            # A passing probe must look like one: completed > 0.  A
            # zero-completion report never passes, whatever its rate.
            object.__setattr__(report, "completed",
                               100 if qps <= 330 else 0)
            object.__setattr__(report, "satisfaction_rate",
                               1.0 if qps <= 330 else 0.0)
            return report

        qps, report = max_qps_at_satisfaction(
            lambda loads: [run(qps) for qps in loads], low_qps=10,
            high_qps=400, tolerance_qps=5)
        assert 320 <= qps <= 335

    def test_failing_floor_returned(self):
        def run(qps):
            return summarize([], SimulationMetrics(), qps)

        qps, report = max_qps_at_satisfaction(
            lambda loads: [run(qps) for qps in loads], low_qps=10)
        assert qps == 10
        assert report.satisfaction_rate == 0.0

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            max_qps_at_satisfaction(lambda q: None, target=0.0)


class TestServingStack:
    def test_policy_names_all_construct(self, resnet_stack):
        for policy in POLICIES:
            assert resnet_stack.make_scheduler(policy) is not None

    def test_unknown_policy_raises(self, resnet_stack):
        with pytest.raises(ValueError):
            resnet_stack.make_scheduler("magic")

    def test_report_smoke(self, resnet_stack):
        report = resnet_stack.report("veltair_full",
                                     single_model("resnet50"),
                                     qps=40, count=20)
        assert report.completed == 20
        assert report.satisfaction_rate > 0.9

    def test_isolated_latency_below_qos(self, resnet_stack):
        latency = resnet_stack.isolated_model_latency("resnet50")
        assert latency < resnet_stack.compiled["resnet50"].qos_s

    def test_isolated_latency_improves_with_cores(self, resnet_stack):
        assert (resnet_stack.isolated_model_latency("resnet50", cores=64)
                < resnet_stack.isolated_model_latency("resnet50", cores=8))
