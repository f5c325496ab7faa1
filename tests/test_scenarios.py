"""Scenario-library coverage (PR 3 satellite).

Pins the contracts of :mod:`repro.workloads`: bit-determinism of every
arrival generator under a fixed seed, empirical-rate accuracy of the
normalised shapes, bit-identity of the ``"poisson"`` scenario with the
legacy generator, trace record -> save -> load -> replay round trips
(single-node and fleet), and the scenario threading through the
experiment drivers.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.cluster.fleet import Cluster
from repro.cluster.spec import homogeneous
from repro.config import make_rng
from repro.serving.experiments import capacity, sweep_qps
from repro.serving.metrics import summarize
from repro.serving.workload import (
    WorkloadSpec,
    poisson_queries,
    scenario_queries,
    uniform_queries,
)
from repro.workloads.arrivals import (
    DiurnalArrivals,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantChurnArrivals,
    UniformArrivals,
)
from repro.workloads.scenario import (
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workloads.trace import (
    TRACE_SCHEMA,
    ArrivalTrace,
    TraceEntry,
    record_trace,
)

_SPEC = WorkloadSpec(name="pair", entries=(("mobilenet_v2", 2.0),
                                           ("googlenet", 1.0)))

_PROCESSES = (
    PoissonArrivals(),
    UniformArrivals(),
    MMPPArrivals(),
    DiurnalArrivals(),
    FlashCrowdArrivals(),
    TenantChurnArrivals(),
)


class TestArrivalDeterminism:
    @pytest.mark.parametrize("process", _PROCESSES,
                             ids=lambda p: p.kind)
    def test_fixed_seed_reproduces_bitwise(self, process):
        first = process.sample_times(140.0, 2500, make_rng(7))
        second = process.sample_times(140.0, 2500, make_rng(7))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("process", _PROCESSES[:1] + _PROCESSES[2:],
                             ids=lambda p: p.kind)
    def test_seed_changes_stream(self, process):
        first = process.sample_times(140.0, 500, make_rng(7))
        other = process.sample_times(140.0, 500, make_rng(8))
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("process", _PROCESSES,
                             ids=lambda p: p.kind)
    def test_times_increase_from_zero(self, process):
        times = process.sample_times(90.0, 800, make_rng(3))
        assert times[0] > 0.0
        assert np.all(np.diff(times) >= 0.0)

    @pytest.mark.parametrize("process", _PROCESSES,
                             ids=lambda p: p.kind)
    def test_rejects_bad_load(self, process):
        with pytest.raises(ValueError):
            process.sample_times(0.0, 10, make_rng(0))
        with pytest.raises(ValueError):
            process.sample_times(50.0, 0, make_rng(0))


class TestEmpiricalRates:
    """The shapes are normalised: long-run mean rate == requested qps."""

    def test_mmpp_rate_accuracy(self):
        # Many cycles per stream shrink the fixed-count stopping bias.
        process = MMPPArrivals(cycles=150.0)
        times = process.sample_times(200.0, 40000, make_rng(11))
        assert 40000 / times[-1] == pytest.approx(200.0, rel=0.04)

    def test_mmpp_rate_mix_solves_to_mean(self):
        process = MMPPArrivals(burst_ratio=9.0, burst_fraction=0.3)
        calm, burst = process.state_rates(100.0)
        assert burst == pytest.approx(9.0 * calm)
        assert calm * 0.7 + burst * 0.3 == pytest.approx(100.0)

    def test_diurnal_rate_accuracy(self):
        process = DiurnalArrivals(amplitude=0.7, periods=40.0)
        times = process.sample_times(150.0, 40000, make_rng(13))
        assert 40000 / times[-1] == pytest.approx(150.0, rel=0.03)

    def test_tenant_churn_rate_accuracy(self):
        # The population wanders slowly, so one stream's N/T estimate is
        # noisy; the *expected* rate (averaged over seeds) is qps.
        process = TenantChurnArrivals(mean_tenants=16, turnovers=100.0)
        rates = []
        for seed in range(6):
            times = process.sample_times(120.0, 20000, make_rng(seed))
            rates.append(20000 / times[-1])
        assert sum(rates) / len(rates) == pytest.approx(120.0, rel=0.05)

    def test_mmpp_actually_bursts(self):
        # Gap variance far above Poisson's (CV > 1 is the burst signal).
        process = MMPPArrivals(burst_ratio=10.0, burst_fraction=0.15)
        gaps = np.diff(process.sample_times(100.0, 20000, make_rng(5)))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.3

    def test_flash_crowd_spikes_inside_window(self):
        process = FlashCrowdArrivals(spike_ratio=10.0, start_frac=0.4,
                                     width_frac=0.2)
        qps, count = 100.0, 20000
        times = process.sample_times(qps, count, make_rng(9))
        start, stop = process.spike_window(qps, count)
        # The spike window is sized against the *expected* span; the
        # extra spike arrivals end the fixed-count stream early, so only
        # the realised overlap counts.
        stop = min(stop, float(times[-1]))
        inside = np.sum((times >= start) & (times < stop))
        inside_rate = inside / (stop - start)
        outside_span = times[-1] - (stop - start)
        outside_rate = (len(times) - inside) / outside_span
        assert inside_rate > 4.0 * outside_rate

    def test_uniform_consumes_no_randomness(self):
        rng = make_rng(1)
        before = rng.bit_generator.state
        UniformArrivals().sample_times(50.0, 100, rng)
        assert rng.bit_generator.state == before


class TestArrivalValidation:
    def test_mmpp_params(self):
        with pytest.raises(ValueError):
            MMPPArrivals(burst_ratio=1.0)
        with pytest.raises(ValueError):
            MMPPArrivals(burst_fraction=1.0)
        with pytest.raises(ValueError):
            MMPPArrivals(cycles=0.0)

    def test_diurnal_params(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(amplitude=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(periods=0.0)

    def test_flash_crowd_params(self):
        with pytest.raises(ValueError):
            FlashCrowdArrivals(spike_ratio=0.5)
        with pytest.raises(ValueError):
            FlashCrowdArrivals(width_frac=0.0)

    def test_trace_arrivals(self, light_stack):
        def trace(*times):
            return ArrivalTrace(name="t", entries=tuple(
                TraceEntry(arrival_s=t, model="googlenet", qos_s=0.02)
                for t in times))

        with pytest.raises(ValueError):
            trace()
        with pytest.raises(ValueError):
            trace(2.0, 1.0)
        for bad in ((0.1, math.nan, 0.05), (0.1, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                trace(*bad)
        recorded = trace(0.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            recorded.replay(light_stack.compiled, count=4)
        out = recorded.replay(light_stack.compiled, count=2)
        assert [q.arrival_s for q in out] == [0.5, 1.0]


class TestScenarioSpec:
    def test_poisson_scenario_is_bit_identical_to_legacy(self,
                                                         light_stack):
        legacy = poisson_queries(light_stack.compiled, _SPEC, 150.0, 400,
                                 seed=17)
        scenario = scenario_queries(light_stack.compiled, "poisson",
                                    150.0, 400, seed=17, spec=_SPEC)
        assert ([(q.arrival_s, q.model.name, q.qos_s) for q in legacy]
                == [(q.arrival_s, q.model.name, q.qos_s)
                    for q in scenario])

    def test_uniform_scenario_matches_uniform_queries(self, light_stack):
        legacy = uniform_queries(light_stack.compiled, "mobilenet_v2",
                                 80.0, 50)
        single = WorkloadSpec(name="solo",
                              entries=(("mobilenet_v2", 1.0),))
        scenario = scenario_queries(light_stack.compiled, "uniform",
                                    80.0, 50, seed=17, spec=single)
        # Bit for bit, not only the arrivals: reports_over_qps draws
        # this scenario for the Fig. 3 uniform protocol.
        assert ([(q.query_id, q.arrival_s, q.model.name, q.qos_s)
                 for q in legacy]
                == [(q.query_id, q.arrival_s, q.model.name, q.qos_s)
                    for q in scenario])

    def test_qos_scaling_applies_per_class(self, light_stack):
        tight = ScenarioSpec(name="tight-light",
                             qos_scale=(("light", 0.5),))
        queries = scenario_queries(light_stack.compiled, tight, 100.0,
                                   20, seed=3, spec=_SPEC)
        from repro.models.registry import get_entry
        for query in queries:
            entry = get_entry(query.model.name)
            expected = entry.qos_s * (0.5 if entry.workload_class
                                      == "light" else 1.0)
            assert query.qos_s == pytest.approx(expected)

    def test_bundled_workload_wins(self, light_stack):
        bundled = ScenarioSpec(
            name="solo-bundle",
            workload=WorkloadSpec(name="solo",
                                  entries=(("googlenet", 1.0),)))
        queries = scenario_queries(light_stack.compiled, bundled, 90.0,
                                   30, seed=5, spec=_SPEC)
        assert {q.model.name for q in queries} == {"googlenet"}

    def test_mix_agnostic_scenario_requires_spec(self, light_stack):
        with pytest.raises(ValueError, match="bundles no workload"):
            scenario_queries(light_stack.compiled, "bursty", 90.0, 30)

    def test_rejects_unknown_class_or_scale(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", qos_scale=(("warp", 2.0),))
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", qos_scale=(("light", 0.0),))

    def test_registry_contents_and_unknown(self):
        names = scenario_names()
        for expected in ("poisson", "bursty", "diurnal", "flash_crowd",
                         "tenant_churn", "prod_day", "launch_spike"):
            assert expected in names
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("poisson"))


class TestTraceRoundTrip:
    def _stream(self, light_stack, count=150):
        return scenario_queries(light_stack.compiled, "bursty", 120.0,
                                count, seed=29, spec=_SPEC)

    def test_save_load_is_bit_identical(self, light_stack, tmp_path):
        trace = record_trace(self._stream(light_stack), "roundtrip",
                             meta={"seed": 29})
        loaded = ArrivalTrace.load(trace.save(tmp_path / "t.json"))
        assert loaded == trace  # frozen dataclass equality: exact floats

    def test_single_node_replay_equals_direct(self, light_stack,
                                              tmp_path):
        trace = record_trace(self._stream(light_stack), "roundtrip")
        loaded = ArrivalTrace.load(trace.save(tmp_path / "t.json"))

        direct, engine_a = light_stack.run("veltair_full",
                                           self._stream(light_stack))
        replayed, engine_b = light_stack.run(
            "veltair_full", loaded.replay(light_stack.compiled))
        report_a = summarize(direct, engine_a.metrics, 120.0)
        report_b = summarize(replayed, engine_b.metrics, 120.0)
        for field in dataclasses.fields(report_a):
            assert (getattr(report_a, field.name)
                    == getattr(report_b, field.name)), field.name

    def test_cluster_replay_equals_direct(self, light_stack, tmp_path):
        trace = record_trace(self._stream(light_stack, count=120),
                             "fleet-roundtrip")
        loaded = ArrivalTrace.load(trace.save(tmp_path / "t.json"))
        fleet = homogeneous(2)
        direct = Cluster(light_stack, fleet).serve(
            self._stream(light_stack, count=120), offered_qps=120.0)
        replay = Cluster(light_stack, fleet).serve(
            loaded.replay(light_stack.compiled), offered_qps=120.0)
        assert direct.satisfaction_rate == replay.satisfaction_rate
        assert direct.goodput_qps == replay.goodput_qps
        assert direct.completed == replay.completed
        assert direct.class_p99_s == replay.class_p99_s

    def test_replay_validates_models_and_truncation(self, light_stack):
        trace = record_trace(self._stream(light_stack, count=10), "t")
        with pytest.raises(KeyError, match="uncompiled"):
            trace.replay({})
        with pytest.raises(ValueError, match="holds"):
            trace.replay(light_stack.compiled, count=11)
        assert len(trace.replay(light_stack.compiled, count=4)) == 4

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9", "name": "x", '
                        '"entries": []}')
        with pytest.raises(ValueError, match="unsupported trace schema"):
            ArrivalTrace.load(path)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ArrivalTrace(name="none", entries=())

    @pytest.mark.parametrize("entries, match", [
        ([[0.1, "googlenet", 0.02], [math.nan, "googlenet", 0.02],
          [0.05, "googlenet", 0.02]], "finite"),
        ([[0.1, "googlenet", 0.02], [math.inf, "googlenet", 0.02]],
         "finite"),
        ([[0.1, "googlenet", -0.02]], "QoS"),
        ([[0.1, "googlenet", math.nan]], "QoS"),
        ([[0.1, "googlenet", math.inf]], "QoS"),
    ])
    def test_rejects_non_finite_or_bad_qos(self, tmp_path, entries, match):
        """``json`` writes and parses the ``NaN`` and ``Infinity``
        literals, and a NaN arrival slips past an ordering check, so
        each is refused by name."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": TRACE_SCHEMA, "name": "bad",
                                    "entries": entries}))
        with pytest.raises(ValueError, match=match):
            ArrivalTrace.load(path)


class TestExperimentThreading:
    def test_sweep_default_equals_poisson_scenario(self, light_stack):
        plain = sweep_qps(light_stack, "veltair_full", _SPEC,
                          [100.0, 180.0], 100, seed=17)
        scenario = sweep_qps(light_stack, "veltair_full", _SPEC,
                             [100.0, 180.0], 100, seed=17,
                             scenario="poisson")
        assert plain == scenario

    def test_capacity_accepts_scenario_and_name(self, light_stack):
        by_name = capacity(light_stack, "veltair_full", _SPEC, 80,
                           tolerance_qps=60.0, low_qps=5.0,
                           high_qps=300.0, seed=17, scenario="bursty")
        by_spec = capacity(light_stack, "veltair_full", _SPEC, 80,
                           tolerance_qps=60.0, low_qps=5.0,
                           high_qps=300.0, seed=17,
                           scenario=get_scenario("bursty"))
        assert by_name.qps == by_spec.qps

    def test_stack_report_scenario(self, light_stack):
        default = light_stack.report("veltair_full", _SPEC, 120.0, 100,
                                     seed=17)
        poisson = light_stack.report("veltair_full", _SPEC, 120.0, 100,
                                     seed=17, scenario="poisson")
        bursty = light_stack.report("veltair_full", _SPEC, 120.0, 100,
                                    seed=17, scenario="bursty")
        assert default == poisson
        assert bursty != default

    def test_cluster_report_scenario(self, light_stack):
        fleet = homogeneous(2)
        default = Cluster(light_stack, fleet).report(_SPEC, 100.0, 80,
                                                     seed=17)
        poisson = Cluster(light_stack, fleet).report(
            _SPEC, 100.0, 80, seed=17, scenario="poisson")
        assert default.satisfaction_rate == poisson.satisfaction_rate
        assert default.goodput_qps == poisson.goodput_qps
