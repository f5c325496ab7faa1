"""Telemetry layer: tracer core, traced runs, exports, CLI, guards."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.cluster import Cluster, homogeneous
from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.spec import NodeSpec
from repro.hardware.platform import THREADRIPPER_3990X
from repro.runtime.engine import Engine, SimulationMetrics
from repro.runtime.pricing import PricingCache
from repro.serving.metrics import (
    max_qps_at_satisfaction,
    summarize,
)
from repro.serving.workload import WorkloadSpec, poisson_queries
from repro.telemetry import (
    TRACE_DIR_ENV,
    TRACE_SCHEMA,
    FLEET_SIGNAL_FIELDS,
    Trace,
    TraceRecord,
    Tracer,
    prometheus_text,
    save_env_trace,
    summarize_trace,
    to_chrome,
    tracer_from_env,
    validate_chrome,
    validate_trace,
)
from repro.telemetry.__main__ import main as telemetry_cli

MIX = WorkloadSpec(name="mix2", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))


@pytest.fixture(scope="module")
def traced_run(light_stack):
    """One traced single-node serve + its untraced twin."""
    tracer = Tracer(run_id="test-run", meta={"qps": 300.0})
    report = light_stack.report("veltair_full", MIX, qps=300, count=80,
                                seed=3, tracer=tracer)
    report_off = light_stack.report("veltair_full", MIX, qps=300,
                                    count=80, seed=3)
    return tracer.trace(), report, report_off


class TestTracerCore:
    def test_empty_tracer_is_truthy(self):
        tracer = Tracer()
        assert len(tracer) == 0
        assert tracer, "a sink is truthy by existence, not fill level"

    def test_bind_stamps_node(self):
        tracer = Tracer()
        node = tracer.bind("node3")
        node.event("arrival", 0.5)
        node.span("q", 0.5, 0.1, cat="query", qid=7)
        node.counter("engine", 0.6, {"pressure": 0.2})
        assert all(r.node == "node3" for r in tracer.records)
        node.event("route", 0.7, node="other")
        assert tracer.records[-1].node == "other"

    def test_payload_roundtrip(self):
        record = TraceRecord(kind="span", name="q", ts=0.125, dur=0.5,
                             cat="query", node="n0", qid=3,
                             args={"satisfied": True})
        assert TraceRecord.from_payload(record.to_payload()) == record
        bare = TraceRecord(kind="event", name="arrival", ts=1.0)
        payload = bare.to_payload()
        assert set(payload) == {"kind", "name", "ts"}
        assert TraceRecord.from_payload(payload) == bare

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TraceRecord.from_payload({"kind": "blob", "name": "x",
                                      "ts": 0.0})

    def test_save_load_roundtrip(self, tmp_path):
        tracer = Tracer(run_id="rt", meta={"seed": 1})
        tracer.span("q", 0.1, 0.2, cat="query", qid=0)
        tracer.event("arrival", 0.1, qid=0)
        path = tracer.save(tmp_path / "t.jsonl")
        loaded = Trace.load(path)
        assert loaded.run_id == "rt"
        assert loaded.meta == {"seed": 1}
        assert loaded.records == tracer.records
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == TRACE_SCHEMA

    def test_load_rejects_truncation_and_schema(self, tmp_path):
        tracer = Tracer()
        tracer.event("arrival", 0.0)
        tracer.event("arrival", 1.0)
        path = tracer.save(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        (tmp_path / "cut.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="declares"):
            Trace.load(tmp_path / "cut.jsonl")
        bad = dict(json.loads(lines[0]), schema="other/9")
        (tmp_path / "bad.jsonl").write_text(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="schema"):
            Trace.load(tmp_path / "bad.jsonl")


class TestTracedRun:
    def test_tracing_leaves_report_bit_identical(self, traced_run):
        _, report, report_off = traced_run
        assert report == report_off

    def test_tracing_leaves_engine_counters_identical(self, light_stack):
        """The block span's ``iso_s`` must not price through the engine:
        a traced run does the same pricing work as an untraced one."""
        counters = []
        for tracer in (None, Tracer()):
            queries = poisson_queries(light_stack.compiled, MIX, 300, 80,
                                      seed=3)
            engine = Engine(light_stack.cost_model,
                            price_cache=PricingCache(), tracer=tracer)
            engine.run(queries, light_stack.make_scheduler("layerwise"))
            counters.append((asdict(engine.metrics),
                             engine.price_cache.stats()))
        assert counters[0] == counters[1]

    def test_veltair_ac_dispatch_records_planned_pressure(self,
                                                          light_stack):
        """A dispatch event records the pressure the policy planned
        with: veltair_ac plans on its quantized estimate."""
        tracer = Tracer()
        light_stack.report("veltair_ac", MIX, qps=300, count=60, seed=3,
                           tracer=tracer)
        pressures = [event.args["pressure"]
                     for event in tracer.trace().events("dispatch")]
        assert pressures
        engine = Engine(light_stack.cost_model)
        assert all(engine.quantize_pressure(pressure) == pressure
                   for pressure in pressures)

    def test_trace_wellformed(self, traced_run):
        trace, report, _ = traced_run
        assert validate_trace(trace) == []
        assert len(trace.spans("query")) == report.completed
        assert len(trace.spans("phase")) == report.completed
        assert len(trace.spans("block")) >= report.completed

    def test_summarize_reproduces_report_exactly(self, traced_run):
        trace, report, _ = traced_run
        summary = summarize_trace(trace)
        assert summary.completed == report.completed
        assert summary.average_latency_s == report.average_latency_s
        assert summary.satisfaction_rate == report.satisfaction_rate
        assert summary.p99_latency_s == report.p99_latency_s

    def test_phase_breakdown_consistent(self, traced_run):
        trace, _, _ = traced_run
        overall = summarize_trace(trace).overall
        assert overall.queries > 0
        for phase_s in (overall.queue_s, overall.execute_s,
                        overall.inter_block_s, overall.stall_s):
            assert phase_s >= 0.0
        # Queue + execute + scheduler gaps account for the full latency
        # (stall overlaps execute; it is a refinement, not an addend).
        total = (overall.queue_s + overall.execute_s
                 + overall.inter_block_s)
        assert total == pytest.approx(overall.latency_s, rel=1e-9)
        assert overall.stall_s <= overall.execute_s

    def test_chrome_export_validates(self, traced_run):
        trace, _, _ = traced_run
        payload = to_chrome(trace)
        assert validate_chrome(payload) == []
        kinds = {event["ph"] for event in payload["traceEvents"]}
        assert {"X", "b", "e", "M", "C"} <= kinds

    def test_prometheus_text(self, traced_run):
        trace, report, _ = traced_run
        text = prometheus_text(trace)
        assert "repro_query_latency_seconds_count" in text
        assert f" {report.completed}" in text

    def test_jsonl_roundtrip_preserves_summary(self, traced_run,
                                               tmp_path):
        trace, report, _ = traced_run
        loaded = Trace.load(trace.save(tmp_path / "run.jsonl"))
        assert len(loaded) == len(trace)
        assert (summarize_trace(loaded).average_latency_s
                == report.average_latency_s)


def _fast_policy() -> AutoscalePolicy:
    template = NodeSpec(name="auto", device=THREADRIPPER_3990X)
    return AutoscalePolicy(
        template=template, min_nodes=1, max_nodes=3,
        tick_s=0.02, warmup_s=0.04, cooldown_s=0.08,
        up_pressure=0.45, down_pressure=0.20,
        up_backlog_per_core=0.05, down_backlog_per_core=0.015,
        up_violation_rate=0.10, down_violation_rate=0.02,
        slo_window_s=0.15, panic_severity=2.0, quiet_ticks=3)


class TestClusterTrace:
    def test_fleet_reports_identical_and_routes_scored(self,
                                                       light_stack):
        def serve(tracer):
            cluster = Cluster(light_stack, homogeneous(2),
                              router="pressure_aware")
            return cluster.report(MIX, qps=300, count=60, seed=9,
                                  tracer=tracer)

        plain = serve(None)
        tracer = Tracer(run_id="fleet")
        traced = serve(tracer)
        assert traced == plain

        trace = tracer.trace()
        routes = trace.events("route")
        assert len(routes) == traced.admitted
        for route in routes:
            assert route.node, "route events carry the chosen node"
            scores = route.args["scores"]
            assert len(scores) == 2
            assert route.node in scores
        assert validate_trace(trace) == []
        assert validate_chrome(to_chrome(trace)) == []

    def test_autoscaled_serve_emits_signals_and_scaling(self,
                                                        light_stack):
        tracer = Tracer(run_id="elastic")
        cluster = Cluster(light_stack, homogeneous(1),
                          router="pressure_aware",
                          autoscale=_fast_policy())
        report = cluster.report(MIX, qps=400, count=200, seed=5,
                                scenario="diurnal", tracer=tracer)
        trace = tracer.trace()
        signals = trace.counters("fleet.signals")
        assert signals, "control ticks must surface as counters"
        for sample in signals:
            assert set(sample.args) == set(FLEET_SIGNAL_FIELDS)
        scale_events = [r for r in trace.events()
                        if r.name.startswith("scale.")]
        assert len(scale_events) == len(report.scaling_timeline)
        for event, logged in zip(scale_events, report.scaling_timeline):
            assert event.name == f"scale.{logged.action}"
            assert event.ts == logged.time_s
            assert event.node == logged.node


class TestZeroCompletionGuard:
    """A zero-completion probe can never read as serving capacity."""

    def test_forced_rate_with_no_completions_never_passes(self):
        def run(qps):
            report = summarize([], SimulationMetrics(), qps)
            object.__setattr__(report, "satisfaction_rate", 1.0)
            return report

        qps, report = max_qps_at_satisfaction(
            lambda loads: [run(qps) for qps in loads], low_qps=10,
            high_qps=400)
        assert qps == 10
        assert report.completed == 0


class TestCLI:
    @pytest.fixture()
    def trace_path(self, traced_run, tmp_path):
        trace, _, _ = traced_run
        return trace.save(tmp_path / "run.jsonl")

    def test_summarize(self, trace_path, traced_run, capsys):
        _, report, _ = traced_run
        assert telemetry_cli(["summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert f"average_latency_s={report.average_latency_s!r}" in out

    def test_export_chrome_and_prom(self, trace_path, capsys):
        assert telemetry_cli(["export", str(trace_path)]) == 0
        chrome = trace_path.with_suffix(".chrome.json")
        assert chrome.exists()
        payload = json.loads(chrome.read_text())
        assert validate_chrome(payload) == []
        assert telemetry_cli(["export", str(trace_path),
                              "--format", "prom"]) == 0
        assert trace_path.with_suffix(".prom").exists()

    def test_validate_and_diff(self, trace_path, capsys):
        assert telemetry_cli(["validate", str(trace_path)]) == 0
        assert telemetry_cli(["diff", str(trace_path),
                              str(trace_path)]) == 0

    def test_validate_flags_broken_nesting(self, tmp_path, capsys):
        tracer = Tracer(run_id="bad")
        tracer.span("m", 0.0, 0.1, cat="query", qid=0)
        tracer.span("m[0:1)", 0.05, 0.2, cat="block", qid=0)
        path = tracer.save(tmp_path / "bad.jsonl")
        assert telemetry_cli(["validate", str(path)]) == 1


class TestEnvHelpers:
    def test_tracer_from_env_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        tracer = tracer_from_env(run_id="envtest")
        assert tracer is not None
        tracer.event("arrival", 0.0)
        path = save_env_trace(tracer)
        assert path is not None and path.exists()
        assert len(Trace.load(path)) == 1

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
        assert tracer_from_env() is None
        assert save_env_trace(None) is None
