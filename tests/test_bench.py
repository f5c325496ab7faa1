"""Bench-harness coverage: result schema, manifest pruning, ratchet.

Pure-unit tests over :mod:`repro.bench` — no stacks are compiled, so
this file pins the CI contract cheaply: schema validation, the JSON
writer's rename/orphan hygiene, tolerance semantics, baseline
round-trips, and registry selection.
"""

import json

import pytest

from repro.bench.compare import (
    Tolerance,
    compare_result,
    load_baseline,
    write_baseline,
)
from repro.bench.registry import select_benchmarks
from repro.bench.results import (
    RESULT_SCHEMA,
    BenchResult,
    load_result,
    prune_orphans,
    result_path,
    slugify,
    validate_payload,
    write_result,
)


def make_result(name="demo", title="Demo: table", metrics=None,
                tables=None):
    return BenchResult(
        name=name, title=title,
        metrics={"speed": 2.5, "sat": 0.95} if metrics is None
        else metrics,
        knobs={"queries": 10}, tables=tables if tables is not None
        else {title: "a  b\n1  2"},
        seed=7, sha="deadbeef", created_utc="2026-07-30T00:00:00+00:00")


class TestBenchResult:
    def test_rejects_bad_names(self):
        with pytest.raises(ValueError, match="name"):
            make_result(name="Bad Name")
        with pytest.raises(ValueError, match="name"):
            make_result(name="")

    def test_rejects_non_numeric_metrics(self):
        with pytest.raises(ValueError, match="not a number"):
            make_result(metrics={"oops": "fast"})
        with pytest.raises(ValueError, match="not a number"):
            make_result(metrics={"oops": True})

    def test_payload_is_schema_valid(self):
        payload = make_result().to_payload()
        assert payload["schema"] == RESULT_SCHEMA
        assert validate_payload(payload) == []

    def test_validate_catches_corruption(self):
        payload = make_result().to_payload()
        payload["schema"] = "other/0"
        payload["metrics"]["bad"] = "nope"
        del payload["title"]
        errors = validate_payload(payload)
        assert len(errors) == 3

    def test_write_load_round_trip(self, tmp_path):
        path = write_result(make_result(), tmp_path)
        assert path.name == "BENCH_demo.json"
        loaded = load_result(path)
        assert loaded.metrics == {"speed": 2.5, "sat": 0.95}
        assert loaded.tables["Demo: table"].startswith("a  b")

    def test_slugify_is_portable(self):
        assert slugify("Fig 12: QPS at 95% QoS") == "fig_12_qps_at_95_qos"


class TestManifestHygiene:
    def test_rename_deletes_stale_table(self, tmp_path):
        write_result(make_result(title="Old title",
                                 tables={"Old title": "x"}), tmp_path)
        assert (tmp_path / "old_title.txt").exists()
        # Same benchmark name, renamed figure title: the stale .txt is
        # deleted the moment the renamed result records again — the
        # pre-JSON writer leaked it forever.
        write_result(make_result(title="New title",
                                 tables={"New title": "y"}), tmp_path)
        assert not (tmp_path / "old_title.txt").exists()
        assert (tmp_path / "new_title.txt").exists()

    def test_prune_orphans_by_known_names(self, tmp_path):
        write_result(make_result(name="alive"), tmp_path)
        write_result(make_result(name="renamed_away",
                                 title="Gone: soon",
                                 tables={"Gone: soon": "z"}), tmp_path)
        (tmp_path / "stray.txt").write_text("leftover")
        deleted = prune_orphans(tmp_path, known_names={"alive"})
        assert sorted(deleted) == ["BENCH_renamed_away.json",
                                   "gone_soon.txt", "stray.txt"]
        assert result_path(tmp_path, "alive").exists()

    def test_prune_missing_dir_is_noop(self, tmp_path):
        assert prune_orphans(tmp_path / "nope") == []


class TestTolerance:
    def test_two_sided_band(self):
        tol = Tolerance(rel=0.10, abs=0.0)
        assert tol.verdict(108.0, 100.0) is None
        assert tol.verdict(92.0, 100.0) is None
        assert tol.verdict(111.0, 100.0) is not None
        assert tol.verdict(89.0, 100.0) is not None

    def test_abs_floor_protects_near_zero(self):
        tol = Tolerance(rel=0.10, abs=0.5)
        assert tol.verdict(0.4, 0.0) is None
        assert tol.verdict(0.6, 0.0) is not None

    def test_directional(self):
        higher = Tolerance(rel=0.05, direction="higher_is_better")
        assert higher.verdict(200.0, 100.0) is None
        assert higher.verdict(90.0, 100.0) is not None
        lower = Tolerance(rel=0.05, direction="lower_is_better")
        assert lower.verdict(50.0, 100.0) is None
        assert lower.verdict(110.0, 100.0) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-0.1)
        with pytest.raises(ValueError):
            Tolerance(direction="sideways")


class TestRatchet:
    def test_within_tolerance_passes(self):
        baseline = make_result()
        current = make_result(metrics={"speed": 2.6, "sat": 0.94})
        assert compare_result(current, baseline, {},
                              Tolerance(rel=0.10, abs=0.02)) == []

    def test_regression_detected(self):
        baseline = make_result()
        current = make_result(metrics={"speed": 1.0, "sat": 0.95})
        regressions = compare_result(current, baseline, {},
                                     Tolerance(rel=0.10))
        assert len(regressions) == 1
        assert regressions[0].metric == "speed"
        assert "drift" in regressions[0].detail

    def test_missing_metric_is_a_regression(self):
        baseline = make_result()
        current = make_result(metrics={"speed": 2.5})
        regressions = compare_result(current, baseline, {}, Tolerance())
        assert [r.metric for r in regressions] == ["sat"]

    def test_new_metric_passes_until_blessed(self):
        baseline = make_result(metrics={"speed": 2.5})
        current = make_result(metrics={"speed": 2.5, "extra": 9.0})
        assert compare_result(current, baseline, {}, Tolerance()) == []

    def test_per_metric_tolerance_wins_over_default(self):
        baseline = make_result()
        current = make_result(metrics={"speed": 2.4, "sat": 0.5})
        regressions = compare_result(
            current, baseline, {"sat": Tolerance(rel=0.9)},
            Tolerance(rel=0.10))
        assert regressions == []

    def test_baseline_round_trip_with_tolerances(self, tmp_path):
        blessed = write_baseline(make_result(), tmp_path,
                                 {"sat": Tolerance(rel=0.0, abs=0.01)},
                                 Tolerance(rel=0.2))
        payload = json.loads(blessed.read_text())
        assert set(payload["tolerances"]) == {"speed", "sat"}
        baseline, tolerances = load_baseline(tmp_path, "demo")
        assert baseline.metrics["speed"] == 2.5
        assert tolerances["sat"].abs == 0.01
        assert tolerances["speed"].rel == 0.2


class TestRegistrySelection:
    def test_quick_suite_contents(self):
        quick = {b.name for b in select_benchmarks(quick=True)}
        assert {"scenario_capacity", "scenario_service",
                "trace_roundtrip", "engine_scale",
                "cluster_scale"} <= quick
        assert "fig12" not in quick

    def test_full_suite_includes_figures(self):
        names = {b.name for b in select_benchmarks(quick=False)}
        assert {"fig01", "fig12", "fig14", "table2", "ablations"} <= names

    def test_only_overrides_mode_and_resolves_prefixes(self):
        picked = select_benchmarks(["fig12", "cluster"], quick=True)
        assert [b.name for b in picked] == ["fig12", "cluster_scale"]

    def test_only_rejects_ambiguous_and_unknown(self):
        with pytest.raises(KeyError, match="ambiguous"):
            select_benchmarks(["fig1"], quick=True)
        with pytest.raises(KeyError, match="unknown benchmark"):
            select_benchmarks(["nope"], quick=True)

    def test_pytest_figures_declare_results(self):
        fig14 = next(b for b in select_benchmarks(quick=False)
                     if b.name == "fig14")
        assert fig14.result_names == ("fig14a", "fig14b", "fig14c")
