"""repro.checks: per-rule fixtures, suppressions, schema drift, CLI.

The fixture snippets under ``tests/checks_fixtures/`` are deliberate
rule violations (excluded from the default walk); every rule is tested
against a known-bad and a known-good file, the frozen-key-schema rule
against a mutated ``CpuSpec`` copy, and the whole tree must come back
clean — the checker is part of tier-1, like the ratchet.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.checks import (CheckConfig, HashRule, IterationRule, RngRule,
                          SchemaRule, TracerRule, WallclockRule,
                          all_rules, rule_by_name, run_checks,
                          update_snapshot)
from repro.checks.__main__ import main as checks_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "checks_fixtures"

#: A config that walks nothing by default and scopes nothing, so each
#: test aims exactly one rule at exactly one fixture file.
OPEN_CONFIG = CheckConfig(roots=(), exclude=(), scopes={})

RULE_FIXTURES = [
    (WallclockRule, "wallclock", 4),
    (HashRule, "hash", 3),
    (RngRule, "rng", 4),
    (TracerRule, "tracer", 4),
    (IterationRule, "iteration", 5),
]


def check_fixture(rule, name):
    return run_checks(ROOT, config=OPEN_CONFIG, rules=[rule()],
                      paths=[str(FIXTURES / name)])


class TestRuleFixtures:
    @pytest.mark.parametrize("rule,stem,expected",
                             RULE_FIXTURES,
                             ids=[stem for _, stem, _ in RULE_FIXTURES])
    def test_bad_fixture_fires(self, rule, stem, expected):
        findings = check_fixture(rule, f"{stem}_bad.py")
        assert len(findings) == expected, \
            [f.text() for f in findings]
        assert all(f.rule == rule.name for f in findings)
        # Location info must be real: every finding names the fixture
        # and a positive line.
        assert all(f.path.endswith(f"{stem}_bad.py") and f.line > 0
                   for f in findings)

    @pytest.mark.parametrize("rule,stem,expected",
                             RULE_FIXTURES,
                             ids=[stem for _, stem, _ in RULE_FIXTURES])
    def test_good_fixture_clean(self, rule, stem, expected):
        assert check_fixture(rule, f"{stem}_good.py") == []

    def test_findings_sorted_and_deduped(self):
        findings = check_fixture(IterationRule, "iteration_bad.py")
        assert findings == sorted(findings)
        assert len({(f.line, f.col) for f in findings}) == len(findings)


class TestSuppressions:
    def test_wellformed_suppressions_silence(self):
        findings = run_checks(ROOT, config=OPEN_CONFIG,
                              paths=[str(FIXTURES / "suppressed.py")])
        # Full rule set: unused suppressions would be reported, so an
        # empty result proves both suppressions matched a finding.
        assert findings == []

    def test_malformed_and_unused_reported(self):
        findings = run_checks(
            ROOT, config=OPEN_CONFIG,
            paths=[str(FIXTURES / "suppression_malformed.py")])
        rules = sorted(f.rule for f in findings)
        assert rules == ["malformed-suppression", "no-wallclock",
                         "unused-suppression"]

    def test_rule_subset_skips_unused_reporting(self):
        # With a rule subset the unused-suppression report is off (a
        # suppression for an unselected rule is merely unchecked), but
        # malformed suppressions are still findings.
        findings = run_checks(
            ROOT, config=OPEN_CONFIG, rules=[WallclockRule()],
            paths=[str(FIXTURES / "suppression_malformed.py")])
        assert sorted(f.rule for f in findings) == \
            ["malformed-suppression", "no-wallclock"]


class TestTreeClean:
    def test_repo_is_clean(self):
        # The acceptance gate: the committed tree has zero unsuppressed
        # findings under the default (CI) configuration.
        assert run_checks(ROOT) == []

    def test_rule_registry(self):
        names = [rule.name for rule in all_rules()]
        assert len(names) == len(set(names)) == 6
        assert rule_by_name("no-wallclock").name == "no-wallclock"
        with pytest.raises(KeyError):
            rule_by_name("no-such-rule")


class TestSchemaRule:
    def _mutated_config(self, tmp_path, platform_edit=None,
                        artifacts_edit=None):
        """A config whose schema sources are editable tmp copies."""
        platform = tmp_path / "platform.py"
        costmodel = tmp_path / "costmodel.py"
        artifacts = tmp_path / "artifacts.py"
        snapshot = tmp_path / "schema_snapshot.json"
        shutil.copy(ROOT / "src/repro/hardware/platform.py", platform)
        shutil.copy(ROOT / "src/repro/compiler/costmodel.py", costmodel)
        shutil.copy(ROOT / "src/repro/compiler/artifacts.py", artifacts)
        shutil.copy(ROOT / "src/repro/checks/schema_snapshot.json",
                    snapshot)
        if platform_edit:
            platform.write_text(platform_edit(platform.read_text()))
        if artifacts_edit:
            artifacts.write_text(artifacts_edit(artifacts.read_text()))
        return CheckConfig(
            roots=(), exclude=(), scopes={},
            snapshot_path=str(snapshot),
            schema_classes={"CpuSpec": str(platform),
                            "AcceleratorSpec": str(platform),
                            "CostModelParams": str(costmodel)},
            artifacts_path=str(artifacts))

    def test_unmutated_copies_match_snapshot(self, tmp_path):
        config = self._mutated_config(tmp_path)
        assert SchemaRule().check_tree(ROOT, config) == []

    def test_added_cpuspec_field_fires(self, tmp_path):
        config = self._mutated_config(
            tmp_path,
            platform_edit=lambda src: src.replace(
                "    thread_spawn_s: float = 12e-6",
                "    thread_spawn_s: float = 12e-6\n"
                "    numa_domains: int = 4"))
        findings = SchemaRule().check_tree(ROOT, config)
        assert len(findings) == 1
        assert findings[0].rule == "frozen-key-schema"
        assert "CpuSpec" in findings[0].message
        assert "numa_domains" in findings[0].message
        assert "ARTIFACT_SCHEMA" in findings[0].message

    def test_default_change_fires(self, tmp_path):
        config = self._mutated_config(
            tmp_path,
            platform_edit=lambda src: src.replace(
                "    thread_spawn_s: float = 12e-6",
                "    thread_spawn_s: float = 13e-6"))
        findings = SchemaRule().check_tree(ROOT, config)
        assert len(findings) == 1
        assert "annotation or default changed" in findings[0].message

    def test_context_key_drift_fires(self, tmp_path):
        config = self._mutated_config(
            tmp_path,
            artifacts_edit=lambda src: src.replace(
                '"seed": single_pass.seed,',
                '"seed": single_pass.seed,\n'
                '        "flavor": "spicy",'))
        findings = SchemaRule().check_tree(ROOT, config)
        assert len(findings) == 1
        assert "compiler_context" in findings[0].message
        assert "flavor" in findings[0].message

    def test_update_refuses_without_schema_bump(self, tmp_path):
        config = self._mutated_config(
            tmp_path,
            platform_edit=lambda src: src.replace(
                "    thread_spawn_s: float = 12e-6",
                "    thread_spawn_s: float = 12e-6\n"
                "    numa_domains: int = 4"))
        ok, message = update_snapshot(ROOT, config)
        assert not ok
        assert "bump" in message

    def test_update_succeeds_with_schema_bump(self, tmp_path):
        config = self._mutated_config(
            tmp_path,
            platform_edit=lambda src: src.replace(
                "    thread_spawn_s: float = 12e-6",
                "    thread_spawn_s: float = 12e-6\n"
                "    numa_domains: int = 4"),
            artifacts_edit=lambda src: src.replace(
                'ARTIFACT_SCHEMA = "repro.compiler.artifact/1"',
                'ARTIFACT_SCHEMA = "repro.compiler.artifact/2"'))
        ok, message = update_snapshot(ROOT, config)
        assert ok, message
        # After regeneration the mutated tree is clean again.
        assert SchemaRule().check_tree(ROOT, config) == []

    def test_missing_snapshot_fires(self, tmp_path):
        config = self._mutated_config(tmp_path)
        (tmp_path / "schema_snapshot.json").unlink()
        findings = SchemaRule().check_tree(ROOT, config)
        assert len(findings) == 1
        assert "missing" in findings[0].message


class TestCli:
    def _bad_copy(self, tmp_path, stem):
        # Under src/ so the default per-rule scopes (some rules only
        # run on library code) all apply to the copy.
        (tmp_path / "src").mkdir(exist_ok=True)
        shutil.copy(FIXTURES / f"{stem}_bad.py",
                    tmp_path / "src" / f"{stem}_bad.py")
        return f"src/{stem}_bad.py"

    def test_clean_tree_exits_zero(self):
        assert checks_main(["--root", str(ROOT)]) == 0

    def test_list(self, capsys):
        assert checks_main(["--list"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out

    @pytest.mark.parametrize("stem,rule_name", [
        ("wallclock", "no-wallclock"),
        ("hash", "no-salted-hash"),
        ("rng", "seeded-rng-only"),
        ("tracer", "tracer-observational"),
        ("iteration", "deterministic-iteration"),
    ])
    def test_bad_fixture_exits_nonzero(self, tmp_path, capsys,
                                       stem, rule_name):
        name = self._bad_copy(tmp_path, stem)
        code = checks_main(["--root", str(tmp_path), "--rule",
                            rule_name, name])
        assert code == 1
        assert rule_name in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        name = self._bad_copy(tmp_path, "wallclock")
        code = checks_main(["--root", str(tmp_path), "--rule",
                            "no-wallclock", "--format", "json", name])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert payload[0]["rule"] == "no-wallclock"
        assert payload[0]["path"].endswith("wallclock_bad.py")

    def test_github_format(self, tmp_path, capsys):
        name = self._bad_copy(tmp_path, "wallclock")
        code = checks_main(["--root", str(tmp_path), "--rule",
                            "no-wallclock", "--format", "github", name])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=repro.checks[no-wallclock]" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert checks_main(["--root", str(ROOT), "--rule",
                            "nope"]) == 2

    def test_update_schema_noop_on_clean_tree(self, capsys):
        assert checks_main(["--root", str(ROOT),
                            "--update-schema"]) == 0
        assert "up to date" in capsys.readouterr().out
