"""repro.checks — AST-based invariant linter for this reproduction.

Machine-checks the conventions every figure rests on, the way the
perf ratchet machine-checks speed:

* ``no-wallclock`` — simulated time is the only clock results read.
* ``no-salted-hash`` — key/digest/ordering material is crc32, never
  the PYTHONHASHSEED-salted builtin ``hash()`` (or ``id()``).
* ``seeded-rng-only`` — randomness flows through explicit seeded
  Generators (``repro.config.make_rng``), never hidden global state.
* ``tracer-observational`` — telemetry is guarded at every call site
  and never feeds back into simulation control flow.
* ``deterministic-iteration`` — no order-sensitive walks of sets or
  filesystem listings in result-affecting code.
* ``frozen-key-schema`` — the artifact-key field schemas are diffed
  against a committed snapshot; drift requires an ARTIFACT_SCHEMA
  bump.

Run ``python -m repro.checks`` from the repo root; suppress a finding
inline with ``# repro: ignore[rule] -- reason``.  Zero dependencies:
stdlib ``ast`` only.
"""

from __future__ import annotations

from repro.checks.config import CheckConfig
from repro.checks.core import Rule, run_checks
from repro.checks.hashing import HashRule
from repro.checks.iteration import IterationRule
from repro.checks.rng import RngRule
from repro.checks.schema import SchemaRule, update_snapshot
from repro.checks.tracer import TracerRule
from repro.checks.wallclock import WallclockRule

__all__ = [
    "CheckConfig", "run_checks", "all_rules", "rule_by_name",
    "update_snapshot",
]


def all_rules() -> tuple[Rule, ...]:
    """One fresh instance of every registered rule, stable order."""
    return (WallclockRule(), HashRule(), RngRule(), TracerRule(),
            IterationRule(), SchemaRule())


def rule_by_name(name: str) -> Rule:
    for rule in all_rules():
        if rule.name == name:
            return rule
    known = ", ".join(rule.name for rule in all_rules())
    raise KeyError(f"unknown rule '{name}' (known: {known})")
