"""Unified benchmark harness with machine-readable results.

``python -m repro.bench`` runs a registered benchmark suite and writes
one schema-versioned ``BENCH_<name>.json`` per result (metrics, scale
knobs, seed, git SHA) alongside the human tables — the artifact the CI
perf ratchet diffs against the committed baselines in
``benchmarks/baselines/``.

Layers:

* :mod:`repro.bench.results` — the :class:`BenchResult` schema, the
  JSON/table writer, and manifest-based pruning of stale result files.
* :mod:`repro.bench.registry` — the benchmark registry: native
  callables, standalone scripts, and pytest figure modules all register
  under one namespace.
* :mod:`repro.bench.compare` — per-metric tolerance comparison against
  baselines (the ratchet) and baseline updating.
* :mod:`repro.bench.suites` — the built-in suite: scenario benchmarks,
  the capacity cross-check, the engine/cluster scale gauges, and every
  paper figure.
* :mod:`repro.bench.__main__` — the CLI
  (``--quick | --full``, ``--only``, ``--check``,
  ``--update-baselines``, ``--list``).
"""

from repro.bench.compare import (
    Regression,
    Tolerance,
    compare_result,
    write_baseline,
)
from repro.bench.registry import (
    Benchmark,
    register_benchmark,
    registered_benchmarks,
    select_benchmarks,
)
from repro.bench.results import (
    RESULT_SCHEMA,
    BenchResult,
    load_result,
    slugify,
    validate_payload,
    write_result,
)

__all__ = [
    "BenchResult", "RESULT_SCHEMA", "write_result", "load_result",
    "validate_payload", "slugify",
    "Benchmark", "register_benchmark",
    "registered_benchmarks", "select_benchmarks",
    "Tolerance", "Regression", "compare_result", "write_baseline",
]
