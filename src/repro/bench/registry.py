"""The benchmark registry: one namespace over three benchmark kinds.

* ``native``  — a Python callable running inside this process against a
  :class:`BenchContext` (the scenario suite, the capacity cross-check).
* ``script``  — a standalone ``benchmarks/*.py`` with a ``--json`` flag
  (the engine/cluster scale gauges); run as a subprocess so its
  acceptance assertions keep their own exit code.
* ``pytest``  — a paper-figure module under ``benchmarks/``; run through
  pytest, results written by the benchmark's ``record(...)`` calls.

Each entry names the results it ``produces`` (one benchmark may emit
several, e.g. Fig. 3a and 3b), whether it belongs to the ``--quick``
suite CI ratchets on, and the tolerance spec its baselines are blessed
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.bench.compare import Tolerance
from repro.bench.results import BenchResult

KINDS = ("native", "script", "pytest")


@dataclass
class BenchContext:
    """Everything a native benchmark needs to run.

    ``stack_cache`` memoises compiled :class:`ServingStack` instances
    across the suite (keyed by build arguments), because compilation
    dominates quick-mode wall clock and several benchmarks share one
    small stack.
    """

    quick: bool
    seed: int
    out_dir: Path
    bench_dir: Path
    queries: int
    trials: int
    tolerance_qps: float
    workers: int
    stack_cache: dict = field(default_factory=dict)

    def stack(self, models: tuple[str, ...], trials: int | None = None,
              seed: int = 11, proxy_scenarios: int = 60, cpu=None):
        """A memoised ServingStack (compile once per suite run)."""
        from repro.serving.server import ServingStack
        trials = trials if trials is not None else self.trials
        key = (models, trials, seed, proxy_scenarios,
               cpu.name if cpu is not None else None)
        if key not in self.stack_cache:
            self.stack_cache[key] = ServingStack(
                cpu=cpu, models=list(models), trials=trials,
                proxy_scenarios=proxy_scenarios, seed=seed)
        return self.stack_cache[key]

    def knobs(self, **extra) -> dict:
        base = {"quick": self.quick, "queries": self.queries,
                "trials": self.trials,
                "tolerance_qps": self.tolerance_qps}
        base.update(extra)
        return base


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark."""

    name: str
    description: str
    kind: str
    quick: bool = False
    runner: Callable[[BenchContext], list[BenchResult]] | None = None
    path: str | None = None
    script_args: tuple[str, ...] = ()
    produces: tuple[str, ...] = ()
    tolerances: Mapping[str, Tolerance] = field(default_factory=dict)
    default_tolerance: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind == "native" and self.runner is None:
            raise ValueError(f"native benchmark {self.name!r} needs a "
                             "runner")
        if self.kind in ("script", "pytest") and not self.path:
            raise ValueError(f"{self.kind} benchmark {self.name!r} needs "
                             "a path")

    @property
    def result_names(self) -> tuple[str, ...]:
        return self.produces if self.produces else (self.name,)


_REGISTRY: dict[str, Benchmark] = {}


def register_benchmark(benchmark: Benchmark) -> Benchmark:
    if benchmark.name in _REGISTRY:
        raise ValueError(f"benchmark {benchmark.name!r} already "
                         "registered")
    _REGISTRY[benchmark.name] = benchmark
    return benchmark


def registered_benchmarks() -> list[Benchmark]:
    _ensure_suites()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def select_benchmarks(only: list[str] | None = None,
                      quick: bool = True) -> list[Benchmark]:
    """The run set: the quick suite, the full suite, or ``--only`` picks.

    ``--only`` names win over the quick/full split — asking for a
    specific benchmark runs it in either mode.
    """
    benchmarks = registered_benchmarks()
    if only:
        resolved = []
        for asked in dict.fromkeys(only):  # preserve ask order, dedupe
            if asked in _REGISTRY:
                resolved.append(asked)
                continue
            matches = [name for name in sorted(_REGISTRY)
                       if name.startswith(asked)]
            if len(matches) == 1:  # unique prefix, e.g. "cluster"
                resolved.append(matches[0])
            elif matches:
                raise KeyError(f"{asked!r} is ambiguous: {matches}")
            else:
                raise KeyError(f"unknown benchmark {asked!r}; known: "
                               f"{sorted(_REGISTRY)}")
        return [_REGISTRY[name] for name in dict.fromkeys(resolved)]
    if quick:
        return [b for b in benchmarks if b.quick]
    return benchmarks


def _ensure_suites() -> None:
    """Idempotently load the built-in suite definitions."""
    import repro.bench.suites  # noqa: F401  (registers on import)
