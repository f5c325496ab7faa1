"""The paper's *naive* interference-aware extension (Sec. 3.3).

To find the best code version for a target interference level, the paper
launches a background layer producing that level of pressure and re-runs
the whole auto-scheduler — one full pass per level.  Here the background
layer is the ``interference`` argument of the cost model, but the
structure (and the cost: ``levels x trials`` evaluations) is identical.

This module exists as the measured baseline that motivates the single-pass
compiler of :mod:`repro.compiler.multiversion`: same answers, one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.layers import LayerSpec
from repro.compiler.autoscheduler import AutoScheduler, SearchResult
from repro.compiler.schedule import Schedule


def default_levels(count: int) -> tuple[float, ...]:
    """``count`` interference levels spanning [0, 1] inclusive."""
    if count < 2:
        raise ValueError("need at least two levels")
    return tuple(i / (count - 1) for i in range(count))


@dataclass(frozen=True)
class MultiPassResult:
    """Per-level optima found by the naive multi-pass search."""

    layer: LayerSpec
    levels: tuple[float, ...]
    passes: tuple[SearchResult, ...]

    @property
    def schedules(self) -> tuple[Schedule, ...]:
        """The per-level best schedule, aligned with :attr:`levels`."""
        return tuple(p.best_schedule for p in self.passes)

    @property
    def total_trials(self) -> int:
        """Total evaluations spent — the cost Alg. 1 eliminates."""
        return sum(p.trials for p in self.passes)


def multi_pass_search(scheduler: AutoScheduler, layer: LayerSpec,
                      levels: int = 4, trials_per_pass: int = 512,
                      cores: int | None = None,
                      seed: int | None = None) -> MultiPassResult:
    """Run one full auto-scheduler pass per interference level.

    This is the experiment behind paper Fig. 6: each pass emulates a
    background co-runner holding pressure at its level while the search
    optimises the foreground layer.
    """
    level_values = default_levels(levels)
    passes = []
    for index, level in enumerate(level_values):
        pass_seed = None if seed is None else seed + index
        passes.append(scheduler.search(layer, interference=level,
                                       cores=cores,
                                       trials=trials_per_pass,
                                       seed=pass_seed))
    return MultiPassResult(layer=layer, levels=level_values,
                           passes=tuple(passes))
