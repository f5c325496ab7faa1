"""Paper Algorithm 1: static multi-version compilation in a single pass.

Pipeline per layer (Fig. 9b-d):

1. run ONE auto-scheduler pass and keep every evaluated sample;
2. drop samples that cannot meet the layer's QoS budget (the per-layer
   budget is the model QoS split proportionally to op count — Alg. 1
   line 3);
3. extract the *dominant* implementations: the Pareto-minimal set on
   (blocking size, parallelism).  Both metrics price a contended
   resource — blocking claims shared LLC, parallelism claims cores — so
   points with another implementation below-left of them are never the
   cheapest way to meet QoS.  The QoS filter is what bends this frontier:
   cheap-on-both points are too slow and have already been removed;
4. pick up to V versions uniformly along the frontier (by blocking size);
5. test the picks across interference levels and drop versions whose
   removal keeps the per-level best latency within ``keep_threshold`` of
   the full set — most layers need fewer than V versions (paper Fig. 7b).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

from repro.models.layers import LayerSpec
from repro.compiler.autoscheduler import AutoScheduler, Measured
from repro.compiler.costmodel import CostModel
from repro.compiler.interference_aware import default_levels
from repro.compiler.schedule import Schedule

#: Paper Sec. 5.5: the empirically-chosen maximal version count.
DEFAULT_MAX_VERSIONS = 5

#: Paper Sec. 3.3 / 4.1 evaluate ten interference levels.
DEFAULT_LEVELS = 10

#: Keep pruning while the per-level best stays within this fraction of the
#: full set's best (the paper's Sec. 4.1 redundancy-removal rule).
DEFAULT_KEEP_THRESHOLD = 0.95


def extract_dominant(samples: list[Measured]) -> list[Measured]:
    """Pareto-minimal samples on (blocking size, parallelism).

    A sample is dominated when another sample has blocking size and
    parallelism both no larger, at least one strictly smaller (Alg. 1
    ``ExtractDominant``).  Ties on both metrics keep the fastest sample.
    """
    best_by_point: dict[tuple[int, int], Measured] = {}
    for sample in samples:
        point = (sample.schedule.blocking_size, sample.parallelism)
        seen = best_by_point.get(point)
        if seen is None or sample.latency_s < seen.latency_s:
            best_by_point[point] = sample

    # Sweep by blocking size; keep points whose parallelism strictly
    # improves on everything with smaller-or-equal blocking.
    ordered = sorted(best_by_point.values(),
                     key=lambda s: (s.schedule.blocking_size,
                                    s.parallelism))
    frontier: list[Measured] = []
    best_parallelism = math.inf
    for sample in ordered:
        if sample.parallelism < best_parallelism:
            frontier.append(sample)
            best_parallelism = sample.parallelism
    return frontier


def uniform_pick(frontier: list[Measured],
                 max_versions: int) -> list[Measured]:
    """Up to ``max_versions`` frontier points, uniform along the frontier.

    The frontier arrives sorted by blocking size; the ends (most-local and
    most-parallel implementations) are always included.
    """
    if max_versions <= 0:
        raise ValueError("max_versions must be positive")
    if len(frontier) <= max_versions:
        return list(frontier)
    if max_versions == 1:
        return [frontier[0]]
    span = len(frontier) - 1
    indices = sorted({round(i * span / (max_versions - 1))
                      for i in range(max_versions)})
    return [frontier[i] for i in indices]


@dataclass(frozen=True)
class CompiledLayer:
    """Multi-version compilation result for one layer.

    ``versions`` are ordered by descending blocking size: index 0 is the
    most locality-heavy (light-interference) version, the last index the
    most parallelism-heavy (heavy-interference) version.
    """

    layer: LayerSpec
    qos_budget_s: float
    levels: tuple[float, ...]
    versions: tuple[Schedule, ...]
    #: versions x levels latency table measured at the tuning core grant.
    latency_table: tuple[tuple[float, ...], ...]
    #: Per level, the index of the best version.
    version_for_level: tuple[int, ...]
    #: Diagnostics: frontier size and total evaluated samples.
    dominant_count: int
    sample_count: int

    def __post_init__(self) -> None:
        if not self.versions:
            raise ValueError(f"layer {self.layer.name!r} has no versions")
        if len(self.latency_table) != len(self.versions):
            raise ValueError("latency table does not match versions")
        if len(self.version_for_level) != len(self.levels):
            raise ValueError("level map does not match levels")

    @property
    def version_count(self) -> int:
        return len(self.versions)

    def level_index(self, interference: float) -> int:
        """Nearest calibration level for a pressure value (equal
        distances resolve to the lower level)."""
        levels = self.levels
        return min(range(len(levels)),
                   key=lambda i: abs(levels[i] - interference))

    def version_index_for(self, interference: float) -> int:
        return self.version_for_level[self.level_index(interference)]

    def version_for(self, interference: float) -> Schedule:
        """The version the runtime should run at this pressure level."""
        return self.versions[self.version_index_for(interference)]

    def static_version(self) -> Schedule:
        """The isolation-optimal version (what plain Ansor would ship)."""
        return self.versions[self.version_for_level[0]]


class SinglePassCompiler:
    """Algorithm 1, bound to a cost model and an auto-scheduler."""

    def __init__(self, cost_model: CostModel,
                 scheduler: AutoScheduler | None = None,
                 trials: int = 512,
                 levels: int = DEFAULT_LEVELS,
                 max_versions: int = DEFAULT_MAX_VERSIONS,
                 keep_threshold: float = DEFAULT_KEEP_THRESHOLD,
                 tuning_cores: int | None = None,
                 seed: int = 0) -> None:
        if not 0.0 < keep_threshold <= 1.0:
            raise ValueError("keep_threshold must be in (0, 1]")
        self.cost_model = cost_model
        self.scheduler = scheduler or AutoScheduler(cost_model)
        self.trials = trials
        self.levels = default_levels(levels)
        self.max_versions = max_versions
        self.keep_threshold = keep_threshold
        # Per-level version tables are profiled at a realistic multi-tenant
        # grant (half the machine), not the whole chip the tuning pass
        # owns — co-located tasks never see all cores.
        self.tuning_cores = (tuning_cores if tuning_cores is not None
                             else max(1, cost_model.cpu.cores // 2))
        self.seed = seed

    # ------------------------------------------------------------------

    def compile_layer(self, layer: LayerSpec,
                      qos_budget_s: float) -> CompiledLayer:
        """Run Alg. 1 for one layer with a per-layer latency budget."""
        if qos_budget_s <= 0:
            raise ValueError("qos_budget_s must be positive")
        # zlib.crc32, not hash(): hashes of str/tuple values are salted
        # per process (PYTHONHASHSEED), which would make compiled
        # artifacts — and every simulation built on them —
        # irreproducible across runs.
        search = self.scheduler.search(
            layer, interference=0.0, trials=self.trials,
            seed=self.seed ^ (zlib.crc32(repr(layer.signature).encode())
                              & 0x7FFFFFFF))

        qualified = [m for m in search.samples
                     if m.latency_s <= qos_budget_s]
        if not qualified:
            # No sample meets the budget even alone on the machine: keep
            # the fastest few so serving degrades instead of failing.
            qualified = sorted(search.samples,
                               key=lambda m: m.latency_s)[:8]

        frontier = extract_dominant(qualified)

        # Candidate versions: the best-performing qualified sample at each
        # interference level (the paper's Sec. 3.3 per-level profiling),
        # re-scored at a realistic multi-tenant core grant.
        picks = self._per_level_winners(layer, qualified)
        if len(picks) > self.max_versions:
            picks.sort(key=lambda m: m.schedule.blocking_size)
            picks = uniform_pick(picks, self.max_versions)

        table = [[self.cost_model.latency(layer, m.schedule,
                                          self.tuning_cores, level)
                  for level in self.levels] for m in picks]
        kept = self._prune(picks, table)
        picks = [picks[i] for i in kept]
        table = [table[i] for i in kept]

        # Most-local version first (see CompiledLayer docstring).
        order = sorted(range(len(picks)),
                       key=lambda i: -picks[i].schedule.blocking_size)
        picks = [picks[i] for i in order]
        table = [table[i] for i in order]

        version_for_level = tuple(
            min(range(len(picks)), key=lambda v: table[v][li])
            for li in range(len(self.levels)))
        return CompiledLayer(
            layer=layer,
            qos_budget_s=qos_budget_s,
            levels=self.levels,
            versions=tuple(m.schedule for m in picks),
            latency_table=tuple(tuple(row) for row in table),
            version_for_level=version_for_level,
            dominant_count=len(frontier),
            sample_count=len(search.samples),
        )

    # ------------------------------------------------------------------

    def _per_level_winners(self, layer: LayerSpec,
                           qualified: list[Measured]) -> list[Measured]:
        """The per-interference-level best schedules among the samples.

        At most one candidate per level, deduplicated; this is the ideal
        version set the multi-pass extension would find, recovered from
        the single pass's sample population for free.
        """
        winners: dict = {}
        for level in self.levels:
            best = min(qualified,
                       key=lambda m, level=level: self.cost_model.latency(
                           layer, m.schedule, self.tuning_cores, level))
            winners.setdefault(best.schedule, best)
        return list(winners.values())

    def _prune(self, picks: list[Measured],
               table: list[list[float]]) -> list[int]:
        """Drop versions whose removal keeps per-level best within bound.

        Returns indices of the kept versions (at least one, and always at
        most ``max_versions``).  Greedy: repeatedly remove the version
        whose removal hurts least, while every level's best latency stays
        within ``1/keep_threshold`` of the full set's best.
        """
        levels = range(len(self.levels))
        full_best = [min(table[v][li] for v in range(len(picks)))
                     for li in levels]
        kept = list(range(len(picks)))
        while len(kept) > 1:
            best_candidate = None
            best_score = None
            for candidate in kept:
                remaining = [v for v in kept if v != candidate]
                worst_ratio = max(
                    min(table[v][li] for v in remaining) / full_best[li]
                    for li in levels)
                if worst_ratio <= 1.0 / self.keep_threshold:
                    if best_score is None or worst_ratio < best_score:
                        best_score = worst_ratio
                        best_candidate = candidate
            if best_candidate is None:
                break
            kept.remove(best_candidate)
        return kept
