"""Simulated auto-scheduler: evolutionary search over the schedule space.

Stands in for TVM's Ansor (paper Sec. 2.2): given a layer and an objective
interference level, it samples the legal schedule space, evolves the best
candidates by knob mutation, and returns both the winner and *every*
evaluated sample — the paper's single-pass multi-version compiler (Alg. 1)
consumes the full sample population, not just the winner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import make_rng
from repro.models.layers import LayerSpec
from repro.compiler.costmodel import CostModel
from repro.compiler.schedule import Schedule
from repro.compiler.space import ScheduleSpace


@dataclass(frozen=True)
class Measured:
    """One evaluated schedule sample."""

    schedule: Schedule
    latency_s: float

    @property
    def parallelism(self) -> int:
        return self.schedule.parallelism


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one auto-scheduler pass."""

    layer: LayerSpec
    interference: float
    cores: int
    samples: tuple[Measured, ...]

    @property
    def best(self) -> Measured:
        return min(self.samples, key=lambda m: m.latency_s)

    @property
    def best_schedule(self) -> Schedule:
        return self.best.schedule

    @property
    def trials(self) -> int:
        return len(self.samples)


class AutoScheduler:
    """Evolutionary schedule search against the analytic cost model.

    Parameters
    ----------
    cost_model:
        Platform-bound latency oracle.
    population:
        Survivor pool evolved each round.
    elite_fraction:
        Share of the pool kept unmutated between rounds.
    """

    def __init__(self, cost_model: CostModel, population: int = 64,
                 elite_fraction: float = 0.25) -> None:
        if not population >= 4:
            raise ValueError("population must be at least 4")
        if not 0.0 < elite_fraction < 1.0:
            raise ValueError("elite_fraction must be in (0, 1)")
        self.cost_model = cost_model
        self.population = population
        self.elite_fraction = elite_fraction
        #: Survivor-pool size after each evolution round of the last
        #: search — instrumentation for the pool-size invariant
        #: (``max(...) <= population``); reset per :meth:`search`.
        self.last_pool_sizes: list[int] = []

    def search(self, layer: LayerSpec, interference: float = 0.0,
               cores: int | None = None, trials: int = 512,
               seed: int | None = None) -> SearchResult:
        """Run one search pass; ``trials`` bounds total evaluations.

        ``cores`` is the grant assumed during tuning; the default is the
        whole machine, which is what an offline tuning run owns.
        """
        if trials < self.population:
            raise ValueError("trials must be >= population")
        cores = cores if cores is not None else self.cost_model.cpu.cores
        rng = make_rng(seed)
        space = ScheduleSpace.for_layer(layer)
        self.last_pool_sizes = []

        evaluated: dict[Schedule, float] = {}

        def measure(schedule: Schedule) -> float:
            cached = evaluated.get(schedule)
            if cached is None:
                cached = self.cost_model.latency(layer, schedule, cores,
                                                 interference)
                evaluated[schedule] = cached
            return cached

        # Half the budget is pure random exploration: the multi-version
        # compiler mines the *whole* sample population (paper Alg. 1
        # "record as many samples as possible"), so breadth matters as
        # much as the best point.
        explore = space.sample_many(trials // 2, rng)
        for schedule in explore:
            measure(schedule)
        pool = space.sample_many(self.population, rng)
        for schedule in pool:
            measure(schedule)

        elites = max(2, int(self.population * self.elite_fraction))
        previous_count = -1
        while len(evaluated) < trials and len(evaluated) > previous_count:
            # The count-growth guard terminates tiny spaces (fewer legal
            # schedules than trials) where mutation only finds duplicates.
            previous_count = len(evaluated)
            pool.sort(key=measure)
            parents = pool[:elites]
            children: list[Schedule] = list(parents)
            while (len(children) < self.population
                   and len(evaluated) + len(children) - elites < trials):
                parent = parents[int(rng.integers(0, len(parents)))]
                child = space.neighbours(parent, rng)
                children.append(child)
            if len(children) <= elites:
                break
            for child in children[elites:]:
                measure(child)
            # Occasional fresh immigrants keep the search from collapsing
            # into one basin of the space.
            if len(evaluated) < trials:
                for schedule in space.sample_many(
                        max(2, self.population // 8), rng):
                    if len(evaluated) >= trials:
                        break
                    measure(schedule)
                    children.append(schedule)
            # Re-cap the survivor pool: the immigrants above land on top
            # of an already population-sized fill, which used to ratchet
            # the pool above ``self.population`` every round.  Keeping
            # the best ``population`` members preserves the parent set
            # (the best ``elites`` of any superset containing the best
            # ``population`` are the same), so search results are
            # unchanged — only the invariant is restored.
            if len(children) > self.population:
                children.sort(key=measure)
                del children[self.population:]
            pool = children
            self.last_pool_sizes.append(len(pool))

        samples = tuple(Measured(schedule=s, latency_s=lat)
                        for s, lat in evaluated.items())
        return SearchResult(layer=layer, interference=interference,
                            cores=cores, samples=samples)
