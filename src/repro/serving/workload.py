"""Query stream generation following the MLPerf server scenario.

Arrivals are Poisson with rate ``qps`` (paper Sec. 5.1); the mixed
workload draws each model with frequency inversely proportional to its
QoS target, as the paper does following datacenter trace analyses.

Beyond the stationary Poisson default, :mod:`repro.workloads` provides
trace-driven scenarios (bursty MMPP, diurnal ramps, flash crowds,
tenant churn, trace replay); :func:`scenario_queries` is the bridge —
the ``"poisson"`` scenario reproduces :func:`poisson_queries` bit for
bit, so scenario-threaded experiments subsume the legacy path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.config import make_rng
from repro.compiler.library import CompiledModel
from repro.models.registry import (
    HEAVY,
    LIGHT,
    MEDIUM,
    get_entry,
    model_names,
)
from repro.runtime.tasks import Query


@dataclass(frozen=True)
class WorkloadSpec:
    """A named mixture of models with sampling weights."""

    name: str
    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"workload {self.name!r} is empty")
        if not all(0.0 < weight < math.inf for _, weight in self.entries):
            raise ValueError(f"workload {self.name!r} has non-positive or "
                             "non-finite weights")

    @property
    def models(self) -> list[str]:
        return [name for name, _ in self.entries]

    def probabilities(self) -> np.ndarray:
        weights = np.array([w for _, w in self.entries], dtype=float)
        return weights / weights.sum()


def single_model(name: str) -> WorkloadSpec:
    """A stream of one model only (the per-model columns of Fig. 12)."""
    return WorkloadSpec(name=name, entries=((name, 1.0),))


def class_mix(workload_class: str) -> WorkloadSpec:
    """Equal mix of the Table 2 models in one class (light/medium/heavy)."""
    names = [n for n in model_names()
             if get_entry(n).workload_class == workload_class]
    return WorkloadSpec(name=workload_class,
                        entries=tuple((n, 1.0) for n in names))


def full_mix() -> WorkloadSpec:
    """All models, frequency inversely proportional to the QoS target."""
    return WorkloadSpec(
        name="mix",
        entries=tuple((n, 1.0 / get_entry(n).qos_ms)
                      for n in model_names()))


LIGHT_MIX = class_mix(LIGHT)
MEDIUM_MIX = class_mix(MEDIUM)
HEAVY_MIX = class_mix(HEAVY)


def poisson_queries(compiled: dict[str, CompiledModel], spec: WorkloadSpec,
                    qps: float, count: int,
                    seed: int | None = None) -> list[Query]:
    """``count`` queries with Poisson arrivals at rate ``qps``.

    Every model in ``spec`` must be present in ``compiled``.
    """
    if not qps > 0:
        raise ValueError("qps must be positive")
    if count <= 0:
        raise ValueError("count must be positive")
    missing = [n for n in spec.models if n not in compiled]
    if missing:
        raise KeyError(f"workload {spec.name!r} needs uncompiled models: "
                       f"{missing}")
    rng = make_rng(seed)
    gaps = rng.exponential(scale=1.0 / qps, size=count)
    arrivals = np.cumsum(gaps)
    choices = rng.choice(len(spec.models), size=count,
                         p=spec.probabilities())
    queries = []
    for index in range(count):
        name = spec.models[int(choices[index])]
        queries.append(Query(
            query_id=index,
            model=compiled[name],
            arrival_s=float(arrivals[index]),
            qos_s=get_entry(name).qos_s,
        ))
    return queries


def scenario_queries(compiled: dict[str, CompiledModel],
                     scenario, qps: float, count: int,
                     seed: int | None = None,
                     spec: WorkloadSpec | None = None) -> list[Query]:
    """``count`` queries of a :class:`~repro.workloads.ScenarioSpec`.

    ``scenario`` may be a spec or a registered scenario name; a
    mix-agnostic scenario draws its models from ``spec``.  Equivalent to
    ``scenario.queries(...)`` — provided here so the serving layer's
    stream generators live side by side.  ``None`` draws the legacy
    stationary stream, :func:`poisson_queries` over ``spec``.  (Import
    is lazy: ``repro.workloads`` sits above this module in the
    layering.)
    """
    if scenario is None:
        return poisson_queries(compiled, spec, qps, count, seed=seed)
    from repro.workloads.scenario import resolve_scenario
    return resolve_scenario(scenario).queries(compiled, qps, count,
                                              seed=seed, spec=spec)


def uniform_queries(compiled: dict[str, CompiledModel], model_name: str,
                    qps: float, count: int) -> list[Query]:
    """Deterministic uniform arrivals of one model.

    The paper's granularity study (Fig. 3) uses identical uniform
    arrival times "to eliminate the instability caused by randomness".
    """
    if not qps > 0:
        raise ValueError("qps must be positive")
    if count <= 0:
        raise ValueError("count must be positive")
    entry = get_entry(model_name)
    period = 1.0 / qps
    return [Query(query_id=i, model=compiled[model_name],
                  arrival_s=(i + 1) * period, qos_s=entry.qos_s)
            for i in range(count)]
