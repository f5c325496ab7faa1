"""Named scenarios: arrival process x workload mix x QoS classes.

A :class:`ScenarioSpec` is the full description of a load scenario.  The
arrival process gives the stream its *shape* (scaled to the offered
``qps``), the workload mix picks which model each query runs (either
bundled into the scenario or supplied by the experiment), and the QoS
class scaling tightens or relaxes deadlines per paper workload class
(light / medium / heavy).

Query generation follows the legacy draw order exactly — one arrival
draw, then one mixture draw from the *same* generator — so the
``"poisson"`` scenario reproduces
:func:`repro.serving.workload.poisson_queries` bit for bit and all
pre-scenario results stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import make_rng
from repro.compiler.library import CompiledModel
from repro.models.registry import WORKLOAD_CLASSES, get_entry
from repro.runtime.tasks import Query
from repro.serving.workload import WorkloadSpec, full_mix
from repro.workloads.requests import (
    ClosedLoopSpec,
    ClosedLoopTenant,
    PipelineSpec,
    RequestStream,
    build_pipeline,
)
from repro.workloads.arrivals import (
    ArrivalProcess,
    DiurnalArrivals,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    TenantChurnArrivals,
    UniformArrivals,
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One named load scenario.

    ``workload=None`` means the scenario is mix-agnostic: experiments
    supply the mix (exactly like the legacy ``spec`` argument) and the
    scenario contributes arrival shape and QoS scaling.  A bundled
    workload wins over the experiment's when both are present.

    ``qos_scale`` maps paper workload classes to deadline multipliers,
    e.g. ``(("light", 0.5),)`` halves every light model's QoS budget.
    """

    name: str
    arrival: ArrivalProcess = field(default_factory=PoissonArrivals)
    workload: WorkloadSpec | None = None
    qos_scale: tuple[tuple[str, float], ...] = ()
    #: Request-model extensions (PR 10).  A scenario with either set
    #: emits a :class:`~repro.workloads.requests.RequestStream` via
    #: :meth:`stream` instead of a flat query list.
    pipeline: PipelineSpec | None = None
    closed_loop: ClosedLoopSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        for workload_class, scale in self.qos_scale:
            if workload_class not in WORKLOAD_CLASSES:
                raise ValueError(
                    f"scenario {self.name!r}: unknown workload class "
                    f"{workload_class!r}")
            if not scale > 0:
                raise ValueError(f"scenario {self.name!r}: QoS scale for "
                                 f"{workload_class!r} must be positive")

    def resolve_workload(self,
                         spec: WorkloadSpec | None = None) -> WorkloadSpec:
        workload = self.workload if self.workload is not None else spec
        if workload is None:
            raise ValueError(f"scenario {self.name!r} bundles no workload "
                             "mix; pass one")
        return workload

    def qos_for(self, model_name: str) -> float:
        """The model's QoS budget under this scenario's class scaling."""
        entry = get_entry(model_name)
        scale = dict(self.qos_scale).get(entry.workload_class, 1.0)
        return entry.qos_s * scale

    def queries(self, compiled: Mapping[str, CompiledModel], qps: float,
                count: int, seed: int | None = None,
                spec: WorkloadSpec | None = None) -> list[Query]:
        """``count`` queries of this scenario at mean offered ``qps``.

        Deterministic per ``(scenario, qps, count, seed)``; the rng is
        consumed arrival-shape first, mixture second, mirroring the
        legacy Poisson generator.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if self.request_model:
            raise ValueError(
                f"scenario {self.name!r} uses the request model "
                "(closed-loop/pipeline); draw it with stream()")
        workload = self.resolve_workload(spec)
        missing = [n for n in workload.models if n not in compiled]
        if missing:
            raise KeyError(f"workload {workload.name!r} needs uncompiled "
                           f"models: {missing}")
        rng = make_rng(seed)
        arrivals = self.arrival.sample_times(qps, count, rng)
        choices = rng.choice(len(workload.models), size=count,
                             p=workload.probabilities())
        queries = []
        for index in range(count):
            name = workload.models[int(choices[index])]
            queries.append(Query(
                query_id=index,
                model=compiled[name],
                arrival_s=float(arrivals[index]),
                qos_s=self.qos_for(name),
            ))
        return queries

    @property
    def request_model(self) -> bool:
        """True when this scenario needs completion-hook driving."""
        return self.pipeline is not None or self.closed_loop is not None

    def stream(self, compiled: Mapping[str, CompiledModel], qps: float,
               count: int, seed: int | None = None,
               spec: WorkloadSpec | None = None) -> RequestStream:
        """Draw this scenario as a :class:`RequestStream`.

        Open-loop scenarios come back as plain ``queries`` (the same
        draw as :meth:`queries`); a ``closed_loop`` scenario yields
        tenants with ``count`` split evenly across them (``qps`` is
        ignored — a closed loop's offered rate is completion-driven);
        a ``pipeline`` scenario yields ``count`` pipeline requests at
        the arrival process's times, each stage budgeted by
        :meth:`qos_for` times the pipeline's ``qos_scale``.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if self.closed_loop is not None:
            loop = self.closed_loop
            workload = self.resolve_workload(spec)
            base, extra = divmod(count, loop.tenants)
            tenants = []
            for session in range(loop.tenants):
                budget = base + (1 if session < extra else 0)
                if budget <= 0:
                    continue
                tenants.append(ClosedLoopTenant(
                    session=session, compiled=compiled, workload=workload,
                    qos_for=self.qos_for, budget=budget,
                    concurrency=loop.concurrency, think_s=loop.think_s,
                    base_seed=seed))
            return RequestStream(tenants=tenants)
        if self.pipeline is not None:
            rng = make_rng(seed)
            arrivals = self.arrival.sample_times(qps, count, rng)
            pipelines = [
                build_pipeline(compiled, self.pipeline, pipeline_id=index,
                               arrival_s=float(arrivals[index]),
                               qos_for=self.qos_for)
                for index in range(count)]
            return RequestStream(pipelines=pipelines)
        return RequestStream(
            queries=self.queries(compiled, qps, count, seed=seed, spec=spec))


# ---------------------------------------------------------------------------
# Registry

_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a scenario to the global registry (returned for chaining)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; known: "
                       f"{sorted(_REGISTRY)}") from None


def resolve_scenario(scenario) -> ScenarioSpec | None:
    """Registered name -> spec; specs and ``None`` pass through.

    The one resolution path every ``scenario=`` parameter funnels
    through (serving experiments, cluster experiments, the facades).
    """
    if scenario is None or isinstance(scenario, ScenarioSpec):
        return scenario
    return get_scenario(scenario)


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


# The built-in library.  Mix-agnostic shapes first: they compose with
# any experiment's workload spec.
register_scenario(ScenarioSpec(name="poisson", arrival=PoissonArrivals()))
register_scenario(ScenarioSpec(name="uniform", arrival=UniformArrivals()))
register_scenario(ScenarioSpec(name="bursty", arrival=MMPPArrivals()))
register_scenario(ScenarioSpec(
    name="bursty_extreme",
    arrival=MMPPArrivals(burst_ratio=12.0, burst_fraction=0.1,
                         cycles=3.0)))
register_scenario(ScenarioSpec(name="diurnal", arrival=DiurnalArrivals()))
register_scenario(ScenarioSpec(name="flash_crowd",
                               arrival=FlashCrowdArrivals()))
register_scenario(ScenarioSpec(name="tenant_churn",
                               arrival=TenantChurnArrivals()))
# Bundled scenarios: arrival shape x mix x QoS classes in one name.
register_scenario(ScenarioSpec(
    name="prod_day",
    arrival=DiurnalArrivals(amplitude=0.5, periods=1.0),
    workload=full_mix()))
register_scenario(ScenarioSpec(
    name="launch_spike",
    arrival=FlashCrowdArrivals(spike_ratio=6.0, start_frac=0.25,
                               width_frac=0.25),
    workload=full_mix(),
    qos_scale=(("heavy", 1.5),)))
# Throughput-dominated mix with a latency-critical minority: the
# heterogeneous-fleet benchmark's scenario.  Batch-friendly heavies
# carry most of the load (and get a relaxed deadline — offline/batch
# traffic), while the light model keeps a hard real-time QoS, so
# placement quality (which device kind serves whom) decides capacity.
register_scenario(ScenarioSpec(
    name="batch_heavy",
    arrival=PoissonArrivals(),
    workload=WorkloadSpec(name="batch_heavy",
                          entries=(("ssd_resnet34", 3.0),
                                   ("resnet50", 1.5),
                                   ("mobilenet_v2", 2.0))),
    qos_scale=(("heavy", 1.25),)))
# Request-model scenarios (PR 10): draw with stream(), not queries().
# Closed-loop agent sessions — six tenants, two requests in flight
# each, a short think time; offered load is completion-driven, so a
# saturated or shedding fleet sees *less* demand, not a growing queue.
register_scenario(ScenarioSpec(
    name="agent_loop",
    closed_loop=ClosedLoopSpec(tenants=6, concurrency=2, think_s=0.005),
    workload=WorkloadSpec(name="agent_mix",
                          entries=(("mobilenet_v2", 2.0),
                                   ("googlenet", 1.0),
                                   ("resnet50", 1.0)))))
# Detector → classifier chain: stage 1 is submitted when stage 0
# completes; a shed stage fails the whole pipeline's QoS.
register_scenario(ScenarioSpec(
    name="vision_pipeline",
    arrival=PoissonArrivals(),
    pipeline=PipelineSpec(name="detect_classify",
                          stages=("ssd_resnet34", "resnet50"))))

SCENARIO_NAMES = tuple(scenario_names())
