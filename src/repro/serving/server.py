"""The serving facade: compile once, then simulate any policy/workload.

:class:`ServingStack` owns the expensive offline artifacts — the cost
model, the multi-version compiled libraries, the scheduling profiles and
the fitted interference proxy — and builds fresh engines per run so
simulations stay independent.  Policies are addressed by name:

========================  ====================================================
``model_fcfs``            whole-model FCFS (coarse baseline)
``layerwise``             Planaria-style spatial layer-wise baseline
``prema``                 PREMA-style temporal multitasking baseline
``block6`` / ``block11``  static layer blocks (granularity study)
``veltair_as``            adaptive scheduling only (dynamic blocks)
``veltair_ac``            adaptive compilation only (layer-wise units)
``veltair_full``          full VELTAIR (Alg. 3)
``gacer``                 GACER-style granularity-aware concurrency regulation
========================  ====================================================
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.config import DEFAULT_SEED
from repro.hardware.platform import THREADRIPPER_3990X, CpuSpec, DeviceSpec
from repro.compiler.artifacts import ArtifactStore, resolve_store
from repro.compiler.costmodel import CostModel, CostModelParams
from repro.compiler.library import CompiledModel, ModelCompiler
from repro.compiler.multiversion import SinglePassCompiler
from repro.interference.proxy import (
    LinearInterferenceProxy,
    collect_aggregate_samples,
    fit_proxy,
)
from repro.models.registry import get_entry, get_model, model_names
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, block_duration
from repro.scheduling.base import ModelProfile, build_profile
from repro.scheduling.dynamic_block import DynamicBlockScheduler
from repro.scheduling.fcfs_model import ModelWiseFcfs
from repro.scheduling.fixed_block import FixedBlockScheduler
from repro.scheduling.gacer import GacerScheduler
from repro.scheduling.layerwise import (
    AdaptiveCompilationOnly,
    LayerWiseScheduler,
)
from repro.scheduling.prema import PremaScheduler
from repro.scheduling.veltair import VeltairScheduler
from repro.serving.metrics import ServingReport, summarize
from repro.serving.workload import WorkloadSpec, scenario_queries

POLICIES = ("model_fcfs", "layerwise", "prema", "block6", "block11",
            "veltair_as", "veltair_ac", "veltair_full", "gacer")


@dataclass(frozen=True)
class NodeRuntime:
    """Per-device serving artifacts derived from one shared compile pass.

    A cluster deploys the stack's compiled libraries on nodes of
    possibly different widths and kinds.  The compiled *schedules* are
    machine descriptions and port as-is; what is built per device spec
    is everything calibrated against one machine — the cost model
    itself, the scheduling profiles (unit requirements change with
    machine width and device economics), the pricing cache (prices are
    bound to one cost model), and the interference proxy (counter
    magnitudes do not port across specs).  The profiles carry the
    device's plan table (:class:`ModelProfile`'s memoised version and
    demand rows and block plans), kept for the stack's life.  Nodes with
    the same :class:`DeviceSpec` share one runtime, so a homogeneous
    fleet shares a single warm pricing cache and plan table.  The field
    keeps its historical ``cpu`` name.
    """

    cpu: CpuSpec | DeviceSpec
    cost_model: CostModel
    price_cache: PricingCache
    #: Name-keyed scheduling profiles, each built on first lookup.
    profiles: Mapping[str, ModelProfile]
    #: Produces :attr:`proxy` on first read, so nodes whose policy and
    #: router never consult the proxy never pay its fit.
    fit_proxy: Callable[[], LinearInterferenceProxy | None] = field(
        repr=False, compare=False)

    @cached_property
    def proxy(self) -> LinearInterferenceProxy | None:
        return self.fit_proxy()

    @property
    def device_kind(self) -> str:
        return getattr(self.cpu, "kind", "cpu")


@dataclass
class StreamOutcome:
    """Result of :meth:`ServingStack.run_stream`.

    ``completed`` are the stage-level queries in completion order
    (exactly what :func:`repro.serving.metrics.summarize` consumes) and
    ``engine`` the node engine that ran them; ``issued`` is every
    stage-level query submitted over the run with its *realized*
    arrival time — pipeline hand-offs and closed-loop
    follow-ups included — so ``record_trace(outcome.issued, ...)``
    captures the feedback-shaped stream for open-loop replay.
    ``pipelines`` / ``tenants`` (``PipelineQuery`` /
    ``ClosedLoopTenant`` objects) carry the request-level outcomes.
    """

    completed: list[Query]
    engine: Engine
    issued: list[Query]
    pipelines: list
    tenants: list


class _LazyArtifacts(Mapping):
    """Name-keyed model artifacts, built on first access.

    Looks and iterates like a plain dict over the stack's models (model
    order preserved), but a lookup builds only that model, so
    ``models=`` subsets and cluster fleets never pay for the whole zoo.
    ``build(names)`` returns one artifact per name, so ``values()`` /
    ``items()`` build every missing model in one call (one
    deduplicated batch compile instead of one pass per model).  The
    mapping's one memo holds what it has built.
    """

    def __init__(self, names: list[str], build) -> None:
        self._names = names
        self._known = frozenset(names)
        self._build = build
        self._built: dict = {}

    def ensure(self, names: list[str]) -> None:
        """Build every artifact of ``names`` not built yet, in one call."""
        pending = [name for name in names if name not in self._built]
        if pending:
            self._built.update(zip(pending, self._build(pending)))

    def __getitem__(self, name: str):
        built = self._built.get(name)
        if built is not None:
            return built  # the hot path: every dispatch looks one up
        if name not in self._known:
            raise KeyError(name)
        self.ensure([name])
        return self._built[name]

    def __contains__(self, name) -> bool:
        # Mapping's default falls through to __getitem__, which would
        # build a whole model as a side effect of a membership probe.
        return name in self._known

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def values(self):
        self.ensure(self._names)
        return [self._built[name] for name in self._names]

    def items(self):
        self.ensure(self._names)
        return [(name, self._built[name]) for name in self._names]


class ServingStack:
    """Offline artifacts + per-run engine construction."""

    def __init__(self, cpu: CpuSpec | None = None,
                 params: CostModelParams | None = None,
                 models: list[str] | None = None,
                 trials: int = 256,
                 use_proxy: bool = True,
                 proxy_scenarios: int = 240,
                 seed: int = DEFAULT_SEED,
                 artifact_store: ArtifactStore | str | Path | None = "auto",
                 compile_workers: int | None = None) -> None:
        self.cpu = cpu or THREADRIPPER_3990X
        self.cost_model = CostModel(self.cpu, params)
        if compile_workers is None:
            compile_workers = int(os.environ.get("REPRO_COMPILE_WORKERS",
                                                 "1"))
        #: ``artifact_store`` threads the persistent compiled-artifact
        #: store through: ``"auto"`` (default) consults the
        #: REPRO_ARTIFACT_STORE environment variable, ``None`` disables
        #: persistence, a path or :class:`ArtifactStore` uses it
        #: directly.  Cached artifacts are bit-identical to fresh
        #: compiles, so a warm store changes wall-clock only.
        self.compiler = ModelCompiler(
            self.cost_model,
            SinglePassCompiler(self.cost_model, trials=trials, seed=seed),
            store=resolve_store(artifact_store),
            workers=compile_workers)
        self.seed = seed

        names = list(models) if models is not None else model_names()
        for name in names:
            get_entry(name)  # unknown models must fail at construction
        #: Model order of the stack (iteration order of ``compiled``).
        self.model_names = names
        #: Lazily compiled per-model artifacts: a lookup compiles just
        #: that model (deduplicated against everything compiled so
        #: far); iteration forces the full set in one batch.
        self.compiled = _LazyArtifacts(names, self._compile)
        #: Compile passes this stack has performed.  Stays at 1 for the
        #: stack's whole life: models compile lazily *within* the one
        #: pass, and per-node runtimes re-profile but never re-compile
        #: (the cluster benchmark asserts exactly this).
        self.artifact_builds = 1

        self._proxy_scenarios = proxy_scenarios
        self._use_proxy = use_proxy

        #: Per-DeviceSpec runtimes derived from the one compile pass above.
        self._runtimes: dict[CpuSpec | DeviceSpec, NodeRuntime] = {}

    # ------------------------------------------------------------------
    # lazy artifact construction

    def ensure_compiled(self, names: list[str] | None = None) -> None:
        """Force compilation of ``names`` (default: every model).

        One deduplicated batch through the compiler — with a warm
        artifact store nothing recompiles, with ``compile_workers > 1``
        missing layers fan out over the fork pool.  Idempotent.
        """
        self.compiled.ensure(names if names is not None
                             else self.model_names)

    def _compile(self, names: list[str]) -> list[CompiledModel]:
        return self.compiler.compile_models(
            [(get_model(name), get_entry(name).qos_s) for name in names])

    @property
    def price_cache(self) -> PricingCache:
        """Block pricing memo shared by every engine of the own device.

        Identical blocks recur across the runs of a QPS sweep, so the
        warm cache eliminates most cost-model pricing calls.  Size is
        bounded by the :class:`PricingCache` default (batched FIFO
        eviction).
        """
        return self.runtime_for().price_cache

    @property
    def profiles(self) -> Mapping[str, ModelProfile]:
        """The own device's scheduling profiles (built on first lookup)."""
        return self.runtime_for().profiles

    @property
    def proxy(self) -> LinearInterferenceProxy | None:
        """The own device's interference proxy (fitted on first read)."""
        return self.runtime_for().proxy

    def _fit_proxy(self,
                   cost_model: CostModel) -> LinearInterferenceProxy | None:
        """Fit the counter proxy against one machine's cost model.

        Counter magnitudes (and therefore the fitted weights and access
        scale) depend on the device spec, so each device gets its own
        fit over the same compiled models.  ``None`` when the stack was
        built with ``use_proxy=False``.
        """
        if not self._use_proxy:
            return None
        samples = collect_aggregate_samples(
            cost_model, list(self.compiled.values()),
            scenarios=self._proxy_scenarios, seed=self.seed)
        return fit_proxy(samples)

    # ------------------------------------------------------------------

    def runtime_for(self,
                    cpu: CpuSpec | DeviceSpec | None = None) -> NodeRuntime:
        """Serving artifacts for one node device — compile once, re-profile.

        Every device, the stack's own (or ``None``) included, gets a
        runtime built the same way: a cost model (the stack's own for
        its device, a fresh one otherwise), a pricing cache of its own
        (prices do not port across machines), profiles built per model
        on first lookup, and a proxy fitted on first read.  The
        *compiled* multi-version libraries are shared untouched, so a
        whole heterogeneous fleet rides on a single compile pass, and
        nothing per device is built until something reads it.  Runtimes
        are memoised per spec.
        """
        cpu = cpu if cpu is not None else self.cpu
        runtime = self._runtimes.get(cpu)
        if runtime is not None:
            return runtime
        cost_model = (self.cost_model if cpu == self.cpu
                      else CostModel(cpu, self.cost_model.params))

        def build_profiles(names: list[str]) -> list[ModelProfile]:
            self.ensure_compiled(names)
            return [build_profile(cost_model, self.compiled[name])
                    for name in names]

        runtime = NodeRuntime(
            cpu=cpu, cost_model=cost_model, price_cache=PricingCache(),
            profiles=_LazyArtifacts(self.model_names, build_profiles),
            fit_proxy=lambda: self._fit_proxy(cost_model))
        self._runtimes[cpu] = runtime
        return runtime

    def make_scheduler(self, policy: str, runtime: NodeRuntime | None = None):
        """Instantiate a named policy bound to this stack's artifacts.

        ``runtime`` binds the policy to a per-node runtime (from
        :meth:`runtime_for`) instead of the stack's own machine — how a
        cluster builds one scheduler per node over shared artifacts.
        """
        runtime = runtime if runtime is not None else self.runtime_for()
        cost_model = runtime.cost_model
        profiles = runtime.profiles
        if policy == "model_fcfs":
            return ModelWiseFcfs(cost_model, profiles)
        if policy == "layerwise":
            return LayerWiseScheduler(cost_model, profiles)
        if policy == "prema":
            return PremaScheduler(cost_model, profiles)
        if policy.startswith("block"):
            size = int(policy.removeprefix("block"))
            return FixedBlockScheduler(cost_model, profiles, block_size=size)
        if policy == "veltair_as":
            return DynamicBlockScheduler(cost_model, profiles)
        if policy == "gacer":
            return GacerScheduler(cost_model, profiles)
        # Only the proxy-driven policies read the proxy — reading
        # ``runtime.proxy`` here would trigger the lazy fit for everyone.
        if policy == "veltair_ac":
            return AdaptiveCompilationOnly(cost_model, profiles,
                                           proxy=runtime.proxy)
        if policy == "veltair_full":
            return VeltairScheduler(cost_model, profiles,
                                    proxy=runtime.proxy)
        raise ValueError(f"unknown policy {policy!r}; known: {POLICIES}")

    def run(self, policy: str, queries: list[Query],
            tracer=None) -> tuple[list[Query], Engine]:
        """Simulate one query stream; returns (completed, engine).

        ``tracer`` (a :class:`repro.telemetry.Tracer`) records the run's
        block spans, query lifecycle spans, and scheduler decisions; the
        default ``None`` keeps telemetry off and free, and results are
        bit-identical either way.

        Engine settings (the legacy ``incremental=False`` mode, dynamic
        batching through :class:`repro.runtime.engine.BatchPolicy`, the
        ``on_complete`` hook) are :class:`Engine` arguments: build an
        engine over ``cost_model`` and ``price_cache`` to set them.
        Request-model streams go through :meth:`run_stream`.
        """
        engine = Engine(self.cost_model, price_cache=self.price_cache,
                        tracer=tracer)
        scheduler = self.make_scheduler(policy)
        completed = engine.run(queries, scheduler)
        return completed, engine

    def run_stream(self, policy: str, stream,
                   tracer=None) -> StreamOutcome:
        """Drive a :class:`repro.workloads.RequestStream` to completion.

        The request-model counterpart of :meth:`run`, served as a fleet
        of one: a one-node ``round_robin``
        :class:`~repro.cluster.fleet.Cluster` of this stack's device, so
        single-node and fleet request serves share one serve loop and
        one :class:`~repro.workloads.requests.RequestDriver`.  Pipeline
        stage *k+1* is submitted the instant stage *k* completes and
        closed-loop tenants issue their next request at each
        completion.  A stream holding only plain ``queries`` behaves
        exactly like :meth:`run`; dynamic batching goes through an
        :class:`Engine` directly.
        """
        # The cluster layer sits above serving: import at call time.
        from repro.cluster.fleet import Cluster
        from repro.cluster.spec import homogeneous

        cluster = Cluster(self, homogeneous(1, policy=policy,
                                            device=self.cpu),
                          router="round_robin")
        cluster.serve_stream(stream, tracer=tracer)
        (node,) = cluster.last_nodes
        return StreamOutcome(
            completed=node.engine.completed, engine=node.engine,
            issued=cluster.last_offered, pipelines=list(stream.pipelines),
            tenants=list(stream.tenants))

    def report(self, policy: str, spec: WorkloadSpec, qps: float,
               count: int, seed: int | None = None,
               scenario=None, tracer=None) -> ServingReport:
        """Generate a stream, simulate it, and summarise.

        The default stream is the paper's stationary Poisson; a
        ``scenario`` (:class:`repro.workloads.ScenarioSpec` or
        registered name) swaps in any trace-driven arrival shape at
        mean rate ``qps``.  ``tracer`` records the run (see :meth:`run`);
        the saved trace's ``summarize`` reproduces this report's
        ``average_latency_s`` exactly.
        """
        queries = scenario_queries(
            self.compiled, scenario, qps, count,
            seed=self.seed if seed is None else seed, spec=spec)
        completed, engine = self.run(policy, queries, tracer=tracer)
        return summarize(completed, engine.metrics, qps)

    # ------------------------------------------------------------------

    def isolated_model_latency(self, name: str,
                               cores: int | None = None) -> float:
        """Solo-run latency: the model alone on the machine (Fig. 13 base)."""
        compiled = self.compiled[name]
        return block_duration(
            self.cost_model, compiled, 0, len(compiled.layers),
            self.profiles[name].static_versions,
            cores if cores is not None else self.cpu.cores, 0.0)
