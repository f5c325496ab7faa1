"""Scheduler foundations: offline model profiles and the dispatch driver.

Every policy consumes a :class:`ModelProfile` — the offline-profiled facts
the paper's schedulers rely on: per-layer latency budgets, per-layer
minimal core requirements (under the static code version), and the
model-granularity average core count ``Avg_C`` used by Alg. 2/3.  The
profile is also the device's plan table for its model: each layer's code
version and core demand per pressure level, and every policy's whole
block plans, built on first use into one bounded memo and read by every
run, node and policy that shares the profile (paper Sec. 4.1–4.3:
versions and demands come from tables profiled offline).

:class:`SpatialScheduler` implements the shared dispatch mechanics (FCFS
over continuing-then-new queries, conflict accounting, grow-on-free); the
concrete policies only decide the next block boundary, its core demand,
and the code versions — which is exactly the design split of paper Fig. 8.
Schedulers hold no caches: a dispatch is one read of the profile's plan
memo, under a key that holds every input the plan reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.costmodel import CostModel, core_grid, first_fit_cores
from repro.compiler.library import CompiledModel
from repro.compiler.schedule import Schedule
from repro.models.layers import batched
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import Query, block_duration

#: Bound of each profile's plan memo.  Entries are deterministic
#: functions of their keys, so eviction only costs a recompute and never
#: changes a result.
PLAN_MEMO_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ModelProfile:
    """Offline profile of one compiled model on one device at one batch.

    The fields are the static-version view :func:`build_profile` fills
    in.  The methods are the plan table: per-pressure version and demand
    rows, other batches' profiles and the policies' block plans, each
    built on first use into :attr:`plan_memo`.  Every key is complete for
    this profile (the compiled model, cost model and batch are fixed), so
    one table serves every scheduler that reads the profile.
    """

    compiled: CompiledModel
    cost_model: CostModel
    batch: int
    static_versions: tuple[Schedule, ...]
    layer_budgets_s: tuple[float, ...]
    #: Minimal cores for each layer to meet its budget, in isolation.
    layer_required_cores: tuple[int, ...]
    #: Budget-weighted average of the per-layer requirements (``Avg_C``).
    avg_cores: int
    #: Cores for the whole model to meet QoS as one unit (model-wise FCFS).
    model_cores: int
    #: Uncontended end-to-end service time at the provisioned per-layer
    #: core grants — the per-device cost prior the affinity router seeds
    #: its placement estimates with before observations arrive.
    isolated_service_s: float = 0.0
    #: The plan table's memo, bounded by :data:`PLAN_MEMO_ENTRIES`.
    plan_memo: PricingCache = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: PricingCache(max_entries=PLAN_MEMO_ENTRIES))

    def at_batch(self, batch: int) -> ModelProfile:
        """This model's profile at ``batch`` (``self`` at its own)."""
        if batch == self.batch:
            return self
        return self.memoized(("batch", batch), lambda: build_profile(
            self.cost_model, self.compiled, batch))

    def versions_at(self, pressure: float) -> tuple[Schedule, ...]:
        """Each layer's code version at ``pressure``."""
        return self.memoized(("versions", pressure), lambda: tuple(
            entry.version_for(pressure) for entry in self.compiled.layers))

    def cores_at(self, pressure: float) -> tuple[int, ...]:
        """Each layer's core demand at ``pressure``: the cores for the
        layer, under its :meth:`versions_at` version, to meet its budget
        (the whole machine when infeasible).  At batch > 1 the unbatched
        layer meets the batch-scaled budget, a known defect that
        ``TestBatchedLayerSizing`` pins."""
        model = self.cost_model
        return self.memoized(("cores", pressure), lambda: tuple(
            model.required_cores(layer, version,
                                 max(budget - model.launch_s, 1e-7),
                                 pressure) or model.cpu.cores
            for layer, version, budget in zip(
                self.compiled.graph.layers, self.versions_at(pressure),
                self.layer_budgets_s)))

    def block_cores(self, start: int, stop: int, budget_s: float,
                    pressure: float = 0.0, cap: int | None = None) -> int:
        """Cores for layers ``[start, stop)`` as one block under their
        :meth:`versions_at` versions (see :func:`block_required_cores`).
        Static-version policies size at pressure 0, whose version row is
        :attr:`static_versions` (the first calibration level is 0).  Not
        memoised: policies call it only to build a plan, which the plan
        memo keeps whole."""
        return block_required_cores(
            self.cost_model, self.compiled, start, stop,
            self.versions_at(pressure)[start:stop], budget_s,
            interference=pressure, cap=cap, batch=self.batch)

    def memoized(self, key: tuple, build):
        """The plan-table entry under ``key``, built by ``build()`` on a
        miss.  ``key`` must hold every input ``build`` reads beyond this
        profile, and start with a tag no other kind of entry uses:
        two builds under one key must give equal values."""
        value = self.plan_memo.get(key)
        if value is None:
            value = build()
            self.plan_memo.put(key, value)
        return value


def build_profile(cost_model: CostModel, compiled: CompiledModel,
                  batch: int = 1) -> ModelProfile:
    """Profile a compiled model for scheduling (paper Sec. 4.2 inputs).

    ``batch`` > 1 profiles fused batch-``batch`` execution.  A batch-B
    block carries B queries' service demand per layer, so its planning
    budgets scale ``x B``: the planner targets the same *per-query*
    throughput as B sequential unit blocks and grants a similar (narrow,
    core-efficient) width — the batch's amortisation (shared weight
    traffic, one spawn/launch stream instead of B) then yields strictly
    cheaper core-seconds per query.  Without the budget scaling a batch
    block would inherit single-query layer deadlines, be forced to the
    machine-wide sync-tax regime, and *lose* capacity.  The flip side is
    honest too: a fused batch's end-to-end latency approaches B unit
    services, so batching only satisfies QoS targets slack enough to
    absorb it — exactly the throughput-for-latency trade
    :class:`repro.runtime.engine.BatchPolicy` opts into.  Static versions
    do not depend on the batch.
    """
    versions = tuple(entry.static_version() for entry in compiled.layers)
    budgets = tuple(entry.qos_budget_s * batch for entry in compiled.layers)
    launch = cost_model.launch_s
    required = []
    durations = []
    for layer, version, budget in zip(compiled.graph.layers, versions,
                                      budgets):
        layer = batched(layer, batch)
        # Provision slightly below the budget: running every layer exactly
        # at its budget edge leaves no room for queueing or interference
        # jitter, which no deployed allocator would do.
        cores = cost_model.required_cores(layer, version,
                                          max(budget * 0.85 - launch, 1e-7))
        if cores is None:
            cores = cost_model.cpu.cores
        required.append(cores)
        durations.append(cost_model.latency(layer, version, cores, 0.0)
                         + launch)

    # Time-weighted: the average height of the layer-wise allocation curve
    # (the red area of paper Fig. 4b), i.e. the minimum sustained core
    # demand of one in-flight query.
    total_time = sum(durations)
    weighted = sum(c * t for c, t in zip(required, durations))
    avg_cores = max(1, round(weighted / total_time))

    # The whole model as one unit, aligned with the layer-budget margin.
    model_cores = first_fit_cores(
        lambda cores: block_duration(cost_model, compiled, 0,
                                     len(versions), versions, cores, 0.0,
                                     batch),
        compiled.qos_s * 0.85 * batch, cost_model.cpu.cores)
    return ModelProfile(
        compiled=compiled,
        cost_model=cost_model,
        batch=batch,
        static_versions=versions,
        layer_budgets_s=budgets,
        layer_required_cores=tuple(required),
        avg_cores=avg_cores,
        model_cores=model_cores or cost_model.cpu.cores,
        isolated_service_s=total_time,
    )


@dataclass(frozen=True)
class BlockPlan:
    """A policy's decision for one dispatch: where the block ends, how
    many cores it wants, and which code version each layer runs.  The
    driver grants ``min(desired_cores, available)``."""

    stop_layer: int
    desired_cores: int
    versions: tuple[Schedule, ...]


class SpatialScheduler:
    """Shared dispatch driver for spatial-multitasking policies.

    Subclasses implement :meth:`plan` — given a query and the engine
    state, return a :class:`BlockPlan` or ``None`` to keep the query
    queued.  A plan is one read of the query's profile's plan memo
    (:meth:`ModelProfile.memoized`), built only on a miss.  The driver
    serves continuing queries before new arrivals (a worker finishes its
    model before taking new work) and FCFS within each queue, and
    optionally grows conflicted running blocks when cores free up (the
    paper's conflict-recovery technique).
    """

    #: Policies that start under-allocated and grow later set this.
    allow_grow = False
    #: Admission control: a query's *first* block waits for its full grant
    #: instead of starting under-allocated (continuation blocks always
    #: proceed — stalling mid-model wastes the work already done).
    admit_full_grant_only = False
    #: Conflicted blocks grow in chunks of at least this many cores (or
    #: the full deficit) — growing one core at a time re-prices the whole
    #: machine for no benefit.
    min_grow_cores = 2

    def __init__(self, cost_model: CostModel,
                 profiles: dict[str, ModelProfile]) -> None:
        self.cost_model = cost_model
        self.profiles = profiles

    # -- policy hooks --------------------------------------------------------

    def plan(self, engine: Engine, query: Query) -> BlockPlan | None:
        raise NotImplementedError

    def planning_pressure(self, engine: Engine) -> float:
        """The pressure this policy plans against (recorded on traced
        dispatches); policies that estimate it override this."""
        return engine.pressure()

    def profile_for(self, query: Query) -> ModelProfile:
        try:
            profile = self.profiles[query.model.name]
        except KeyError:
            raise KeyError(f"no profile for model {query.model.name!r};"
                           " build_profile() it first") from None
        batch = query.batch  # at_batch in line: most queries are unbatched
        return profile if batch == profile.batch else profile.at_batch(batch)

    # -- driver ---------------------------------------------------------------

    def schedule(self, engine: Engine) -> None:
        if self.allow_grow and engine.conflicted_blocks:
            self._grow_conflicted(engine)
        cores = engine.cpu.cores
        for queue in (engine.ready, engine.waiting):
            is_new_arrivals = queue is engine.waiting
            while queue:
                available = cores - engine.cores_used  # available_cores
                if available <= 0:
                    return
                plan = self.plan(engine, queue[0])
                if plan is None:
                    break  # FCFS head-of-line wait
                grant = min(plan.desired_cores, available)
                if (is_new_arrivals and self.admit_full_grant_only
                        and grant < plan.desired_cores):
                    break  # admission control: wait for the full grant
                query = queue.popleft()
                if engine.tracer is not None:
                    self._trace_dispatch(engine, query, plan, grant)
                engine.start_block(query, plan.stop_layer, grant,
                                   plan.versions,
                                   desired_cores=plan.desired_cores)

    def _trace_dispatch(self, engine: Engine, query: Query,
                        plan: BlockPlan, grant: int) -> None:
        """Record one dispatch decision (tracing enabled only).

        Captures the plan (block boundary, demand vs grant, the picked
        version's parallelism knob) and the pressure the policy planned
        against (:meth:`planning_pressure`, a side-effect-free read).
        """
        args = {"stop_layer": plan.stop_layer,
                "desired": plan.desired_cores,
                "granted": grant,
                "pressure": self.planning_pressure(engine),
                "parallelism": (plan.versions[0].parallelism
                                if plan.versions else 0)}
        if query.batch > 1:
            # Fused batch dispatch: size marks the block stream as
            # carrying several member queries (args stay unchanged for
            # plain queries, keeping pre-batching traces byte-stable).
            args["batch"] = query.batch
        engine.tracer.event(
            "dispatch", engine.now, cat="scheduler", qid=query.query_id,
            args=args)

    def _grow_conflicted(self, engine: Engine) -> None:
        """Hand freed cores to under-allocated blocks, oldest first."""
        blocks = sorted((b for b in engine.running.values()
                         if b.cores < b.desired_cores),
                        key=lambda b: b.started_s)
        for block in blocks:
            free = engine.available_cores
            if free <= 0:
                return
            deficit = block.desired_cores - block.cores
            extra = min(deficit, free)
            if extra < min(self.min_grow_cores, deficit):
                continue
            engine.grow_block(block.task_id, extra)


def block_required_cores(cost_model: CostModel, model: CompiledModel,
                         start: int, stop: int,
                         versions: tuple[Schedule, ...], budget_s: float,
                         interference: float = 0.0, cap: int | None = None,
                         batch: int = 1) -> int:
    """Minimal cores so the block finishes within ``budget_s``.

    :func:`~repro.compiler.costmodel.first_fit_cores` over
    :func:`~repro.runtime.tasks.block_duration` (spawn and launch
    overheads included), limited to the cap (or machine size).  When the
    budget is infeasible under that limit the latency-minimising grid
    point is returned — the scheduler then runs the block as fast as the
    cap allows.
    """
    limit = cap if cap is not None else cost_model.cpu.cores
    limit = max(1, min(limit, cost_model.cpu.cores))

    def duration(cores: int) -> float:
        return block_duration(cost_model, model, start, stop, versions,
                              cores, interference, batch)

    cores = first_fit_cores(duration, budget_s, limit)
    if cores is None:
        cores = min(core_grid(limit), key=duration)
    return cores
