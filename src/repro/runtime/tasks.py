"""Query and block-execution records for the serving simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.costmodel import CostModel
from repro.compiler.library import CompiledModel
from repro.compiler.schedule import Schedule
from repro.models.layers import batched


@dataclass
class Query:
    """One inference request moving through the system.

    Beyond the open-loop basics, a query may carry request-model
    context: ``session`` ties it to a closed-loop tenant
    (:class:`repro.workloads.ClosedLoopTenant`), ``stage`` marks its
    position in a pipeline chain
    (:class:`repro.workloads.PipelineQuery`), and ``batch`` > 1 means
    the engine fused several same-model queries into one block stream
    (see :class:`BatchQuery`).  All three default to the plain
    single-request lifecycle, which keeps every pre-existing
    construction site and result unchanged.
    """

    query_id: int
    model: CompiledModel
    arrival_s: float
    qos_s: float
    #: Index of the first layer not yet executed.
    next_layer: int = 0
    started_s: float | None = None
    finished_s: float | None = None
    conflicts: int = 0
    grows: int = 0
    blocks: int = 0
    core_seconds: float = 0.0
    #: Closed-loop session (tenant) id, or None for open-loop queries.
    session: int | None = None
    #: Stage index within a pipeline chain, or None for plain queries.
    stage: int | None = None
    #: Dynamic batch size this query represents (1 = a single request).
    batch: int = 1

    @property
    def deadline_s(self) -> float:
        return self.arrival_s + self.qos_s

    @property
    def done(self) -> bool:
        return self.next_layer >= len(self.model.layers)

    @property
    def latency_s(self) -> float:
        if self.finished_s is None:
            raise ValueError(f"query {self.query_id} not finished")
        return self.finished_s - self.arrival_s

    @property
    def satisfied(self) -> bool:
        return self.finished_s is not None and self.latency_s <= self.qos_s


def block_duration(cost_model: CostModel, model: CompiledModel, start: int,
                   stop: int, versions: tuple[Schedule, ...], cores: int,
                   interference: float, batch: int = 1) -> float:
    """Execution time of layers ``[start, stop)`` as one scheduling unit.

    One parallel-region spawn for the block, then each layer's kernel with
    its selected version, plus the fixed per-kernel launch cost.  The
    whole model (``[0, len)``) at zero interference is its solo latency.

    A fused batch (``batch`` > 1) prices each layer at its batch-folded
    GEMM shape (:func:`repro.models.layers.batched`) while paying the
    spawn and per-kernel launch overheads *once* for the whole batch —
    the amortisation that makes dynamic batching pay.
    """
    if not 0 <= start < stop <= len(model.layers):
        raise ValueError(f"bad block range [{start}, {stop})")
    if len(versions) != stop - start:
        raise ValueError("one version per layer required")
    launch = cost_model.launch_s
    total = cost_model.spawn_overhead(cores)
    graph_layers = model.graph.layers
    for offset, layer_index in enumerate(range(start, stop)):
        layer = batched(graph_layers[layer_index], batch)
        total += cost_model.latency(layer, versions[offset], cores,
                                    interference) + launch
    return total


@dataclass
class BatchQuery(Query):
    """Several same-model queries fused into one block stream.

    Built by the engine's dynamic batcher (:class:`BatchPolicy` on
    :class:`~repro.runtime.engine.Engine`): the fused query executes the
    model once at ``batch`` = ``len(members)`` — batch-folded layer
    shapes, shared weights, one spawn/launch per kernel — and at
    completion the engine attributes the outcome back to every member
    (per-member ``finished_s``/``latency_s``, an equal share of the
    fused ``core_seconds``), so ``ServingReport``/QoS accounting stays
    exact over the *members*, never over the wrapper.  The wrapper's
    deadline is the earliest member deadline, keeping urgency-driven
    policies conservative.
    """

    members: tuple[Query, ...] = ()


def fuse_batch(members: list[Query]) -> BatchQuery:
    """Fuse queued same-model queries into one :class:`BatchQuery`."""
    if len(members) < 2:
        raise ValueError("a batch needs at least 2 members")
    first = members[0]
    names = {member.model.name for member in members}
    if len(names) != 1:
        raise ValueError(f"cannot fuse mixed models: {sorted(names)}")
    deadline = min(member.deadline_s for member in members)
    return BatchQuery(
        query_id=first.query_id, model=first.model,
        arrival_s=first.arrival_s, qos_s=deadline - first.arrival_s,
        batch=len(members), members=tuple(members))


@dataclass
class RunningBlock:
    """A block currently executing on the machine."""

    task_id: int
    query: Query
    start_layer: int
    stop_layer: int
    versions: tuple[Schedule, ...]
    cores: int
    #: Cores the scheduler actually wanted (conflict bookkeeping).
    desired_cores: int
    started_s: float
    #: Price table of the block's shape (model, layer range, versions,
    #: batch), shared through the engine's pricing cache: the pressure
    #: contribution by core count, and (duration, miss lines/s, access
    #: lines/s) by (cores, pressure quantum).
    table: dict = field(repr=False, compare=False)
    #: Fraction of the block's work completed.
    progress: float = 0.0
    #: Work fraction per second under the current co-location set.
    rate: float = 0.0
    last_update_s: float = 0.0
    #: Stale-event guard: FINISH events carry the generation they priced.
    generation: int = 0
    #: Pressure this block exerts on co-runners.
    pressure: float = 0.0
    #: Quantized excluded pressure at the last pricing; the engine skips
    #: re-pricing while this is unchanged.  -1.0 means "price me at the
    #: next round": a block that just started or grew.
    priced_quantum: float = -1.0
    #: Pending extra spawn cost (seconds) from a grow, charged as work.
    pending_overhead_s: float = 0.0
    #: Counter rates cached at the last re-pricing (proxy inputs).
    miss_lines_per_s: float = 0.0
    access_lines_per_s: float = 0.0

    @property
    def had_conflict(self) -> bool:
        return self.cores < self.desired_cores
