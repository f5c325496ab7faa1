"""Rate-based discrete-event simulation of the multi-tenant CPU.

Execution model: each running layer block advances through its work at a
*rate* (work fraction per second) priced by the cost model under the
current co-location pressure.  Whenever the co-location set changes
(block start, finish, or grow), affected blocks bank their progress and
re-price — so a block that started on a quiet machine slows down
mid-flight when noisy neighbours arrive, exactly the dynamic the paper's
adaptive scheduler reacts to.

The hot path is built for high offered QPS (the regime the paper's
QPS-with-95%-QoS evaluation lives in):

* **Incremental repricing** — pressure is quantized before pricing, and
  each block remembers the quantum it was last priced under
  (:attr:`RunningBlock.priced_quantum`).  A co-location change only
  re-prices blocks whose quantum actually moved; everyone else keeps
  their rate and their scheduled finish event.
* **One core ledger** — the running blocks are the ledger:
  :attr:`Engine.cores_used` is the sum of their ``cores``, kept at block
  start, grow and finish, so :attr:`Engine.available_cores` is O(1).
* **Heap hygiene** — events are lazily deleted under one stale rule
  (:meth:`Engine._stale`): a finish event whose block finished or was
  re-priced (superseded generation), or a batch timer whose group closed
  early, is dropped at the heap top without advancing the clock.  A
  per-engine stale counter triggers heap compaction when stale finish
  events dominate, and arrivals are staged into the heap one at a time,
  so the heap stays O(running blocks) rather than O(pushed events).
* **Shape tables** — :meth:`Engine.start_block` reads the block's shape
  (model name, layer range, versions, batch) once from a
  :class:`~repro.runtime.pricing.PricingCache` that the serving stack
  persists across runs and policies.  The entry is that shape's price
  table: the pressure contribution by core count, and (duration, miss
  rate, access rate) by (cores, pressure quantum).  The running block
  keeps its table (:attr:`RunningBlock.table`), so every later pressure
  or price read is one dict lookup on a small key, and identical blocks
  recurring in a QPS sweep skip the cost model entirely.
* **Conflict count** — :attr:`Engine.conflicted_blocks` counts running
  blocks holding fewer cores than they asked for, kept at start, grow
  and finish like the core ledger, so a policy's conflict recovery is
  skipped in O(1) while no block is short.

The engine owns mechanics only (clock, events, core ledger, pressure
bookkeeping); *policies* live in :mod:`repro.scheduling` and are invoked
through a single callback, :meth:`Scheduler.schedule`.

Telemetry: pass ``tracer=`` (a :class:`repro.telemetry.Tracer` or a
node-scoped view) to record block spans, per-query lifecycle spans, and
conflict/grow/arrival events.  The tracer is observational only — with
the default ``tracer=None`` every emission site is one ``is not None``
test and simulation results are bit-identical either way (the
telemetry-overhead benchmark gates both properties).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.compiler.costmodel import CostModel
from repro.compiler.schedule import Schedule
from repro.models.layers import batched
from repro.runtime.pricing import PricingCache
from repro.runtime.tasks import (
    BatchQuery,
    Query,
    RunningBlock,
    block_duration,
    fuse_batch,
)

#: Pressure quantisation step.  Pricing happens at quantized pressure
#: levels, so the step trades fidelity (worst-case pricing is a
#: half-step of pressure stale, a few percent of latency under the
#: linear contention model) against repricing churn (a finer step makes
#: every co-location change flip more blocks' quanta).  The interference
#: proxy itself only resolves 0.01, so 0.05 keeps the engine well inside
#: the proxy's own noise floor.
_PRESSURE_QUANTUM = 0.05

#: Soon-to-finish filter (paper Sec. 4.3): a running block with at most
#: this fraction of its work left is ignored by :meth:`Engine.pressure`,
#: because it vacates before a newly planned block feels it.
_SOON_TO_FINISH_THRESHOLD = 0.10

#: Compaction trigger: rebuild the heap once this many stale finish
#: events have accumulated *and* they outnumber the live entries.
_COMPACT_MIN_STALE = 64


class Scheduler(Protocol):
    """Policy interface: examine the engine, start/grow blocks, return."""

    def schedule(self, engine: "Engine") -> None:  # pragma: no cover
        ...


@dataclass(frozen=True)
class BatchPolicy:
    """Engine-side dynamic batching of same-model queued queries.

    A fresh arrival opens (or joins) a per-model batch group instead of
    entering the scheduler's queue directly.  The group closes — fusing
    its members into one :class:`~repro.runtime.tasks.BatchQuery` —
    when it reaches ``max_batch`` members, or ``max_wait_s`` after its
    first member arrived, whichever comes first.  A group that closes
    with a single member releases the original query unwrapped, so
    sparse traffic pays only the wait, never batched pricing.

    The default everywhere is **no batching** (``batching=None`` on
    :class:`Engine`), under which the arrival path is byte-for-byte the
    pre-batching one.
    """

    max_batch: int = 4
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 2:
            raise ValueError("max_batch must be >= 2")
        if not self.max_wait_s >= 0.0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass
class SimulationMetrics:
    """System-wide accounting over one simulation run."""

    conflicts: int = 0
    grows: int = 0
    blocks_started: int = 0
    #: Integral of allocated cores over time (core-seconds).
    usage_core_seconds: float = 0.0
    #: Integral bounds for utilisation reporting.
    first_event_s: float | None = None
    last_event_s: float = 0.0
    max_cores_used: int = 0
    #: Hot-path accounting (the scale benchmark reads these).
    finish_events_pushed: int = 0
    repricings: int = 0
    prices_computed: int = 0
    stale_events_dropped: int = 0
    heap_peak: int = 0
    heap_compactions: int = 0

    @property
    def span_s(self) -> float:
        if self.first_event_s is None:
            return 0.0
        return max(0.0, self.last_event_s - self.first_event_s)

    @property
    def average_cores_used(self) -> float:
        span = self.span_s
        return self.usage_core_seconds / span if span > 0 else 0.0


class Engine:
    """The simulator core: event loop + running-block bookkeeping."""

    def __init__(self, cost_model: CostModel,
                 price_cache: PricingCache | None = None,
                 incremental: bool = True,
                 tracer=None,
                 batching: BatchPolicy | None = None,
                 on_complete=None) -> None:
        self.cost_model = cost_model
        self.cpu = cost_model.cpu
        #: Cores held by the running blocks: the sum of their ``cores``,
        #: kept at :meth:`start_block`, :meth:`grow_block` and finish.
        self.cores_used = 0
        #: Running blocks holding fewer cores than they asked for, kept
        #: like :attr:`cores_used`; conflict recovery runs only while
        #: this is nonzero.
        self.conflicted_blocks = 0
        self.soon_to_finish_threshold = _SOON_TO_FINISH_THRESHOLD
        self.now = 0.0
        self.metrics = SimulationMetrics()
        #: Queries that arrived and have not started their first block.
        self.waiting: deque[Query] = deque()
        #: Queries between blocks, ready for their next block.
        self.ready: deque[Query] = deque()
        self.running: dict[int, RunningBlock] = {}
        self.completed: list[Query] = []
        self._events: list[tuple[float, int, str, object]] = []
        self._seq = itertools.count()
        self._task_ids = itertools.count(1)
        self._dirty = False
        #: Re-price every block each round when False (the legacy mode,
        #: kept for A/B verification and the scale benchmark).
        self.incremental = incremental
        #: Shared (or private) memo of per-shape price tables, bound to
        #: this cost model: shape keys do not embed the model, so sharing
        #: one cache across cost models would cross-serve stale prices.
        self.price_cache = (price_cache if price_cache is not None
                            else PricingCache())
        if self.price_cache.owner_token is None:
            self.price_cache.owner_token = cost_model
        elif self.price_cache.owner_token is not cost_model:
            raise ValueError(
                "price_cache is bound to a different cost model; "
                "pricing results are not portable across cost models")
        #: Running sums maintained incrementally so that pressure and
        #: counter aggregation are O(1) instead of O(running blocks).
        self._pressure_sum = 0.0
        self._miss_sum = 0.0
        self._access_sum = 0.0
        #: Stale finish events currently sitting in the heap.
        self._stale_finish = 0
        #: Bumped after each repricing round that changed any block.
        self.pressure_epoch = 0
        #: Arrival staging: sorted (time, seq, "arrival", query) records
        #: fed into the heap one at a time.
        self._arrivals: list[tuple[float, int, str, object]] = []
        self._arrival_cursor = 0
        #: Scheduler bound by :meth:`begin` (or :meth:`run`); the drive
        #: loop dispatches through it after every event.
        self._scheduler: Scheduler | None = None
        #: Telemetry sink (``repro.telemetry`` Tracer/NodeTracer) or
        #: None.  Never read by the simulation — observational only.
        self.tracer = tracer
        #: Dynamic batching policy, or None (the default) for the
        #: legacy one-query-per-block-stream arrival path.
        self.batching = batching
        #: Completion-hook seam: ``on_complete(engine, query)`` fires
        #: once per completed query, immediately after the query is
        #: appended to :attr:`completed` (batch members individually).
        #: The hook may :meth:`submit` follow-up work — the seam that
        #: powers closed-loop tenants and pipeline stage hand-off.
        #: ``None`` (the default) keeps the completion path untouched.
        self.on_complete = on_complete
        #: Open batch groups by model name.  A group's max-wait timer
        #: carries the group list itself, so the timer goes stale once
        #: the group closes early (see :meth:`_stale`).
        self._batch_pending: dict[str, list[Query]] = {}
        self._batch_queued = 0

    # ------------------------------------------------------------------
    # pressure / introspection for schedulers
    # ------------------------------------------------------------------

    def pressure(self) -> float:
        """Planning pressure of the running blocks, capped at 1.0.

        Blocks whose remaining work fraction is at or below
        :attr:`soon_to_finish_threshold` are ignored (paper Sec. 4.3) —
        they will vacate before a newly planned block feels them.
        """
        total = 0.0
        for block in self.running.values():
            if 1.0 - block.progress <= self.soon_to_finish_threshold:
                continue
            total += block.pressure
        return min(1.0, total)

    @property
    def queued(self) -> int:
        """Queries queued but not executing.

        Waiting + ready, plus queries parked in open batch groups (a
        batched arrival is queued work even before its group closes).
        """
        return len(self.waiting) + len(self.ready) + self._batch_queued

    @property
    def outstanding(self) -> int:
        """Queries admitted but not finished (queued + running blocks).

        A query occupies exactly one of ``waiting``/``ready``/``running``
        at any instant, so this is the node's in-flight query count — the
        signal queue-depth cluster routers balance on.
        """
        return self.queued + len(self.running)

    @property
    def available_cores(self) -> int:
        """Cores no running block holds."""
        return self.cpu.cores - self.cores_used

    def quantize_pressure(self, pressure: float) -> float:
        """Snap a pressure estimate to the pricing grid (0.05 steps).

        Pricing (and therefore every pressure-keyed planning cache worth
        having) only resolves ``_PRESSURE_QUANTUM`` steps; planners
        should quantize their estimates with this so their cache keys
        are never finer than what pricing can distinguish.
        :meth:`_reprice_dirty` applies the same expression in line.
        """
        steps = round(pressure / _PRESSURE_QUANTUM)
        return min(1.0, steps * _PRESSURE_QUANTUM)

    def system_counters(self) -> tuple[float, float]:
        """Aggregate (L3 miss rate, L3 accesses/s) across running blocks.

        This is what the runtime monitor samples for the interference
        proxy; rates were cached at the last re-pricing and aggregated
        incrementally, so the read is O(1).
        """
        misses = max(0.0, self._miss_sum)
        accesses = max(0.0, self._access_sum)
        if accesses <= 0.0:
            return 0.0, 0.0
        return misses / accesses, accesses

    # ------------------------------------------------------------------
    # scheduler-facing actions
    # ------------------------------------------------------------------

    def start_block(self, query: Query, stop_layer: int, cores: int,
                    versions: tuple[Schedule, ...],
                    desired_cores: int | None = None) -> int:
        """Begin executing layers ``[query.next_layer, stop_layer)``.

        ``desired_cores`` marks a scheduling conflict: the policy wanted
        more than it could get and intends to grow later.  Raises
        ``ValueError`` unless ``1 <= cores <= available_cores``.
        """
        start_layer = query.next_layer
        model = query.model
        if not start_layer < stop_layer <= len(model.layers):
            raise ValueError(
                f"bad block range [{start_layer}, {stop_layer}) for "
                f"{model.name}")
        if not 1 <= cores <= self.cpu.cores - self.cores_used:
            self._take_cores(cores)  # raises: the grant does not fit
        self.cores_used += cores
        desired = desired_cores if desired_cores is not None else cores
        task_id = next(self._task_ids)
        shape = (model.name, start_layer, stop_layer, versions, query.batch)
        table = self.price_cache.get(shape)
        if table is None:  # a fresh table is empty, hence falsy
            table = {}
            self.price_cache.put(shape, table)

        block = RunningBlock(
            task_id=task_id, query=query, start_layer=start_layer,
            stop_layer=stop_layer, versions=versions, cores=cores,
            desired_cores=desired, started_s=self.now, table=table,
            last_update_s=self.now,
        )
        block.pressure = self._block_pressure(block)
        self._pressure_sum += block.pressure
        self.running[task_id] = block
        if query.started_s is None:
            query.started_s = self.now
        query.blocks += 1
        self.metrics.blocks_started += 1
        if desired > cores:
            block.had_conflict = True
            self.conflicted_blocks += 1
            query.conflicts += 1
            self.metrics.conflicts += 1
            if self.tracer is not None:
                self.tracer.event(
                    "conflict", self.now, cat="engine",
                    qid=query.query_id,
                    args={"desired": desired, "granted": cores})
        self._dirty = True
        return task_id

    def grow_block(self, task_id: int, extra_cores: int) -> None:
        """Give a conflicted block more cores (paper's recovery technique).

        The added threads cost one spawn, charged against the block's
        remaining work at the next re-pricing.  Raises ``ValueError``
        unless ``1 <= extra_cores <= available_cores``.
        """
        block = self.running[task_id]
        self._take_cores(extra_cores)
        if block.cores < block.desired_cores <= block.cores + extra_cores:
            self.conflicted_blocks -= 1
        block.cores += extra_cores
        block.pending_overhead_s += self.cost_model.expand_overhead(
            extra_cores)
        block.query.grows += 1
        self._pressure_sum -= block.pressure
        block.pressure = self._block_pressure(block)
        self._pressure_sum += block.pressure
        self.metrics.grows += 1
        if self.tracer is not None:
            self.tracer.event(
                "grow", self.now, cat="engine",
                qid=block.query.query_id,
                args={"extra": extra_cores, "cores": block.cores})
        block.priced_quantum = -1.0  # owes its spawn: re-price next round
        self._dirty = True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _take_cores(self, cores: int) -> None:
        """Debit a grant from the free cores, which it must fit."""
        if not 1 <= cores <= self.available_cores:
            raise ValueError(
                f"cannot grant {cores} cores: {self.available_cores} "
                f"of {self.cpu.cores} free")
        self.cores_used += cores

    def _block_pressure(self, block: RunningBlock) -> float:
        """Duration-weighted pressure contribution of a block's layers."""
        cached = block.table.get(block.cores)
        if cached is not None:
            return cached
        batch = block.query.batch
        layers = block.query.model.graph.layers
        total_time = 0.0
        weighted = 0.0
        for offset, index in enumerate(range(block.start_layer,
                                             block.stop_layer)):
            layer = batched(layers[index], batch)
            version = block.versions[offset]
            iso = self.cost_model.latency(layer, version, block.cores, 0.0)
            contribution = self.cost_model.pressure_contribution(
                layer, version, block.cores)
            total_time += iso
            weighted += iso * contribution
        value = weighted / total_time if total_time > 0 else 0.0
        block.table[block.cores] = value
        return value

    def _advance(self, to_time: float) -> None:
        """Bank progress for all running blocks up to ``to_time``."""
        if self.metrics.first_event_s is None:
            self.metrics.first_event_s = to_time
        used = self.cores_used
        dt_total = to_time - self.metrics.last_event_s
        if dt_total > 0:
            self.metrics.usage_core_seconds += used * dt_total
        self.metrics.last_event_s = to_time
        self.metrics.max_cores_used = max(self.metrics.max_cores_used, used)
        for block in self.running.values():
            dt = to_time - block.last_update_s
            if dt > 0:
                block.progress = min(1.0, block.progress + dt * block.rate)
                block.query.core_seconds += block.cores * dt
                block.last_update_s = to_time
        self.now = to_time

    def _price_block(self, block: RunningBlock,
                     pressure: float) -> tuple[float, float, float]:
        """(duration, miss lines/s, access lines/s) for a block execution."""
        key = (block.cores, pressure)
        cached = block.table.get(key)
        if cached is not None:
            return cached
        self.metrics.prices_computed += 1
        batch = block.query.batch
        duration = block_duration(
            self.cost_model, block.query.model, block.start_layer,
            block.stop_layer, block.versions, block.cores, pressure, batch)
        layers = block.query.model.graph.layers
        misses = 0.0
        accesses = 0.0
        for offset, index in enumerate(range(block.start_layer,
                                             block.stop_layer)):
            execution = self.cost_model.execution(
                batched(layers[index], batch), block.versions[offset],
                block.cores, pressure)
            misses += execution.dram_line_misses
            accesses += execution.llc_line_accesses
        priced = (duration, misses / duration, accesses / duration)
        block.table[key] = priced
        return priced

    def _push_event(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))
        if len(self._events) > self.metrics.heap_peak:
            self.metrics.heap_peak = len(self._events)

    def _reprice_block(self, block: RunningBlock, quantum: float) -> None:
        """Re-price one block at ``quantum`` and schedule its finish."""
        duration, miss_rate, access_rate = self._price_block(block, quantum)
        if block.pending_overhead_s > 0.0:
            # Clamp at zero: a grow right after a block starts can owe
            # more spawn overhead than the block has banked progress,
            # and negative progress would overstate the remaining work.
            block.progress = max(
                0.0, block.progress - block.pending_overhead_s / duration)
            block.pending_overhead_s = 0.0
        self._miss_sum += miss_rate - block.miss_lines_per_s
        self._access_sum += access_rate - block.access_lines_per_s
        block.rate = 1.0 / duration
        block.miss_lines_per_s = miss_rate
        block.access_lines_per_s = access_rate
        if block.generation > 0:
            self._stale_finish += 1  # the previous finish event went stale
        block.generation += 1
        block.priced_quantum = quantum
        remaining = max(0.0, 1.0 - block.progress) * duration
        # _push_event in line: this is the engine's busiest push.
        events = self._events
        heapq.heappush(events, (self.now + remaining, next(self._seq),
                                "finish", (block.task_id, block.generation)))
        metrics = self.metrics
        if len(events) > metrics.heap_peak:
            metrics.heap_peak = len(events)
        metrics.repricings += 1
        metrics.finish_events_pushed += 1

    def _reprice_dirty(self) -> None:
        """Re-price blocks whose quantized excluded pressure changed.

        In incremental mode a block keeps its rate and its scheduled
        finish event while its quantum holds still; only new, grown, or
        quantum-shifted blocks pay for pricing and a heap push.  With
        ``incremental=False`` every running block is re-priced every
        round (the pre-overhaul behaviour, kept for A/B checks).
        """
        total = self._pressure_sum
        incremental = self.incremental
        changed = False
        for block in self.running.values():
            excluded = total - block.pressure
            if excluded < 0.0:
                excluded = 0.0
            elif excluded > 1.0:
                excluded = 1.0
            # quantize_pressure in line; on [0, 1] its cap never binds.
            quantum = round(excluded / _PRESSURE_QUANTUM) * _PRESSURE_QUANTUM
            if incremental and quantum == block.priced_quantum:
                continue
            self._reprice_block(block, quantum)
            changed = True
        self._dirty = False
        if changed:
            self.pressure_epoch += 1
            if self.tracer is not None:
                self.tracer.counter(
                    "engine", self.now,
                    {"pressure": min(1.0, max(0.0, self._pressure_sum)),
                     "running": len(self.running),
                     "queued": self.queued})
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Rebuild the heap once stale finish events dominate it.

        The heap list is rebuilt in place: the drive loop holds it.
        """
        if self._stale_finish <= _COMPACT_MIN_STALE:
            return
        events = self._events
        if self._stale_finish * 2 <= len(events):
            return
        live = [event for event in events
                if event[2] != "finish"
                or not self._stale(event[2], event[3])]
        self.metrics.stale_events_dropped += len(events) - len(live)
        events[:] = live
        heapq.heapify(events)
        self._stale_finish = 0
        self.metrics.heap_compactions += 1

    def _finish_block(self, block: RunningBlock) -> None:
        self.cores_used -= block.cores
        if block.cores < block.desired_cores:
            self.conflicted_blocks -= 1
        del self.running[block.task_id]
        self._pressure_sum -= block.pressure
        self._miss_sum -= block.miss_lines_per_s
        self._access_sum -= block.access_lines_per_s
        query = block.query
        query.next_layer = block.stop_layer
        if self.tracer is not None:
            self._trace_block(block)
        if block.stop_layer >= len(query.model.layers):  # query.done
            if isinstance(query, BatchQuery):
                self._complete_batch(query)
            else:
                query.finished_s = self.now
                self.completed.append(query)
                if self.tracer is not None:
                    self._trace_completion(query)
                if self.on_complete is not None:
                    self.on_complete(self, query)
        else:
            self.ready.append(query)
        self._dirty = True

    def _complete_batch(self, batch: BatchQuery) -> None:
        """Attribute a fused batch's outcome back to every member.

        Members land in :attr:`completed` individually (the wrapper
        never does) with their own arrival/QoS intact, the shared
        start/finish instants, and an equal share of the fused
        ``core_seconds`` — so ServingReport/QoS accounting stays exact
        over real requests.
        """
        batch.finished_s = self.now
        share = batch.core_seconds / batch.batch
        for member in batch.members:
            member.started_s = batch.started_s
            member.next_layer = len(member.model.layers)
            member.finished_s = self.now
            member.blocks = batch.blocks
            member.conflicts = batch.conflicts
            member.grows = batch.grows
            member.core_seconds = share
            self.completed.append(member)
            if self.tracer is not None:
                self._trace_completion(member)
        if self.tracer is not None:
            self.tracer.span(
                f"batch:{batch.model.name}", batch.arrival_s,
                self.now - batch.arrival_s, cat="batch",
                qid=batch.query_id,
                args={"size": batch.batch,
                      "members": [m.query_id for m in batch.members]})
        if self.on_complete is not None:
            for member in batch.members:
                self.on_complete(self, member)

    def _batch_offer(self, query: Query) -> None:
        """Park a fresh arrival in its model's open batch group.

        The first member opens the group and arms a ``max_wait_s``
        flush timer carrying the group; reaching ``max_batch`` closes the
        group early, and the timer goes stale and is dropped lazily,
        like superseded finish events.
        """
        name = query.model.name
        group = self._batch_pending.get(name)
        if group is None:
            group = self._batch_pending[name] = []
            self._push_event(self.now + self.batching.max_wait_s,
                             "batch", (name, group))
        group.append(query)
        self._batch_queued += 1
        if len(group) >= self.batching.max_batch:
            self._batch_flush(name)

    def _batch_flush(self, name: str) -> None:
        """Close a batch group and hand its payload to the scheduler."""
        group = self._batch_pending.pop(name)
        self._batch_queued -= len(group)
        if len(group) == 1:
            # Sparse traffic: release the original query unwrapped, so
            # it pays only the wait, never batched pricing.
            self.waiting.append(group[0])
            return
        fused = fuse_batch(group)
        self.waiting.append(fused)
        if self.tracer is not None:
            self.tracer.event(
                "batch.close", self.now, cat="batch", qid=fused.query_id,
                args={"model": name, "size": fused.batch})

    def _trace_block(self, block: RunningBlock) -> None:
        """Emit the closed block span (tracing enabled only).

        ``iso_s`` is the block's isolated (zero-pressure) duration,
        letting summarize recover the interference stall per block as
        ``dur - iso_s``.  It is computed directly, not through
        :meth:`_price_block`, so a traced run touches neither the price
        cache nor the pricing counters.
        """
        query = block.query
        args = {
            "layers": [block.start_layer, block.stop_layer],
            "cores": block.cores,
            "iso_s": block_duration(
                self.cost_model, query.model, block.start_layer,
                block.stop_layer, block.versions, block.cores, 0.0,
                query.batch),
        }
        if block.had_conflict:
            args["conflict"] = True
        if query.stage is not None:
            args["stage"] = query.stage
        self.tracer.span(
            f"{query.model.name}[{block.start_layer}:{block.stop_layer})",
            block.started_s, self.now - block.started_s, cat="block",
            qid=query.query_id, args=args)

    def _trace_completion(self, query: Query) -> None:
        """Emit the queue phase + lifecycle span at query completion.

        The query span's duration is stored as the exact float
        ``finished_s - arrival_s`` — the same value
        ``ServingReport.summarize`` averages — so a saved trace
        reproduces the report's mean latency bit for bit.  Pipeline
        stages share their pipeline's qid, so stage queries' spans also
        carry ``stage``.
        """
        started = (query.started_s if query.started_s is not None
                   else query.arrival_s)
        stage = {"stage": query.stage} if query.stage is not None else {}
        self.tracer.span("queue", query.arrival_s,
                         started - query.arrival_s, cat="phase",
                         qid=query.query_id, args=stage)
        self.tracer.span(
            query.model.name, query.arrival_s,
            query.finished_s - query.arrival_s, cat="query",
            qid=query.query_id,
            args={"satisfied": query.satisfied, "qos_s": query.qos_s,
                  "blocks": query.blocks, "conflicts": query.conflicts,
                  "grows": query.grows, **stage})

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def _stage_arrivals(self, queries: list[Query]) -> None:
        """Sort arrivals and seed the heap with the earliest one.

        Sequence numbers are assigned in input order *before* any finish
        event exists, so equal-time ties resolve exactly as if every
        arrival had been pushed up front — but the heap only ever holds
        one pending arrival instead of the whole stream.
        """
        self._arrivals = sorted(
            ((query.arrival_s, next(self._seq), "arrival", query)
             for query in queries),
            key=lambda event: (event[0], event[1]))
        self._arrival_cursor = 0
        self._feed_arrival()

    def _feed_arrival(self) -> None:
        if self._arrival_cursor < len(self._arrivals):
            heapq.heappush(self._events,
                           self._arrivals[self._arrival_cursor])
            self._arrival_cursor += 1
            if len(self._events) > self.metrics.heap_peak:
                self.metrics.heap_peak = len(self._events)

    def run(self, queries: list[Query], scheduler: Scheduler) -> list[Query]:
        """Simulate until all queries complete: :meth:`begin` +
        :meth:`drain`.  Returns completed queries in completion order;
        stop at a horizon with :meth:`begin` + :meth:`run_until`.
        """
        self.begin(queries, scheduler)
        return self.drain()

    # ------------------------------------------------------------------
    # incremental driving (cluster co-simulation)
    # ------------------------------------------------------------------

    def begin(self, queries: list[Query], scheduler: Scheduler) -> None:
        """Stage a stream and bind a scheduler without running the loop.

        The cluster driver feeds each node engine incrementally: it
        ``begin``-s with an empty stream, then alternates
        :meth:`run_until` (advance to the next global arrival) and
        :meth:`submit` (inject the query the router assigned here), and
        finally :meth:`drain`-s the tail.  :meth:`run` is exactly
        ``begin`` + :meth:`drain`.
        """
        self._scheduler = scheduler
        self._stage_arrivals(queries)

    def submit(self, query: Query, at: float | None = None) -> None:
        """Inject one arrival event, by default at ``query.arrival_s``.

        ``at`` sets the event time instead (an admission controller
        re-offering a deferred query) — the query's own ``arrival_s``
        is untouched, so its latency still counts the deferral.  Event
        times never go backwards: anything earlier than ``now`` fires
        immediately.
        """
        time = query.arrival_s if at is None else at
        self._push_event(max(time, self.now), "arrival", query)

    def run_until(self, until_s: float) -> None:
        """Process every event at ``time <= until_s``; call again to go on.

        Leaves the first out-of-window event in the heap and advances
        the clock (banking progress and core-usage accounting) to
        ``until_s`` so routers observe fresh block progress.
        """
        self._drive(until_s)

    def drain(self) -> list[Query]:
        """Run the loop to completion; returns the completed queries.

        Completion ordering contract (pinned by test, relied on by
        ``on_complete`` consumers): :attr:`completed` is append-only in
        simulation-time order — a query is appended at its finish
        instant, with equal-time ties resolved in event order — and
        ``on_complete`` fires immediately after each append, with
        ``engine.now`` equal to that query's ``finished_s``.  Batch
        members are appended (and hooked) individually, in member
        order, at the fused block's finish.  The hook may
        :meth:`submit` follow-up work; such arrivals are clamped to no
        earlier than the completion instant, and the drain keeps
        running until hook-generated work is exhausted too.
        """
        self._drive(None)
        return self.completed

    def next_event_s(self) -> float | None:
        """Earliest live event time in this engine, or None when idle.

        Drops stale events off the heap top exactly as the drive loop
        would (:meth:`_peek`), so the answer is the time
        :meth:`run_until` would next act at.  The cluster serve loop
        steps request-model serves by it, so completion-hook hand-offs
        are offered at their own instant on every node.
        """
        event = self._peek()
        return None if event is None else event[0]

    def _stale(self, kind: str, payload) -> bool:
        """Whether a heap event was superseded after it was pushed.

        A finish event is stale once its block has finished or was
        re-priced (its generation moved on); a batch timer once its
        group is no longer the model's open one.  Arrivals never are.
        :meth:`_drive` applies the finish rule in line.
        """
        if kind == "finish":
            block = self.running.get(payload[0])
            return block is None or block.generation != payload[1]
        if kind == "batch":
            return self._batch_pending.get(payload[0]) is not payload[1]
        return False

    def _peek(self) -> tuple | None:
        """The earliest live event, left on the heap; None when idle.

        Stale events on the heap top are popped on the way, without
        advancing the clock (progress banking is linear, so skipping
        the no-op advance changes nothing).
        """
        events = self._events
        while events:
            event = events[0]
            if not self._stale(event[2], event[3]):
                return event
            heapq.heappop(events)
            if event[2] == "finish":
                self._stale_finish -= 1
                self.metrics.stale_events_dropped += 1
        return None

    def _drive(self, horizon_s: float | None) -> None:
        scheduler = self._scheduler
        if scheduler is None:
            raise RuntimeError("no scheduler bound; call begin()/run()")
        # The heap top is read once per event.  Stale tops are dropped
        # as :meth:`_peek` drops them (the finish rule of :meth:`_stale`
        # in line, keeping the block it looks up); compaction rebuilds
        # ``events`` in place.
        events = self._events
        running = self.running
        heappop = heapq.heappop
        while events:
            time, _, kind, payload = events[0]
            if kind == "finish":
                block = running.get(payload[0])
                if block is None or block.generation != payload[1]:
                    heappop(events)
                    self._stale_finish -= 1
                    self.metrics.stale_events_dropped += 1
                    continue
            elif kind == "batch" and self._stale(kind, payload):
                heappop(events)
                continue
            if horizon_s is not None and time > horizon_s:
                break  # left on the heap for the next call
            heappop(events)
            self._advance(time)
            if kind == "arrival":
                if self.batching is not None and payload.next_layer == 0:
                    self._batch_offer(payload)
                else:
                    self.waiting.append(payload)
                if self.tracer is not None:
                    self.tracer.event("arrival", time, cat="engine",
                                      qid=payload.query_id)
                self._feed_arrival()
            elif kind == "batch":
                self._batch_flush(payload[0])
            else:
                self._finish_block(block)
            scheduler.schedule(self)
            # Only a live event can wake an idle machine: stale ones
            # never fire, so a heap of them must not hide a deadlock.
            if (not running and (self.waiting or self.ready)
                    and self._peek() is None):
                raise RuntimeError(
                    "scheduler deadlock: pending queries with an idle "
                    "machine and no future events")
            if self._dirty:
                self._reprice_dirty()
        # Account the tail of the simulated window: without this advance,
        # usage/last_event under-count everything after the final
        # in-horizon event and inflate average cores.
        if (horizon_s is not None and self.metrics.first_event_s is not None
                and horizon_s > self.now):
            self._advance(horizon_s)
