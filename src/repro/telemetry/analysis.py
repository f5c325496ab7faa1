"""Trace analysis: per-phase latency breakdown, validation, diffing.

A trace is *self-sufficient*: everything the summary reports is derived
from the recorded spans alone, never from simulator state.  For a traced
single-node run the summary's ``average_latency_s`` (and the percentile
metrics) reproduce the run's
:class:`~repro.serving.metrics.ServingReport` exactly — query spans
store ``finished_s - arrival_s`` as their duration, JSONL round-trips
floats bit for bit, and the mean is taken over the same values in the
same (completion) order — which the telemetry-overhead benchmark gates.

The per-phase breakdown splits each completed query's latency into:

``queue``
    arrival to first block start (admission deferrals included — the
    clock starts at the original arrival);
``execute``
    time inside block executions (the sum of the query's block spans);
``inter_block``
    the remainder: time between blocks, queued mid-model behind the
    scheduler (head-of-line waits, concurrency caps, core droughts);
``stall``
    the interference tax *inside* ``execute``: each block's actual
    duration minus its isolated (zero-pressure) duration — the part of
    execution the co-runners caused.  ``stall`` overlaps ``execute``;
    it is not a fourth additive phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.tracer import Trace, TraceRecord

#: Block spans must sit inside their query span up to float noise.
_NEST_EPS = 1e-9


@dataclass
class PhaseBreakdown:
    """Mean seconds per lifecycle phase over one group of queries."""

    queries: int = 0
    satisfied: int = 0
    latency_s: float = 0.0
    queue_s: float = 0.0
    execute_s: float = 0.0
    inter_block_s: float = 0.0
    stall_s: float = 0.0

    @property
    def satisfaction_rate(self) -> float:
        return self.satisfied / self.queries if self.queries else 0.0


@dataclass
class TraceSummary:
    """The summarize verdict: headline metrics + per-phase breakdowns."""

    completed: int
    satisfied: int
    satisfaction_rate: float
    average_latency_s: float
    p99_latency_s: float
    overall: PhaseBreakdown
    by_model: dict[str, PhaseBreakdown] = field(default_factory=dict)
    by_node: dict[str, PhaseBreakdown] = field(default_factory=dict)
    blocks: int = 0
    conflicts: int = 0
    grows: int = 0
    dispatches: int = 0
    routes: int = 0
    sheds: int = 0
    deferrals: int = 0
    scaling_events: int = 0
    span_s: float = 0.0


def _key(record: TraceRecord) -> tuple[int | None, int | None]:
    """A query's span key: pipeline stages share their pipeline's qid,
    so stage spans also carry ``stage`` and key by ``(qid, stage)``."""
    return record.qid, record.args.get("stage")


def _label(key: tuple[int | None, int | None]) -> str:
    qid, stage = key
    return f"qid {qid}" if stage is None else f"qid {qid} stage {stage}"


def _query_groups(trace: Trace) -> tuple[list[TraceRecord],
                                         dict[tuple, list[TraceRecord]],
                                         dict[tuple, TraceRecord]]:
    """(query spans in record order, blocks by key, queue span by key)."""
    queries: list[TraceRecord] = []
    blocks: dict[tuple, list[TraceRecord]] = {}
    queues: dict[tuple, TraceRecord] = {}
    for record in trace.records:
        if record.kind != "span":
            continue
        if record.cat == "query":
            queries.append(record)
        elif record.cat == "block" and record.qid is not None:
            blocks.setdefault(_key(record), []).append(record)
        elif record.cat == "phase" and record.qid is not None:
            queues[_key(record)] = record
    return queries, blocks, queues


def _accumulate(breakdown: PhaseBreakdown, latency: float, queue: float,
                execute: float, stall: float, satisfied: bool) -> None:
    breakdown.queries += 1
    breakdown.satisfied += int(satisfied)
    breakdown.latency_s += latency
    breakdown.queue_s += queue
    breakdown.execute_s += execute
    breakdown.inter_block_s += max(0.0, latency - queue - execute)
    breakdown.stall_s += stall


def _finalise(breakdown: PhaseBreakdown) -> None:
    if breakdown.queries:
        count = breakdown.queries
        breakdown.latency_s /= count
        breakdown.queue_s /= count
        breakdown.execute_s /= count
        breakdown.inter_block_s /= count
        breakdown.stall_s /= count


def summarize_trace(trace: Trace) -> TraceSummary:
    """Fold a trace into headline metrics and per-phase breakdowns."""
    queries, blocks, queues = _query_groups(trace)

    overall = PhaseBreakdown()
    by_model: dict[str, PhaseBreakdown] = {}
    by_node: dict[str, PhaseBreakdown] = {}
    latencies: list[float] = []
    for span in queries:
        latency = span.dur
        latencies.append(latency)
        queue_span = queues.get(_key(span))
        queue = queue_span.dur if queue_span is not None else 0.0
        own_blocks = blocks.get(_key(span), ())
        execute = sum(b.dur for b in own_blocks)
        stall = sum(max(0.0, b.dur - b.args["iso_s"]) for b in own_blocks
                    if "iso_s" in b.args)
        satisfied = bool(span.args.get("satisfied", False))
        _accumulate(overall, latency, queue, execute, stall, satisfied)
        _accumulate(by_model.setdefault(span.name, PhaseBreakdown()),
                    latency, queue, execute, stall, satisfied)
        _accumulate(by_node.setdefault(span.node, PhaseBreakdown()),
                    latency, queue, execute, stall, satisfied)
    for breakdown in (overall, *by_model.values(), *by_node.values()):
        _finalise(breakdown)

    if latencies:
        # Same reduction ServingReport.summarize applies to the same
        # values in the same completion order — exact, not approximate.
        array = np.array(latencies)
        average = float(array.mean())
        p99 = float(np.percentile(array, 99))
    else:
        average = float("inf")
        p99 = float("inf")

    events = {"conflict": 0, "grow": 0, "dispatch": 0, "route": 0,
              "admission.shed": 0, "admission.defer": 0}
    scaling = 0
    for record in trace.records:
        if record.kind != "event":
            continue
        if record.name in events:
            events[record.name] += 1
        elif record.name.startswith("scale."):
            scaling += 1

    return TraceSummary(
        completed=overall.queries,
        satisfied=overall.satisfied,
        satisfaction_rate=overall.satisfaction_rate,
        average_latency_s=average,
        p99_latency_s=p99,
        overall=overall,
        by_model=by_model,
        by_node=by_node,
        blocks=sum(len(b) for b in blocks.values()),
        conflicts=events["conflict"],
        grows=events["grow"],
        dispatches=events["dispatch"],
        routes=events["route"],
        sheds=events["admission.shed"],
        deferrals=events["admission.defer"],
        scaling_events=scaling,
        span_s=trace.span_s,
    )


def validate_trace(trace: Trace) -> list[str]:
    """Structural well-formedness errors (empty list = well-formed).

    Checks the span-nesting contract the engine instrumentation
    guarantees: exactly one query span per completed query (qid, plus
    ``stage`` for pipeline stages), no orphan
    block spans, every block span inside its query span's interval on
    the same node, and the queue phase anchored at the query's arrival.
    """
    errors: list[str] = []
    queries, blocks, queues = _query_groups(trace)

    by_key: dict[tuple, TraceRecord] = {}
    for span in queries:
        if span.qid is None:
            errors.append(f"query span {span.name!r} at t={span.ts} has "
                          "no qid")
            continue
        key = _key(span)
        if key in by_key:
            errors.append(f"duplicate query span for {_label(key)}")
        by_key[key] = span

    for key, own_blocks in blocks.items():
        query = by_key.get(key)
        if query is None:
            errors.append(f"{len(own_blocks)} orphan block span(s) for "
                          f"{_label(key)} (no query span)")
            continue
        for block in own_blocks:
            if block.node != query.node:
                errors.append(f"{_label(key)}: block on node "
                              f"{block.node!r} but query on {query.node!r}")
            if (block.ts < query.ts - _NEST_EPS
                    or block.end > query.end + _NEST_EPS):
                errors.append(
                    f"{_label(key)}: block [{block.ts}, {block.end}] "
                    f"outside query span [{query.ts}, {query.end}]")

    for key, query in by_key.items():
        own_blocks = blocks.get(key)
        if not own_blocks:
            errors.append(f"{_label(key)}: query span with no block spans")
            continue
        first_start = min(b.ts for b in own_blocks)
        last_end = max(b.end for b in own_blocks)
        if abs(last_end - query.end) > _NEST_EPS:
            errors.append(f"{_label(key)}: query span ends at {query.end} "
                          f"but last block ends at {last_end}")
        queue_span = queues.get(key)
        if queue_span is not None:
            if abs(queue_span.ts - query.ts) > _NEST_EPS:
                errors.append(f"{_label(key)}: queue phase starts at "
                              f"{queue_span.ts}, arrival is {query.ts}")
            if queue_span.end > first_start + _NEST_EPS:
                errors.append(f"{_label(key)}: queue phase ends at "
                              f"{queue_span.end} after first block start "
                              f"{first_start}")
    return errors


# ---------------------------------------------------------------------------
# rendering / diffing


def _fmt_phase(label: str, b: PhaseBreakdown) -> str:
    return (f"{label:24s} {b.queries:6d} {b.satisfaction_rate:6.1%} "
            f"{b.latency_s * 1e3:8.3f} {b.queue_s * 1e3:8.3f} "
            f"{b.execute_s * 1e3:8.3f} {b.inter_block_s * 1e3:8.3f} "
            f"{b.stall_s * 1e3:8.3f}")


_PHASE_HEADER = (f"{'group':24s} {'count':>6s} {'sat':>6s} "
                 f"{'lat ms':>8s} {'queue':>8s} {'exec':>8s} "
                 f"{'inter':>8s} {'stall':>8s}")


def render_summary(summary: TraceSummary) -> str:
    """The human-readable summarize output (mean ms per phase)."""
    lines = [
        f"completed={summary.completed} satisfied={summary.satisfied} "
        f"({summary.satisfaction_rate:.2%})",
        f"average_latency_s={summary.average_latency_s!r} "
        f"p99_latency_s={summary.p99_latency_s!r}",
        f"blocks={summary.blocks} conflicts={summary.conflicts} "
        f"grows={summary.grows} dispatches={summary.dispatches}",
        f"routes={summary.routes} shed={summary.sheds} "
        f"deferred={summary.deferrals} "
        f"scaling_events={summary.scaling_events} "
        f"span={summary.span_s:.3f}s",
        "",
        _PHASE_HEADER,
        "-" * len(_PHASE_HEADER),
        _fmt_phase("overall", summary.overall),
    ]
    for model in sorted(summary.by_model):
        lines.append(_fmt_phase(f"model:{model}", summary.by_model[model]))
    for node in sorted(summary.by_node):
        label = node if node else "(single-node)"
        lines.append(_fmt_phase(f"node:{label}", summary.by_node[node]))
    return "\n".join(lines)


def diff_summaries(a: TraceSummary, b: TraceSummary,
                   label_a: str = "a", label_b: str = "b") -> str:
    """Side-by-side phase/metric comparison of two trace summaries."""
    rows: list[tuple[str, float, float]] = [
        ("completed", a.completed, b.completed),
        ("satisfaction_rate", a.satisfaction_rate, b.satisfaction_rate),
        ("average_latency_s", a.average_latency_s, b.average_latency_s),
        ("p99_latency_s", a.p99_latency_s, b.p99_latency_s),
        ("queue_s", a.overall.queue_s, b.overall.queue_s),
        ("execute_s", a.overall.execute_s, b.overall.execute_s),
        ("inter_block_s", a.overall.inter_block_s,
         b.overall.inter_block_s),
        ("stall_s", a.overall.stall_s, b.overall.stall_s),
        ("blocks", a.blocks, b.blocks),
        ("conflicts", a.conflicts, b.conflicts),
        ("sheds", a.sheds, b.sheds),
    ]
    header = (f"{'metric':20s} {label_a[:14]:>14s} {label_b[:14]:>14s} "
              f"{'delta':>12s} {'ratio':>8s}")
    lines = [header, "-" * len(header)]
    for name, va, vb in rows:
        delta = vb - va
        ratio = (vb / va) if va not in (0, 0.0) else float("inf")
        lines.append(f"{name:20s} {va:14.6g} {vb:14.6g} {delta:+12.6g} "
                     f"{ratio:8.3f}")
    return "\n".join(lines)
