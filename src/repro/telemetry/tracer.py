"""The structured event bus: typed span/counter/event records, zero deps.

One :class:`Tracer` collects every record a run emits — engine block
spans, per-query lifecycle spans, scheduler decisions, router choices,
admission verdicts, autoscale signals — into a single in-memory stream
that serialises to JSONL (schema :data:`TRACE_SCHEMA`).  The stream is
*observational only*: instrumented components never read it back, so a
traced run is bit-identical to an untraced one (the telemetry-overhead
benchmark gates exactly this).

The default everywhere is **no tracer** (``None``): every emission site
in the hot path is guarded by a single ``if tracer is not None`` check,
so the disabled cost is one attribute test per event — the overhead
benchmark ratchets it to ≤2% of the 600 QPS mixed run.

Record model
------------

Every record is a :class:`TraceRecord` with a ``kind``:

``span``
    A closed interval ``[ts, ts + dur]``.  Categories in use:
    ``query`` (arrival → completion, one per query, linked by ``qid``),
    ``phase`` (the ``queue`` wait: arrival → first block start), and
    ``block`` (one engine block execution; ``args`` carries the final
    cores, the layer range, a ``conflict`` flag on a block that started
    short of the cores it asked for, a pipeline ``stage`` where there is
    one, and the isolated duration ``iso_s`` so interference stall is
    recoverable per block).
    Request-model serves add ``batch`` (one fused batch, arrival of the
    first member → completion, ``args`` lists member qids), ``pipeline``
    (a chain's arrival → last-stage completion, ``qid`` = pipeline id,
    shared with every stage query span), and ``session`` (a closed-loop
    tenant's first issue → last outcome, with issue/outcome counts).
``event``
    An instant: ``arrival``, ``dispatch`` (scheduler decision, with
    planning pressure; fused batches add their ``batch`` size),
    ``conflict``, ``grow``, ``gacer.cap``,
    ``route`` (+ per-node scores), ``admission.shed`` /
    ``admission.defer``, ``scale.provision/join/drain/retire``,
    ``batch.close`` (a batch group fusing), and ``pipeline.failed``
    (a shed stage killing its chain).
``counter``
    A named value set sampled at ``ts``: ``engine`` (pressure, running,
    queued after each repricing round) and ``fleet.signals`` (the
    autoscale controller's per-tick :class:`FleetSignals` — see
    :data:`FLEET_SIGNAL_FIELDS` for the schema mapping that makes a
    recorded trace double as an offline training set for learned
    routers).

``node`` scopes a record to one fleet member (``""`` for single-node
runs); ``qid`` links all records of one query's lifecycle.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Bump on any incompatible change to the JSONL record layout.
TRACE_SCHEMA = "repro.telemetry.trace/1"

#: Record kinds.
SPAN = "span"
EVENT = "event"
COUNTER = "counter"

#: Mapping from :class:`repro.cluster.autoscale.FleetSignals` fields to
#: the value keys of the per-tick ``fleet.signals`` counter records —
#: the feature schema an offline learned-router/admission trainer reads
#: straight out of a recorded trace (one sample per control tick,
#: decisions recoverable from the interleaved ``scale.*`` events).
FLEET_SIGNAL_FIELDS = ("pressure", "backlog_per_core", "violation_rate",
                       "live", "warming")


@dataclass
class TraceRecord:
    """One telemetry record (see the module docstring for the kinds)."""

    kind: str
    name: str
    ts: float
    dur: float = 0.0
    cat: str = ""
    node: str = ""
    qid: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.ts + self.dur

    def to_payload(self) -> dict:
        payload = {"kind": self.kind, "name": self.name, "ts": self.ts}
        if self.kind == SPAN:
            payload["dur"] = self.dur
        if self.cat:
            payload["cat"] = self.cat
        if self.node:
            payload["node"] = self.node
        if self.qid is not None:
            payload["qid"] = self.qid
        if self.args:
            payload["args"] = self.args
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "TraceRecord":
        kind = payload.get("kind")
        if kind not in (SPAN, EVENT, COUNTER):
            raise ValueError(f"bad trace record kind {kind!r}")
        return cls(
            kind=kind, name=payload["name"], ts=float(payload["ts"]),
            dur=float(payload.get("dur", 0.0)),
            cat=payload.get("cat", ""), node=payload.get("node", ""),
            qid=payload.get("qid"), args=dict(payload.get("args", {})))


class Tracer:
    """Collects :class:`TraceRecord` streams for one run.

    Components receive either a ``Tracer`` or a node-scoped view of one
    from :meth:`bind`; both are tracers over the same record list, so
    instrumentation code never cares which it holds.
    """

    def __init__(self, run_id: str = "", meta: dict | None = None) -> None:
        self.run_id = run_id
        self.meta = dict(meta) if meta else {}
        self.records: list[TraceRecord] = []
        #: Node stamped on every record emitted without its own.
        self.node = ""

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        # A sink is truthy by existence, not by fill level: without
        # this, ``__len__`` would make an empty tracer falsy and
        # ``tracer if tracer else None`` would silently drop it.
        return True

    def bind(self, node: str) -> "Tracer":
        """A view over the same records that stamps ``node`` on every
        record it emits without a node of its own."""
        view = copy.copy(self)
        view.node = node
        return view

    # -- emission ------------------------------------------------------------

    def span(self, name: str, ts: float, dur: float, cat: str = "",
             node: str = "", qid: int | None = None,
             args: dict | None = None) -> None:
        self.records.append(TraceRecord(
            kind=SPAN, name=name, ts=ts, dur=dur, cat=cat,
            node=node or self.node, qid=qid,
            args=args if args is not None else {}))

    def event(self, name: str, ts: float, cat: str = "", node: str = "",
              qid: int | None = None, args: dict | None = None) -> None:
        self.records.append(TraceRecord(
            kind=EVENT, name=name, ts=ts, cat=cat, node=node or self.node,
            qid=qid, args=args if args is not None else {}))

    def counter(self, name: str, ts: float, values: dict,
                node: str = "") -> None:
        self.records.append(TraceRecord(
            kind=COUNTER, name=name, ts=ts, node=node or self.node,
            args=dict(values)))

    # -- freezing ------------------------------------------------------------

    def trace(self) -> "Trace":
        """Freeze the collected records into an analysable trace."""
        return Trace(run_id=self.run_id, meta=dict(self.meta),
                     records=list(self.records))

    def save(self, path: str | Path) -> Path:
        return self.trace().save(path)


@dataclass
class Trace:
    """A loaded (or frozen) record stream, ready for analysis/export."""

    run_id: str = ""
    meta: dict = field(default_factory=dict)
    records: list[TraceRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- selection helpers ---------------------------------------------------

    def spans(self, cat: str | None = None) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == SPAN
                and (cat is None or r.cat == cat)]

    def events(self, name: str | None = None) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == EVENT
                and (name is None or r.name == name)]

    def counters(self, name: str | None = None) -> list[TraceRecord]:
        return [r for r in self.records if r.kind == COUNTER
                and (name is None or r.name == name)]

    @property
    def nodes(self) -> list[str]:
        """Distinct node labels, in first-appearance (emission) order."""
        seen: dict[str, None] = {}
        for record in self.records:
            if record.node not in seen:
                seen[record.node] = None
        return list(seen)

    @property
    def span_s(self) -> float:
        """Wall span covered by the records (earliest ts to latest end)."""
        if not self.records:
            return 0.0
        start = min(record.ts for record in self.records)
        end = max(record.end for record in self.records)
        return max(0.0, end - start)

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the JSONL file: one header line, one record per line.

        Floats serialise via ``repr`` (the :mod:`json` default), which
        round-trips ``float`` exactly — a reloaded trace reproduces
        span durations bit for bit, which is what lets the summarize
        CLI reproduce ``ServingReport.average_latency_s`` exactly.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            header = {"schema": TRACE_SCHEMA, "run_id": self.run_id,
                      "meta": self.meta, "records": len(self.records)}
            handle.write(json.dumps(header) + "\n")
            for record in self.records:
                handle.write(json.dumps(record.to_payload()) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        path = Path(path)
        with path.open() as handle:
            header_line = handle.readline()
            if not header_line.strip():
                raise ValueError(f"{path}: empty trace file")
            header = json.loads(header_line)
            if header.get("schema") != TRACE_SCHEMA:
                raise ValueError(
                    f"{path}: schema {header.get('schema')!r}, expected "
                    f"{TRACE_SCHEMA!r}")
            records = [TraceRecord.from_payload(json.loads(line))
                       for line in handle if line.strip()]
        declared = header.get("records")
        if declared is not None and declared != len(records):
            raise ValueError(
                f"{path}: header declares {declared} records, found "
                f"{len(records)} (truncated file?)")
        return cls(run_id=header.get("run_id", ""),
                   meta=dict(header.get("meta", {})), records=records)
