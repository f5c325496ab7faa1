"""Arrival-trace record/replay: frozen query streams as JSON.

A trace captures everything needed to re-inject a stream into any
engine or fleet: per-query arrival instant, model name, and QoS budget.
JSON float serialisation uses ``repr`` round-tripping, so a saved trace
replays *bit-identically* — the replayed queries carry the exact same
``arrival_s``/``qos_s`` floats the generator produced, and a simulation
over them is indistinguishable from one over the original stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.compiler.library import CompiledModel
from repro.runtime.tasks import Query

#: Bump on any incompatible change to the on-disk layout.
TRACE_SCHEMA = "repro.workloads.trace/1"


@dataclass(frozen=True)
class TraceEntry:
    """One recorded query offer."""

    arrival_s: float
    model: str
    qos_s: float


@dataclass(frozen=True)
class ArrivalTrace:
    """A named, replayable arrival stream.

    ``meta`` is free-form provenance (scenario name, qps, seed, ...);
    it never affects replay.
    """

    name: str
    entries: tuple[TraceEntry, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError(f"trace {self.name!r} is empty")
        arrivals = [entry.arrival_s for entry in self.entries]
        if not all(map(math.isfinite, arrivals)):
            raise ValueError(f"trace {self.name!r} arrivals must be finite")
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError(f"trace {self.name!r} arrivals must be "
                             "non-decreasing")
        if not all(0.0 < entry.qos_s < math.inf for entry in self.entries):
            raise ValueError(f"trace {self.name!r} QoS budgets must be "
                             "positive and finite")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(entry.arrival_s for entry in self.entries)

    @property
    def models(self) -> tuple[str, ...]:
        return tuple(entry.model for entry in self.entries)

    @property
    def span_s(self) -> float:
        return self.entries[-1].arrival_s - self.entries[0].arrival_s

    def replay(self, compiled: Mapping[str, CompiledModel],
               count: int | None = None) -> list[Query]:
        """Fresh :class:`Query` objects replaying this trace exactly.

        Every replay builds new queries (engines mutate them), so a
        trace can feed any number of engines or fleet nodes.  ``count``
        may truncate but never extend the trace.
        """
        entries = self.entries
        if count is not None:
            if count > len(entries):
                raise ValueError(f"trace {self.name!r} holds "
                                 f"{len(entries)} arrivals, {count} asked")
            entries = entries[:count]
        missing = sorted({e.model for e in entries} - set(compiled))
        if missing:
            raise KeyError(f"trace {self.name!r} needs uncompiled models: "
                           f"{missing}")
        return [Query(query_id=index, model=compiled[entry.model],
                      arrival_s=entry.arrival_s, qos_s=entry.qos_s)
                for index, entry in enumerate(entries)]

    # -- persistence ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "meta": dict(self.meta),
            "entries": [[e.arrival_s, e.model, e.qos_s]
                        for e in self.entries],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_payload(), indent=1) + "\n")
        return path

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ArrivalTrace":
        schema = payload.get("schema")
        if schema != TRACE_SCHEMA:
            raise ValueError(f"unsupported trace schema {schema!r} "
                             f"(expected {TRACE_SCHEMA!r})")
        entries = tuple(
            TraceEntry(arrival_s=float(arrival), model=str(model),
                       qos_s=float(qos))
            for arrival, model, qos in payload["entries"])
        return cls(name=str(payload["name"]), entries=entries,
                   meta=dict(payload.get("meta", {})))

    @classmethod
    def load(cls, path: str | Path) -> "ArrivalTrace":
        return cls.from_payload(json.loads(Path(path).read_text()))


def record_trace(queries: Iterable[Query], name: str,
                 meta: Mapping[str, object] | None = None) -> ArrivalTrace:
    """Freeze a generated query stream into a replayable trace."""
    entries = tuple(TraceEntry(arrival_s=q.arrival_s, model=q.model.name,
                               qos_s=q.qos_s)
                    for q in sorted(queries, key=lambda q: (q.arrival_s,
                                                            q.query_id)))
    return ArrivalTrace(name=name, entries=entries, meta=dict(meta or {}))
