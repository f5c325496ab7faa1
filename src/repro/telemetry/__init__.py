"""Fleet-wide telemetry: structured event bus, exporters, trace CLI.

Entry points:

- pass ``tracer=Tracer()`` to :meth:`ServingStack.run`/``report`` or
  :meth:`Cluster.serve` to record a run (default ``None`` = off, free);
- ``tracer.save(path)`` writes the JSONL trace
  (schema ``repro.telemetry.trace/1``);
- ``python -m repro.telemetry summarize|export|diff|validate`` works on
  saved traces;
- :func:`tracer_from_env` honours ``REPRO_TRACE_DIR`` so examples and
  CI smoke runs can opt in without code changes.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.telemetry.analysis import summarize_trace, validate_trace
from repro.telemetry.export import to_chrome, validate_chrome
from repro.telemetry.tracer import Tracer

#: Environment variable examples/CI use to opt into tracing.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


def tracer_from_env(run_id: str = "run",
                    meta: dict | None = None) -> Tracer | None:
    """A :class:`Tracer` when :data:`TRACE_DIR_ENV` is set, else None.

    Callers that get a tracer should :func:`save_env_trace` it when the
    run finishes; the trace lands in ``$REPRO_TRACE_DIR/<run_id>.jsonl``.
    """
    if not os.environ.get(TRACE_DIR_ENV):
        return None
    return Tracer(run_id=run_id, meta=meta)


def save_env_trace(tracer: Tracer | None) -> Path | None:
    """Persist an env-opted tracer (no-op when tracing is off)."""
    directory = os.environ.get(TRACE_DIR_ENV)
    if tracer is None or not directory:
        return None
    return tracer.save(Path(directory) / f"{tracer.run_id or 'run'}.jsonl")


__all__ = [
    "TRACE_DIR_ENV", "Tracer", "save_env_trace", "summarize_trace",
    "to_chrome", "tracer_from_env", "validate_chrome", "validate_trace",
]
