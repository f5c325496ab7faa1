"""Serving metrics: QoS satisfaction, latency, conflicts, CPU efficiency.

The paper's three evaluation metrics (Sec. 5.1) plus the conflict-rate
diagnostic of Fig. 5a:

* **QPS with 95% tasks QoS satisfied** — found by
  :func:`max_qps_at_satisfaction`, a bisection over offered load;
* **average latency** (Fig. 3b, Fig. 13);
* **CPU usage efficiency** (Fig. 10b, Fig. 14a) — average and maximum
  allocated cores over the busy span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.runtime.engine import SimulationMetrics
from repro.runtime.tasks import Query


@dataclass(frozen=True)
class ServingReport:
    """Summary of one simulated serving run."""

    offered_qps: float
    completed: int
    satisfaction_rate: float
    average_latency_s: float
    p99_latency_s: float
    conflict_rate: float
    grows: int
    average_cores_used: float
    max_cores_used: int
    blocks_started: int

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"qps={self.offered_qps:.0f} sat={self.satisfaction_rate:.1%}"
                f" lat={self.average_latency_s * 1e3:.2f}ms"
                f" conflicts={self.conflict_rate:.1%}"
                f" cores(avg/max)={self.average_cores_used:.1f}"
                f"/{self.max_cores_used}")


def summarize(completed: list[Query], metrics: SimulationMetrics,
              offered_qps: float) -> ServingReport:
    """Aggregate a finished simulation into a report."""
    if not completed:
        # Blocks may well have started (and conflicted) even when no
        # query finished inside the horizon — exactly the saturated
        # loads a capacity bisection probes — so the conflict rate must
        # come from block accounting, not default to zero.
        blocks = max(1, metrics.blocks_started)
        return ServingReport(
            offered_qps=offered_qps, completed=0, satisfaction_rate=0.0,
            average_latency_s=float("inf"), p99_latency_s=float("inf"),
            conflict_rate=metrics.conflicts / blocks,
            grows=metrics.grows,
            average_cores_used=metrics.average_cores_used,
            max_cores_used=metrics.max_cores_used,
            blocks_started=metrics.blocks_started)
    latencies = np.array([q.latency_s for q in completed])
    satisfied = sum(1 for q in completed if q.satisfied)
    blocks = max(1, metrics.blocks_started)
    return ServingReport(
        offered_qps=offered_qps,
        completed=len(completed),
        satisfaction_rate=satisfied / len(completed),
        average_latency_s=float(latencies.mean()),
        p99_latency_s=float(np.percentile(latencies, 99)),
        conflict_rate=metrics.conflicts / blocks,
        grows=metrics.grows,
        average_cores_used=metrics.average_cores_used,
        max_cores_used=metrics.max_cores_used,
        blocks_started=metrics.blocks_started,
    )


def _passes(report: ServingReport, target: float) -> bool:
    """Whether one capacity probe counts as passing.

    Invariant: a report with ``completed == 0`` never passes, whatever
    the target.  An empty report already carries
    ``satisfaction_rate=0.0``, which any target in the validated
    ``(0, 1]`` range rejects — the explicit guard exists so a future
    ``target=0`` misuse (or a relaxed validation) can never read an
    idle horizon as serving capacity.
    """
    return report.completed > 0 and report.satisfaction_rate >= target


def max_qps_at_satisfaction(
        run_batch: Callable[[list[float]], list[ServingReport]],
        target: float = 0.95,
        low_qps: float = 10.0,
        high_qps: float = 1200.0,
        tolerance_qps: float = 10.0,
        batch: int = 1) -> tuple[float, ServingReport]:
    """Largest offered QPS whose satisfaction rate stays above ``target``.

    Bisection over offered load (the paper's QPS-with-95%-QoS metric).
    ``run_batch`` simulates a list of load levels and returns one report
    per level (e.g. a :func:`repro.serving.experiments.sweep_qps`
    closure, which can spread a batch across worker processes).
    Returns the best passing load and its report; if even ``low_qps``
    fails, that failing report is returned with the load.

    ``batch > 1`` probes ``batch`` bracket doublings or interior points
    per round.  With ``batch=1`` the probe sequence is exactly the
    classic bisection.
    """
    if not 0.0 < target <= 1.0:
        raise ValueError("target must be in (0, 1]")
    if not tolerance_qps > 0.0:  # NaN fails too
        raise ValueError("tolerance_qps must be positive")
    batch = max(1, int(batch))

    def evaluate(points: list[float]) -> list[ServingReport]:
        reports = run_batch(list(points))
        if len(reports) != len(points):
            raise ValueError("run_batch returned a mismatched batch")
        return reports

    (low_report,) = evaluate([low_qps])
    if not _passes(low_report, target):
        return low_qps, low_report
    best_qps, best_report = low_qps, low_report

    # Expand the bracket (by probing batches of doublings) until a load
    # fails or the ceiling of 16x the initial bracket still passes.
    limit = 16 * high_qps
    high = high_qps
    first_fail: tuple[float, ServingReport] | None = None
    while first_fail is None:
        probes = []
        probe = high
        for _ in range(batch):
            probes.append(probe)
            if probe >= limit:
                break
            probe *= 2.0
        reports = evaluate(probes)
        for qps, report in zip(probes, reports):
            if _passes(report, target):
                best_qps, best_report = qps, report
            else:
                first_fail = (qps, report)
                break
        if first_fail is None:
            if probes[-1] >= limit:
                return best_qps, best_report
            high = probes[-1] * 2.0
    high = first_fail[0]

    # Refine: each round evaluates ``batch`` evenly spaced interior
    # points and keeps the passing/failing boundary (monotone-load
    # assumption; results beyond the first failure are ignored, exactly
    # as sequential bisection would never have probed them).
    low = best_qps
    while high - low > tolerance_qps:
        if batch == 1:
            points = [(low + high) / 2.0]
        else:
            step = (high - low) / (batch + 1)
            points = [low + step * index for index in range(1, batch + 1)]
        reports = evaluate(points)
        for qps, report in zip(points, reports):
            if _passes(report, target):
                if qps > low:
                    low, best_qps, best_report = qps, qps, report
            else:
                high = qps
                break
    return best_qps, best_report
