"""Reusable experiment drivers behind the paper's figures.

Each function maps onto one evaluation protocol of Sec. 5; the benchmark
modules parameterise them per figure and print the paper-shaped series.

The load axis is the expensive one — every point of a QPS sweep is an
independent simulation — so :func:`sweep_qps` is one point function
(offered QPS -> report) run through :func:`repro.parallel.sweep`, which
can fan points out over ``fork``-ed worker processes.  The capacity
search (:func:`capacity`, the Fig. 12 protocol) and the latency curves
(:func:`reports_over_qps`, Fig. 13) both run through it; with
``workers=1`` every call reduces to the classic sequential protocol.
The fleet drivers of :mod:`repro.cluster.experiments` reuse the same
sweep, the same pre-fork warm-up (:func:`warm_stack`) and the same
bisection (:func:`bisect_capacity`).

Every driver accepts a ``scenario`` (:class:`repro.workloads.ScenarioSpec`
or registered name): the arrival shape the sweep scales to each offered
load.  ``None`` keeps the legacy stationary-Poisson path, which the
``"poisson"`` scenario reproduces bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.parallel import point_pool, sweep
from repro.serving.metrics import (
    ServingReport,
    max_qps_at_satisfaction,
    summarize,
)
from repro.serving.server import ServingStack
from repro.serving.workload import (
    WorkloadSpec,
    scenario_queries,
    single_model,
)


def warm_stack(stack: ServingStack, devices: tuple = ()) -> None:
    """Build every lazy artifact a sweep's workers read, before forking.

    Workers share compiled models, scheduling profiles, per-device
    runtimes and fitted proxies by copy-on-write only if they exist at
    fork time — otherwise every worker would redo the whole compile
    pass (and profiles and proxy fits) privately.  ``devices`` are the
    node devices whose runtimes and proxies the workers read.
    """
    stack.ensure_compiled()
    _ = stack.profiles.values()
    for device in devices:
        runtime = stack.runtime_for(device)
        _ = runtime.profiles.values()
        _ = runtime.proxy


def _point(stack: ServingStack, policy: str, spec: WorkloadSpec,
           count: int, seed: int | None, scenario):
    """The single-node point function: offered QPS -> ServingReport."""
    effective_seed = stack.seed if seed is None else seed

    def run(qps: float) -> ServingReport:
        queries = scenario_queries(stack.compiled, scenario, qps, count,
                                   seed=effective_seed, spec=spec)
        completed, engine = stack.run(policy, queries)
        return summarize(completed, engine.metrics, qps)

    return run


def _warm(stack: ServingStack, policy: str):
    # Only the proxy-driven policies pay the proxy fit.
    proxied = policy in ("veltair_ac", "veltair_full")
    return lambda: warm_stack(stack, (stack.cpu,) if proxied else ())


def sweep_qps(stack: ServingStack, policy: str, spec: WorkloadSpec,
              qps_values: list[float], count: int,
              seed: int | None = None, workers: int | None = None,
              scenario=None) -> list[ServingReport]:
    """One report per offered load, optionally across worker processes.

    Every point is an independent simulation of ``count`` queries, so
    the sweep parallelises perfectly.  ``workers > 1`` forks a process
    pool (the compiled stack travels by copy-on-write, never pickled);
    ``workers`` of 1 or ``None``, or a platform without ``fork``, runs
    the points sequentially in-process — same results either way, the
    simulations are deterministic per (seed, qps).

    A ``scenario`` (spec or registered name) replaces the arrival shape
    wholesale.  Request-model scenarios (``closed_loop``/``pipeline``)
    raise ``ValueError``: an open-loop sweep pre-draws a fixed stream
    per point — run those through :meth:`ServingStack.run_stream
    <repro.serving.server.ServingStack.run_stream>` or
    :meth:`Cluster.serve_stream <repro.cluster.fleet.Cluster.serve_stream>`.
    """
    return sweep(_point(stack, policy, spec, count, seed, scenario),
                 [float(qps) for qps in qps_values], workers=workers,
                 warm=_warm(stack, policy))


def reports_over_qps(stack: ServingStack, policy: str, model_name: str,
                     qps_values: list[float], count: int,
                     seed: int | None = None,
                     workers: int | None = None,
                     scenario="uniform") -> list[ServingReport]:
    """One report per offered load — the Fig. 3 / Fig. 5a protocol.

    The paper's granularity study streams a single model with identical
    uniform arrivals: the registered ``"uniform"`` scenario (the
    default).  Any other ``scenario`` swaps in its arrival shape;
    ``None`` draws stationary Poisson arrivals.
    """
    return sweep_qps(stack, policy, single_model(model_name),
                     list(qps_values), count, seed=seed, workers=workers,
                     scenario=scenario)


@dataclass(frozen=True)
class CapacityResult:
    """QPS@95% for one (policy, workload) cell of Fig. 12."""

    policy: str
    workload: str
    qps: float
    report: ServingReport


def bisect_capacity(point, workers: int | None, warm, target: float,
                    low_qps: float, high_qps: float,
                    tolerance_qps: float):
    """``(qps, report)``: max offered QPS at ``target`` satisfaction.

    The bisection behind :func:`capacity` and the fleet's
    ``cluster_capacity``, over a point function (offered QPS ->
    report).  With ``workers > 1`` each round batches ``workers`` probes
    across one persistent :func:`repro.parallel.point_pool` (``warm``
    runs before the fork); by default it is the paper's sequential
    protocol, probe for probe.
    """
    batch = 1 if workers is None else max(1, int(workers))
    workers_cm = (point_pool(point, batch, warm=warm) if batch > 1
                  else contextlib.nullcontext())
    with workers_cm as pool:
        return max_qps_at_satisfaction(
            run_batch=lambda loads: sweep(
                point, [float(qps) for qps in loads], pool=pool),
            batch=batch, target=target, low_qps=low_qps,
            high_qps=high_qps, tolerance_qps=tolerance_qps)


def capacity(stack: ServingStack, policy: str, spec: WorkloadSpec,
             count: int, target: float = 0.95,
             low_qps: float = 10.0, high_qps: float = 800.0,
             tolerance_qps: float = 15.0,
             seed: int | None = None,
             workers: int | None = None,
             scenario=None) -> CapacityResult:
    """Max offered QPS with ``target`` QoS satisfaction (Fig. 12 metric).

    The bisection (:func:`bisect_capacity`) evaluates its probe loads
    through the :func:`sweep_qps` point function; ``workers > 1``
    batches each round across one persistent pool.  A ``scenario``
    makes this "capacity under that arrival shape": the bisection
    scales the scenario's mean rate instead of a stationary Poisson
    rate.
    """
    point = _point(stack, policy, spec, count, seed, scenario)
    qps, report = bisect_capacity(
        point, workers, _warm(stack, policy), target=target,
        low_qps=low_qps, high_qps=high_qps, tolerance_qps=tolerance_qps)
    return CapacityResult(policy=policy, workload=spec.name, qps=qps,
                          report=report)
