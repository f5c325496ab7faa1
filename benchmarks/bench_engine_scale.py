"""Engine hot-path microbenchmark: events pushed / prices computed per query.

Gauges the discrete-event overhaul on a production-scale node
(:data:`PRODUCTION_SERVER_256`, where dozens of tenants co-locate) under
a high-QPS mixed workload:

* **A/B identity** — the incremental engine must produce bit-equal
  ``ServingReport`` metrics (within 1e-9) to the legacy
  reprice-everything mode on the same fixed-seed stream.
* **Hot-path reduction** — finish-event heap pushes and block
  repricings per query, legacy vs incremental (the acceptance bar is
  >= 3x for the full system at >= 500 QPS).
* **Cross-run pricing reuse** — a second sweep over the same engine
  configurations through the shared :class:`PricingCache` should barely
  touch the cost model at all (the QPS-bisection scenario).

Run standalone (the CI smoke test uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_engine_scale.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_engine_scale.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.hardware.platform import PRODUCTION_SERVER_256
from repro.runtime.engine import Engine
from repro.runtime.pricing import PricingCache
from repro.serving.metrics import ServingReport, summarize
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec, poisson_queries

FULL_MODELS = ("mobilenet_v2", "efficientnet_b0", "tiny_yolov2",
               "googlenet", "resnet50")
QUICK_MODELS = ("mobilenet_v2", "efficientnet_b0", "tiny_yolov2")


@dataclasses.dataclass
class ModeResult:
    report: ServingReport
    pushes: int
    repricings: int
    prices: int
    heap_peak: int
    stale_dropped: int
    wall_s: float


def _run_mode(stack: ServingStack, policy: str, spec: WorkloadSpec,
              qps: float, count: int, seed: int, incremental: bool,
              cache: PricingCache) -> ModeResult:
    queries = poisson_queries(stack.compiled, spec, qps, count, seed=seed)
    engine = Engine(stack.cost_model, price_cache=cache,
                    incremental=incremental)
    scheduler = stack.make_scheduler(policy)
    start = time.perf_counter()
    completed = engine.run(queries, scheduler)
    wall = time.perf_counter() - start
    m = engine.metrics
    return ModeResult(
        report=summarize(completed, m, qps),
        pushes=m.finish_events_pushed,
        repricings=m.repricings,
        prices=m.prices_computed,
        heap_peak=m.heap_peak,
        stale_dropped=m.stale_events_dropped,
        wall_s=wall,
    )


def reports_match(a: ServingReport, b: ServingReport,
                  tolerance: float = 1e-9) -> bool:
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float):
            if va == vb:  # covers inf == inf
                continue
            if abs(va - vb) > tolerance:
                return False
        elif va != vb:
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small stack / stream (the CI smoke config)")
    parser.add_argument("--qps", type=float, default=600.0,
                        help="offered load (acceptance regime: >= 500)")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per simulation")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-check", action="store_true",
                        help="report only; skip the acceptance assertions")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write BENCH_engine_scale.json into DIR")
    args = parser.parse_args(argv)

    lines: list[str] = []

    def out(text: str = "") -> None:
        print(text)
        lines.append(text)

    models = QUICK_MODELS if args.quick else FULL_MODELS
    count = (args.queries if args.queries is not None
             else (150 if args.quick else 400))
    if count <= 0:
        parser.error("--queries must be positive")
    trials = 64 if args.quick else 96
    spec = WorkloadSpec(name="mixed",
                        entries=tuple((m, 1.0) for m in models))

    t0 = time.perf_counter()
    stack = ServingStack(cpu=PRODUCTION_SERVER_256, models=list(models),
                         trials=trials, proxy_scenarios=60, seed=11)
    out(f"stack: {len(models)} models on {stack.cpu.name}, "
        f"compiled in {time.perf_counter() - t0:.1f}s")
    out(f"workload: {spec.name} @ {args.qps:.0f} QPS, {count} queries, "
        f"seed {args.seed}\n")

    failures: list[str] = []
    header = (f"{'policy':14s} {'mode':12s} {'pushes/q':>9s} "
              f"{'reprices/q':>11s} {'prices/q':>9s} {'heap':>6s} "
              f"{'sat':>6s} {'wall':>7s}")
    out(header)
    out("-" * len(header))

    ratios: dict[str, tuple[float, float]] = {}
    for policy in ("layerwise", "veltair_full"):
        results = {}
        for incremental in (False, True):
            cache = PricingCache()  # fresh per mode: cold-start fairness
            results[incremental] = _run_mode(
                stack, policy, spec, args.qps, count, args.seed,
                incremental, cache)
        for incremental, label in ((False, "legacy"), (True, "incremental")):
            r = results[incremental]
            out(f"{policy:14s} {label:12s} {r.pushes / count:9.1f} "
                f"{r.repricings / count:11.1f} {r.prices / count:9.2f} "
                f"{r.heap_peak:6d} {r.report.satisfaction_rate:6.2f} "
                f"{r.wall_s:6.2f}s")
        legacy, incr = results[False], results[True]
        push_ratio = legacy.pushes / max(1, incr.pushes)
        reprice_ratio = legacy.repricings / max(1, incr.repricings)
        ratios[policy] = (push_ratio, reprice_ratio)
        identical = reports_match(legacy.report, incr.report)
        out(f"{policy:14s} {'reduction':12s} {push_ratio:8.2f}x "
            f"{reprice_ratio:10.2f}x {'':9s} "
            f"reports_identical={identical}")
        if not identical:
            failures.append(f"{policy}: legacy vs incremental reports "
                            "diverged beyond 1e-9")
        if incr.heap_peak > legacy.heap_peak:
            failures.append(f"{policy}: incremental heap peak "
                            f"{incr.heap_peak} above legacy "
                            f"{legacy.heap_peak}")
        out()

    # Cross-run reuse: the same stream re-simulated through one shared
    # cache — the QPS-bisection access pattern.
    shared = PricingCache()
    cold = _run_mode(stack, "veltair_full", spec, args.qps, count,
                     args.seed, True, shared)
    warm = _run_mode(stack, "veltair_full", spec, args.qps, count,
                     args.seed, True, shared)
    out(f"shared-cache rerun: prices/q {cold.prices / count:.2f} -> "
        f"{warm.prices / count:.2f} "
        f"(hit rate {shared.hit_rate:.1%}, {len(shared)} block shapes)")
    if warm.prices > max(8, cold.prices // 10):
        failures.append("shared cache barely reused across runs")

    if not args.no_check:
        push_ratio, reprice_ratio = ratios["veltair_full"]
        if push_ratio < 3.0 or reprice_ratio < 3.0:
            failures.append(
                f"veltair_full reduction below 3x (pushes {push_ratio:.2f}x,"
                f" repricings {reprice_ratio:.2f}x)")

    if args.json is not None:
        from repro.bench.results import BenchResult, write_result
        metrics = {
            "full_push_reduction": ratios["veltair_full"][0],
            "full_reprice_reduction": ratios["veltair_full"][1],
            "layerwise_push_reduction": ratios["layerwise"][0],
            "layerwise_reprice_reduction": ratios["layerwise"][1],
            "reports_identical": 0.0 if any(
                "diverged" in f for f in failures) else 1.0,
            "warm_prices_per_query": warm.prices / count,
            "incremental_sat": incr.report.satisfaction_rate,
            "cache_hit_rate": shared.hit_rate,
        }
        write_result(BenchResult(
            name="engine_scale",
            title="Engine hot path: pushes/repricings per query, "
                  "legacy vs incremental",
            metrics=metrics,
            knobs={"quick": args.quick, "qps": args.qps,
                   "queries": count, "trials": trials,
                   "models": list(models)},
            info={"failures": list(failures)},
            tables={"Engine scale: hot-path reductions":
                    "\n".join(lines)},
            seed=args.seed), args.json)

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: acceptance checks passed" if not args.no_check
          else "\ndone (checks skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
