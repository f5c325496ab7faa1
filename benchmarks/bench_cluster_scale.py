"""Fleet-scale benchmark: cluster capacity vs router and node count.

The cluster analogue of the paper's Fig. 12 protocol, run on a 4-node
heterogeneous fleet (2x 64-core, 1x 256-core, 1x 32-core edge node)
under a mixed-class workload (light + heavy QoS):

* **Router headroom** — fleet capacity (max QPS at >= 99% QoS
  satisfaction, shed queries counting as violations) per router.  The
  acceptance bar: ``pressure_aware`` must sustain strictly higher
  capacity than ``round_robin``, which hands the edge node a full
  quarter of the traffic and lets it cap the whole fleet.
* **One compile pass** — the entire fleet (three distinct CPU specs)
  must serve from a single ``ServingStack`` compile: the compiler sees
  each layer of the stack's models once (``artifact_builds`` = 1.0);
  per-node runtimes re-profile, never re-compile.
* **Exact reconciliation** — every ``ClusterReport`` fleet total must
  equal the sum of its per-node constituents, query for query.
* **Fleet scaling** — capacity of homogeneous 1/2/4-node fleets under
  ``pressure_aware`` (how close to linear the router keeps the fleet).

Run standalone (the CI smoke test uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_cluster_scale.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_cluster_scale.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cluster import (
    AdmissionPolicy,
    Cluster,
    cluster_capacity,
    homogeneous,
    mixed_fleet,
)
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec

FULL_MODELS = ("mobilenet_v2", "tiny_yolov2", "googlenet",
               "resnet50", "ssd_resnet34")
QUICK_MODELS = ("mobilenet_v2", "tiny_yolov2", "ssd_resnet34")

#: The routers this benchmark's committed baseline covers.  Pinned
#: explicitly (not the live registry) so new routers — benchmarked by
#: their own suites, e.g. bench_hetero_fleet for ``device_affinity`` —
#: don't change this baseline's metric set or wall time.
CAPACITY_ROUTERS = ("round_robin", "least_outstanding",
                    "join_shortest_queue", "pressure_aware")


def _bracket_note(qps: float, high_qps: float) -> str:
    """Flag capacities pinned by the search's bracket-expansion limit.

    ``max_qps_at_satisfaction`` doubles its bracket up to 16x the
    initial ``high_qps`` before giving up; a result at that ceiling is
    a search bound, not a measured capacity, and must not read as one.
    """
    return "  [bracket-limited]" if qps >= 16 * high_qps else ""


def compile_passes(stack: ServingStack) -> float:
    """Layers the stack's compiler saw per layer of its compiled models.

    1.0 when every model compiled exactly once: per-device runtimes
    re-profile the shared artifacts and never send a layer through the
    compiler again.
    """
    layers = sum(len(model) for model in stack.compiled.values())
    return stack.compiler.stats.layers_total / layers


def mixed_class_spec(models: tuple[str, ...]) -> WorkloadSpec:
    """Light models dominate the stream; the heavy detector rides along."""
    weights = {"ssd_resnet34": 1.0}
    return WorkloadSpec(
        name="mixed-class",
        entries=tuple((name, weights.get(name, 4.0)) for name in models))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small stack / stream (the CI smoke config)")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per fleet simulation")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workers", type=int,
                        default=int(os.environ.get("REPRO_BENCH_WORKERS",
                                                   "4")),
                        help="fork workers per capacity-search round")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; skip the acceptance assertions")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write BENCH_cluster_scale.json into "
                             "DIR")
    args = parser.parse_args(argv)

    models = QUICK_MODELS if args.quick else FULL_MODELS
    count = (args.queries if args.queries is not None
             else (200 if args.quick else 400))
    if count <= 0:
        parser.error("--queries must be positive")
    trials = 64 if args.quick else 96
    tolerance = 40.0 if args.quick else 25.0
    spec = mixed_class_spec(models)

    t0 = time.perf_counter()
    stack = ServingStack(models=list(models), trials=trials,
                         proxy_scenarios=60, seed=11)
    fleet = mixed_fleet()
    print(f"stack: {len(models)} models compiled once in "
          f"{time.perf_counter() - t0:.1f}s; fleet: {fleet.name} "
          f"({', '.join(f'{n.name}:{n.cores}c' for n in fleet.nodes)})")
    print(f"workload: {spec.name} ({count} queries/point, seed "
          f"{args.seed}), target 99% QoS fleet-wide\n")

    failures: list[str] = []

    # -- router headroom on the heterogeneous fleet ---------------------
    header = (f"{'router':22s} {'capacity':>9s} {'sat':>6s} "
              f"{'goodput':>8s} {'imbalance':>10s} {'wall':>7s}")
    print(header)
    print("-" * len(header))
    capacities: dict[str, float] = {}
    for router in CAPACITY_ROUTERS:
        t0 = time.perf_counter()
        result = cluster_capacity(
            stack, fleet, spec, count=count, router=router, target=0.99,
            low_qps=10.0, high_qps=800.0, tolerance_qps=tolerance,
            seed=args.seed, workers=args.workers)
        capacities[router] = result.qps
        report = result.report
        note = _bracket_note(result.qps, 800.0)
        print(f"{router:22s} {result.qps:8.0f}q {report.satisfaction_rate:6.1%} "
              f"{report.goodput_qps:7.0f}/s {report.load_imbalance:10.2f} "
              f"{time.perf_counter() - t0:6.1f}s{note}")
    headroom = capacities["pressure_aware"] / max(1.0,
                                                  capacities["round_robin"])
    print(f"\npressure_aware vs round_robin headroom: {headroom:.2f}x")
    if capacities["pressure_aware"] <= capacities["round_robin"]:
        failures.append(
            f"pressure_aware capacity {capacities['pressure_aware']:.0f} "
            f"not strictly above round_robin "
            f"{capacities['round_robin']:.0f}")

    passes = compile_passes(stack)
    if passes != 1.0:
        failures.append(f"fleet triggered {passes:g} compile passes; "
                        "sharing is broken")
    else:
        print("compile passes fleet-wide: 1 (three CPU specs, one "
              "compile pass)")

    # -- exact per-node reconciliation ----------------------------------
    probe_qps = max(50.0, capacities["pressure_aware"] * 0.8)
    cluster = Cluster(stack, fleet, router="pressure_aware")
    report = cluster.report(spec, qps=probe_qps, count=count,
                            seed=args.seed)
    print(f"\nreconciliation probe @ {probe_qps:.0f} QPS: {report}")
    print("  per-class p99: " + "  ".join(
        f"{name}={p99 * 1e3:.1f}ms" for name, p99 in report.class_p99_s))
    for node in report.nodes:
        print(f"  {node.name:8s} {node.cores:4d}c assigned={node.assigned:4d} "
              f"completed={node.completed:4d} satisfied={node.satisfied:4d}")
    exact = (
        report.admitted == sum(n.assigned for n in report.nodes)
        and report.completed == sum(n.completed for n in report.nodes)
        and report.satisfied == sum(n.satisfied for n in report.nodes)
        and report.offered == report.admitted + report.shed
        and report.completed == report.admitted)
    print(f"fleet totals == sum(per-node totals): {exact}")
    if not exact:
        failures.append("ClusterReport totals do not reconcile with "
                        "per-node totals")

    # -- admission under overload (informational) -----------------------
    overload_qps = capacities["pressure_aware"] * 1.5
    baseline = Cluster(stack, fleet, router="pressure_aware").report(
        spec, qps=overload_qps, count=count, seed=args.seed)
    print(f"\nadmission @ {overload_qps:.0f} QPS (1.5x capacity); "
          f"unguarded fleet sat={baseline.satisfaction_rate:.1%}:")
    for mode in ("shed", "defer"):
        policy = AdmissionPolicy(max_fleet_pressure=0.85,
                                 max_outstanding_per_core=0.02,
                                 mode=mode)
        over = Cluster(stack, fleet, router="pressure_aware",
                       admission=policy).report(spec, qps=overload_qps,
                                                count=count,
                                                seed=args.seed)
        print(f"  {mode:5s} shed={over.shed_rate:5.1%} "
              f"deferrals={over.deferrals:3d} "
              f"admitted-sat={over.satisfied / max(1, over.admitted):.1%} "
              f"fleet-sat={over.satisfaction_rate:.1%}")

    # -- fleet scaling under pressure_aware -----------------------------
    # Homogeneous 64-core fleets, 95% target (the paper's single-node
    # SLA; a 99% bar on 200-query streams is two misses and pure noise
    # at this scale).  Scaling is super-linear on mixed-class load: one
    # node cannot isolate the heavy detector from the 10 ms-QoS lights,
    # a fleet routes them apart.
    print(f"\nhomogeneous 64c fleet scaling (95% target):")
    print(f"{'nodes':>5s} {'capacity':>9s} {'per-node':>9s}")
    scaling: dict[int, float] = {}
    for node_count in (1, 2, 4):
        result = cluster_capacity(
            stack, homogeneous(node_count), spec, count=count,
            router="pressure_aware", target=0.95, low_qps=5.0,
            high_qps=150.0 * node_count, tolerance_qps=15.0,
            seed=args.seed, workers=args.workers)
        scaling[node_count] = result.qps
        print(f"{node_count:5d} {result.qps:8.0f}q "
              f"{result.qps / node_count:8.0f}q"
              f"{_bracket_note(result.qps, 150.0 * node_count)}")

    if args.json is not None:
        from repro.bench.results import BenchResult, write_result
        metrics = {f"capacity_{router}": qps
                   for router, qps in capacities.items()}
        metrics.update({
            "headroom": headroom,
            "artifact_builds": compile_passes(stack),
            "totals_reconcile": 1.0 if exact else 0.0,
            **{f"scaling_{n}_nodes": qps
               for n, qps in scaling.items()},
        })
        table = "\n".join(
            [f"{'router':22s} {'capacity':>9s}"]
            + [f"{router:22s} {qps:8.0f}q"
               for router, qps in capacities.items()]
            + ["", f"headroom pressure_aware/round_robin: "
                   f"{headroom:.2f}x",
               f"homogeneous 64c scaling: "
               + " ".join(f"{n}n={qps:.0f}q"
                          for n, qps in scaling.items())])
        write_result(BenchResult(
            name="cluster_scale",
            title="Cluster scale: fleet capacity per router",
            metrics=metrics,
            knobs={"quick": args.quick, "queries": count,
                   "trials": trials, "models": list(models),
                   "workers": args.workers},
            info={"failures": list(failures)},
            tables={"Cluster scale: fleet capacity per router": table},
            seed=args.seed), args.json)

    if failures and not args.no_check:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: acceptance checks passed" if not args.no_check
          else "\ndone (checks skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
