"""Heterogeneous-fleet benchmark: CPU+accelerator serving from one compile.

The DeviceSpec acceptance gauge, on the ``batch_heavy`` scenario (a
throughput-dominated heavy/medium mix with a latency-critical light
minority) at a 99% fleet QoS target:

* **Mixed beats CPU-only** — adding the 80-SM accelerator node to the
  CPU fleet must raise capacity (same compile pass, same router).
* **Affinity beats pressure-aware** — the ``device_affinity`` router,
  which learns per-(model, device-kind) cost from completions, must
  sustain at least the ``pressure_aware`` capacity on the mixed fleet.
* **One compile pass** — CPUs and the accelerator all serve from a
  single ``ServingStack`` compile: the compiler sees each layer of the
  stack's models once (``artifact_builds`` = 1.0); per-device runtimes
  re-profile, never re-compile.
* **Routing determinism** — two ``device_affinity`` serves of the same
  stream must produce identical reports (learned state is rebuilt from
  the same observations in the same order).
* **Scheduler A/B on the accelerator** — per-policy QoS satisfaction at
  a fixed rate on the accelerator runtime, GACER included.

Run standalone (the CI smoke test uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_hetero_fleet.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_hetero_fleet.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cluster import Cluster, ClusterSpec, cluster_capacity, hetero_fleet
from repro.hardware import DATACENTER_ACCEL_80
from repro.runtime.engine import Engine
from repro.serving.metrics import summarize
from repro.serving.server import ServingStack
from repro.serving.workload import scenario_queries
from repro.workloads import get_scenario

MODELS = ("mobilenet_v2", "resnet50", "ssd_resnet34")
SCENARIO = "batch_heavy"
ACCEL_POLICIES = ("layerwise", "veltair_full", "gacer")


def cpu_only_fleet() -> ClusterSpec:
    """The hetero reference fleet minus its accelerator member."""
    hetero = hetero_fleet()
    return ClusterSpec(
        name="hetero-4-cpu-only",
        nodes=tuple(node for node in hetero.nodes
                    if node.device_kind == "cpu"))


def compile_passes(stack: ServingStack) -> float:
    """Layers the stack's compiler saw per layer of its compiled models.

    1.0 when every model compiled exactly once: per-device runtimes
    re-profile the shared artifacts and never send a layer through the
    compiler again.
    """
    layers = sum(len(model) for model in stack.compiled.values())
    return stack.compiler.stats.layers_total / layers


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
                        help="also write BENCH_hetero_fleet.json into DIR")
    args = parser.parse_args(argv)

    count = (args.queries if args.queries is not None
             else (200 if args.quick else 400))
    if count <= 0:
        parser.error("--queries must be positive")
    trials = 64 if args.quick else 96
    tolerance = 40.0 if args.quick else 25.0
    scenario = get_scenario(SCENARIO)
    spec = scenario.workload

    t0 = time.perf_counter()
    stack = ServingStack(models=list(MODELS), trials=trials,
                         proxy_scenarios=60, seed=11)
    hetero = hetero_fleet()
    cpu_fleet = cpu_only_fleet()
    print(f"stack: {len(MODELS)} models compiled once in "
          f"{time.perf_counter() - t0:.1f}s")
    print(f"fleets: {hetero.name} ("
          + ", ".join(f"{n.name}:{n.cores}{'sm' if n.device_kind != 'cpu' else 'c'}"
                      for n in hetero.nodes)
          + f") vs {cpu_fleet.name} ({len(cpu_fleet)} nodes)")
    print(f"scenario: {SCENARIO} ({count} queries/point, seed "
          f"{args.seed}), target 99% QoS fleet-wide\n")

    failures: list[str] = []

    # -- capacity: fleets x routers -------------------------------------
    points = (
        ("cpu_pressure", cpu_fleet, "pressure_aware"),
        ("hetero_pressure", hetero, "pressure_aware"),
        ("hetero_affinity", hetero, "device_affinity"),
    )
    header = (f"{'fleet/router':22s} {'capacity':>9s} {'sat':>6s} "
              f"{'goodput':>8s} {'wall':>7s}")
    print(header)
    print("-" * len(header))
    capacities: dict[str, float] = {}
    for label, fleet, router in points:
        t0 = time.perf_counter()
        result = cluster_capacity(
            stack, fleet, spec, count=count, router=router, target=0.99,
            low_qps=10.0, high_qps=800.0, tolerance_qps=tolerance,
            seed=args.seed, workers=args.workers, scenario=scenario)
        capacities[label] = result.qps
        report = result.report
        print(f"{label:22s} {result.qps:8.0f}q "
              f"{report.satisfaction_rate:6.1%} "
              f"{report.goodput_qps:7.0f}/s "
              f"{time.perf_counter() - t0:6.1f}s")

    mixed_ge_cpu = capacities["hetero_pressure"] >= capacities["cpu_pressure"]
    affinity_ge = (capacities["hetero_affinity"]
                   >= capacities["hetero_pressure"])
    print(f"\nmixed fleet >= CPU-only: {mixed_ge_cpu} "
          f"({capacities['hetero_pressure']:.0f} vs "
          f"{capacities['cpu_pressure']:.0f})")
    print(f"device_affinity >= pressure_aware: {affinity_ge} "
          f"({capacities['hetero_affinity']:.0f} vs "
          f"{capacities['hetero_pressure']:.0f})")
    if not mixed_ge_cpu:
        failures.append("accelerator node lowered fleet capacity")
    if not affinity_ge:
        failures.append("device_affinity under pressure_aware on the "
                        "batch-heavy scenario")

    passes = compile_passes(stack)
    if passes != 1.0:
        failures.append(f"fleet triggered {passes:g} compile passes; "
                        "device sharing is broken")
    else:
        print("compile passes fleet-wide: 1 (CPUs + accelerator, "
              "one compile pass)")

    # -- device_affinity determinism ------------------------------------
    probe_qps = max(50.0, capacities["hetero_affinity"] * 0.8)

    def affinity_report():
        queries = scenario_queries(stack.compiled, scenario, probe_qps,
                                   count, seed=args.seed)
        cluster = Cluster(stack, hetero, router="device_affinity")
        return cluster.serve(queries, offered_qps=probe_qps)

    first, second = affinity_report(), affinity_report()
    deterministic = (
        first.satisfaction_rate == second.satisfaction_rate
        and first.goodput_qps == second.goodput_qps
        and [n.assigned for n in first.nodes]
        == [n.assigned for n in second.nodes])
    print(f"\ndevice_affinity determinism probe @ {probe_qps:.0f} QPS: "
          f"{deterministic}")
    accel_nodes = [n for n in first.nodes if "accel" in n.name]
    for node in first.nodes:
        print(f"  {node.name:8s} assigned={node.assigned:4d} "
              f"satisfied={node.satisfied:4d}")
    if not deterministic:
        failures.append("device_affinity serves of one stream diverged")

    # -- scheduler A/B on the accelerator runtime -----------------------
    accel_qps = 80.0
    runtime = stack.runtime_for(DATACENTER_ACCEL_80)
    print(f"\nscheduler A/B on {DATACENTER_ACCEL_80.name} @ "
          f"{accel_qps:.0f} QPS:")
    print(f"{'policy':14s} {'sat':>7s} {'avg':>9s} {'p99':>9s}")
    accel_sat: dict[str, float] = {}
    for policy in ACCEL_POLICIES:
        queries = scenario_queries(stack.compiled, scenario, accel_qps,
                                   count, seed=args.seed)
        engine = Engine(runtime.cost_model,
                        price_cache=runtime.price_cache)
        scheduler = stack.make_scheduler(policy, runtime=runtime)
        completed = engine.run(queries, scheduler)
        report = summarize(completed, engine.metrics, accel_qps)
        accel_sat[policy] = report.satisfaction_rate
        print(f"{policy:14s} {report.satisfaction_rate:7.1%} "
              f"{report.average_latency_s * 1e3:7.2f}ms "
              f"{report.p99_latency_s * 1e3:7.2f}ms")
    passes = compile_passes(stack)
    if passes != 1.0:
        failures.append("accelerator A/B triggered a recompile")

    if args.json is not None:
        from repro.bench.results import BenchResult, write_result
        metrics = {f"capacity_{label}": qps
                   for label, qps in capacities.items()}
        metrics.update({
            "artifact_builds": passes,
            "mixed_ge_cpu_only": 1.0 if mixed_ge_cpu else 0.0,
            "affinity_ge_pressure": 1.0 if affinity_ge else 0.0,
            "affinity_deterministic": 1.0 if deterministic else 0.0,
            "accel_assigned_share": (sum(n.assigned for n in accel_nodes)
                                     / max(1, first.admitted)),
            **{f"accel_{policy}_sat": sat
               for policy, sat in accel_sat.items()},
        })
        table = "\n".join(
            [f"{'fleet/router':22s} {'capacity':>9s}"]
            + [f"{label:22s} {qps:8.0f}q"
               for label, qps in capacities.items()]
            + ["", "accelerator scheduler A/B "
                   f"(sat @ {accel_qps:.0f} QPS): "
               + " ".join(f"{p}={s:.1%}" for p, s in accel_sat.items())])
        write_result(BenchResult(
            name="hetero_fleet",
            title="Hetero fleet: CPU+accelerator capacity and affinity "
                  "routing",
            metrics=metrics,
            knobs={"quick": args.quick, "queries": count,
                   "trials": trials, "models": list(MODELS),
                   "scenario": SCENARIO, "workers": args.workers},
            info={"failures": list(failures)},
            tables={"Hetero fleet: capacity per fleet/router": table},
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
