"""Cluster serving tour: one compile pass, a heterogeneous fleet.

Builds the serving stack once, deploys it across the 4-node mixed
fleet (2x 64-core, 1x 256-core, 1x 32-core edge), and serves a
mixed-class stream (10 ms-QoS vision models + the heavy 100 ms SSD
detector) through each router.  The interference proxy every node
already fits for its local scheduler doubles as the fleet routing
signal — the `pressure_aware` router steers latency-critical queries
away from pressured nodes and lets the heavy class sink to spare
width.  A final overload round shows the admission controller
shedding/deferring load the fleet could only turn into QoS misses.

Run:  python examples/cluster_serving.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.cluster import AdmissionPolicy, Cluster, mixed_fleet
from repro.serving import ServingStack, WorkloadSpec

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "300"))

MIXED_CLASS = WorkloadSpec(name="mixed-class", entries=(
    ("mobilenet_v2", 4.0),
    ("tiny_yolov2", 4.0),
    ("ssd_resnet34", 1.0),
))


def main() -> None:
    print("Compiling the model set once (shared fleet-wide)...")
    stack = ServingStack(
        models=["mobilenet_v2", "tiny_yolov2", "ssd_resnet34"],
        trials=TRIALS,
    )
    fleet = mixed_fleet()
    print(f"Fleet {fleet.name}: "
          + ", ".join(f"{n.name}({n.cores}c)" for n in fleet.nodes)
          + f" — {fleet.total_cores} cores total\n")

    qps = 160.0
    print(f"Serving {QUERIES} mixed-class queries at {qps:.0f} QPS "
          f"through each router:")
    for router in ("round_robin", "least_outstanding", "pressure_aware"):
        cluster = Cluster(stack, fleet, router=router)
        report = cluster.report(MIXED_CLASS, qps=qps, count=QUERIES,
                                seed=42)
        shares = "/".join(f"{n.assigned}" for n in report.nodes)
        print(f"  {router:18s} QoS sat={report.satisfaction_rate:6.1%}  "
              f"p99={report.p99_latency_s * 1e3:6.1f} ms  "
              f"imbalance={report.load_imbalance:.2f}  "
              f"assigned={shares}")
    layers = sum(len(model) for model in stack.compiled.values())
    print(f"(one compile pass for the whole fleet: the compiler saw "
          f"{stack.compiler.stats.layers_total} layers for {layers} model "
          f"layers)\n")

    overload = 2.0 * qps
    print(f"Overload at {overload:.0f} QPS, pressure_aware routing:")
    unguarded = Cluster(stack, fleet, router="pressure_aware").report(
        MIXED_CLASS, qps=overload, count=QUERIES, seed=42)
    print(f"  no admission       fleet sat="
          f"{unguarded.satisfaction_rate:6.1%}")
    for mode in ("shed", "defer"):
        policy = AdmissionPolicy(max_fleet_pressure=0.85,
                                 max_outstanding_per_core=0.02,
                                 mode=mode)
        guarded = Cluster(stack, fleet, router="pressure_aware",
                          admission=policy).report(
            MIXED_CLASS, qps=overload, count=QUERIES, seed=42)
        admitted_sat = guarded.satisfied / max(1, guarded.admitted)
        print(f"  admission={mode:5s}    fleet sat="
              f"{guarded.satisfaction_rate:6.1%}  "
              f"shed={guarded.shed_rate:5.1%}  "
              f"deferrals={guarded.deferrals:3d}  "
              f"admitted sat={admitted_sat:6.1%}")

    print("\nThe proxy-driven router turns per-node interference "
          "estimates into fleet capacity; admission control trades a "
          "bounded shed rate for keeping admitted queries inside QoS.")


if __name__ == "__main__":
    main()
