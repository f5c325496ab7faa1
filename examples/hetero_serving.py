"""Heterogeneous serving tour: CPUs and an accelerator, one compile pass.

Builds the serving stack once, deploys it across the mixed
CPU+accelerator reference fleet (2x 64-core CPU, 1x 80-SM accelerator,
1x 32-core edge node), and serves the ``batch_heavy`` scenario — a
throughput-dominated heavy/medium mix with a latency-critical light
minority.  The compiled multi-version libraries port across device
kinds untouched; per-device runtimes re-profile and re-price but never
re-compile.  The ``device_affinity`` router then learns from observed
completions which model belongs on which device kind: the batch-friendly
detector drifts to the accelerator (wide layers fill its warps and SMs),
the 10 ms-QoS light model stays on CPUs (warp-width waste and occupancy
stalls make the accelerator a poor fit).  A final round runs the
scheduler A/B on the accelerator runtime, GACER baseline included.

Run:  python examples/hetero_serving.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.cluster import Cluster, hetero_fleet
from repro.hardware import DATACENTER_ACCEL_80
from repro.runtime.engine import Engine
from repro.serving import ServingStack
from repro.serving.metrics import summarize
from repro.serving.workload import scenario_queries
from repro.workloads import get_scenario

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "300"))


def main() -> None:
    print("Compiling the model set once (shared across device kinds)...")
    stack = ServingStack(
        models=["mobilenet_v2", "resnet50", "ssd_resnet34"],
        trials=TRIALS,
    )
    fleet = hetero_fleet()
    scenario = get_scenario("batch_heavy")
    print(f"Fleet {fleet.name}: "
          + ", ".join(f"{n.name}({n.cores}"
                      f"{'sm' if n.device_kind != 'cpu' else 'c'})"
                      for n in fleet.nodes) + "\n")

    qps = 60.0
    print(f"Serving {QUERIES} batch_heavy queries at {qps:.0f} QPS "
          f"through each router:")
    for router in ("round_robin", "pressure_aware", "device_affinity"):
        cluster = Cluster(stack, fleet, router=router)
        report = cluster.report(scenario.workload, qps=qps,
                                count=QUERIES, seed=42,
                                scenario=scenario)
        shares = "/".join(f"{n.assigned}" for n in report.nodes)
        print(f"  {router:18s} QoS sat={report.satisfaction_rate:6.1%}  "
              f"p99={report.p99_latency_s * 1e3:6.1f} ms  "
              f"assigned={shares}")
    layers = sum(len(model) for model in stack.compiled.values())
    print(f"(one compile pass for CPUs and the accelerator: the compiler "
          f"saw {stack.compiler.stats.layers_total} layers for {layers} "
          f"model layers)\n")

    accel_qps = 70.0
    runtime = stack.runtime_for(DATACENTER_ACCEL_80)
    print(f"Scheduler A/B on {DATACENTER_ACCEL_80.name} at "
          f"{accel_qps:.0f} QPS:")
    for policy in ("layerwise", "veltair_full", "gacer"):
        queries = scenario_queries(stack.compiled, scenario, accel_qps,
                                   QUERIES, seed=42)
        engine = Engine(runtime.cost_model,
                        price_cache=runtime.price_cache)
        scheduler = stack.make_scheduler(policy, runtime=runtime)
        completed = engine.run(queries, scheduler)
        report = summarize(completed, engine.metrics, accel_qps)
        print(f"  {policy:14s} QoS sat={report.satisfaction_rate:6.1%}  "
              f"avg={report.average_latency_s * 1e3:6.1f} ms  "
              f"p99={report.p99_latency_s * 1e3:6.1f} ms")

    print("\nThe DeviceSpec family lets one compiled library serve any "
          "device kind; affinity routing turns the per-kind cost "
          "asymmetry into fleet capacity instead of QoS misses.")


if __name__ == "__main__":
    main()
