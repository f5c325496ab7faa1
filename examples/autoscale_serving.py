"""Autoscale tour: an elastic fleet following diurnal and flash load.

A static fleet is sized for its peak and idles through the rest of the
day; the autoscale control plane (`repro.cluster.autoscale`) resizes
the fleet mid-run instead.  On control ticks interleaved with the
arrival stream it watches three SLO-feedback signals — fleet pressure,
backlog per core, and the rolling QoS-violation rate — and, with
hysteresis bands and a cool-down, provisions nodes from a template
(re-profiled via the shared compile pass, never recompiled; a warm-up
delay models spin-up) or drains them out (the node leaves the routing
set, finishes its in-flight work, then retires).

This tour serves the same diurnal stream through a 4-node static-peak
fleet and an autoscaled fleet starting at 2 nodes, prints the scaling
timeline, and compares QoS satisfaction against node-seconds — the
cost-vs-QoS frontier the `bench_autoscale` benchmark gates.

Run:  python examples/autoscale_serving.py
(REPRO_EXAMPLE_TRIALS / REPRO_EXAMPLE_QUERIES shrink it for CI.)
"""

import os

from repro.cluster import AutoscalePolicy, Cluster, NodeSpec, homogeneous
from repro.hardware.platform import THREADRIPPER_3990X
from repro.serving import ServingStack, WorkloadSpec
from repro.serving.workload import scenario_queries

TRIALS = int(os.environ.get("REPRO_EXAMPLE_TRIALS", "192"))
QUERIES = int(os.environ.get("REPRO_EXAMPLE_QUERIES", "600"))

MIX = WorkloadSpec(name="day-mix", entries=(
    ("mobilenet_v2", 2.0),
    ("googlenet", 1.0),
))


def main() -> None:
    print("Compiling the model set once (shared fleet-wide)...")
    stack = ServingStack(models=["mobilenet_v2", "googlenet"],
                         trials=TRIALS)

    policy = AutoscalePolicy(
        template=NodeSpec(name="auto", device=THREADRIPPER_3990X),
        min_nodes=2, max_nodes=4,
        tick_s=0.015, warmup_s=0.03, cooldown_s=0.06,
        up_pressure=0.45, down_pressure=0.20,
        up_backlog_per_core=0.06, down_backlog_per_core=0.015,
        up_violation_rate=0.10, down_violation_rate=0.02,
        slo_window_s=0.20, quiet_ticks=6)
    qps = 400.0

    def stream():
        # Engines mutate queries: each fleet gets its own regeneration
        # of the bit-identical seeded stream.
        return scenario_queries(stack.compiled, "diurnal", qps, QUERIES,
                                seed=42, spec=MIX)

    print(f"\nServing {QUERIES} diurnal queries at {qps:.0f} mean QPS "
          f"(rate swings {1 - 0.6:.0%}..{1 + 0.6:.0%} of mean):")

    static = Cluster(stack, homogeneous(policy.max_nodes),
                     router="pressure_aware")
    static_report = static.serve(stream(), offered_qps=qps)
    print(f"  static-peak {policy.max_nodes} nodes: "
          f"sat={static_report.satisfaction_rate:6.1%}  "
          f"node-s={static_report.node_seconds:5.2f}  "
          f"util={static_report.utilization:5.1%}")

    elastic = Cluster(stack, homogeneous(policy.min_nodes),
                      router="pressure_aware", autoscale=policy)
    auto_report = elastic.serve(stream(), offered_qps=qps)
    print(f"  autoscaled {policy.min_nodes}->"
          f"[{policy.min_nodes},{policy.max_nodes}] nodes: "
          f"sat={auto_report.satisfaction_rate:6.1%}  "
          f"node-s={auto_report.node_seconds:5.2f}  "
          f"util={auto_report.utilization:5.1%}  "
          f"peak={auto_report.peak_live_nodes}  "
          f"avg={auto_report.average_live_nodes:.2f}")

    print("\nScaling timeline (provision -> warm-up -> join; "
          "drain -> finish in-flight -> retire):")
    for event in auto_report.scaling_timeline:
        print(f"  {event}")

    print("\nPer-node lifecycle:")
    for node in auto_report.nodes:
        print(f"  {node.name:10s} {node.cores:3d}c "
              f"assigned={node.assigned:4d} "
              f"completed={node.completed:4d} "
              f"node-s={node.node_seconds:5.2f} "
              f"[{node.final_state}]")

    sat_ratio = (auto_report.satisfaction_rate
                 / max(1e-9, static_report.satisfaction_rate))
    ns_ratio = (auto_report.node_seconds
                / max(1e-9, static_report.node_seconds))
    print(f"\nFrontier: {sat_ratio:.1%} of static-peak QoS satisfaction "
          f"at {ns_ratio:.1%} of its node-seconds — capacity follows "
          "the demand curve instead of the peak.")


if __name__ == "__main__":
    main()
