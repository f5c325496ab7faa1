"""Autoscale benchmark: the cost-vs-QoS frontier of the elastic fleet.

The acceptance protocol of the autoscaling control plane
(``repro.cluster.autoscale``): on the diurnal and flash-crowd arrival
shapes — the load patterns fleet elasticity exists for — an autoscaled
fleet that starts at 2 nodes and follows demand must deliver

* **>= 95% of the static-peak fleet's QoS satisfaction** (the 4-node
  fleet sized for the peak and held for the whole run), using
* **<= 70% of its node-seconds** (provision-to-retire capacity cost,
  warm-up included).

Both fleets serve bit-identical streams (same seed, same scenario), so
the comparison isolates the control plane.  Additional invariants
checked on the autoscaled runs: the scaling timeline is consistent
(every provision is followed by exactly one join, drains retire, peak
live count within policy bounds), fleet node-seconds reconcile exactly
with per-node sums, drained nodes complete everything assigned to
them, and query totals reconcile (nothing lost across membership
changes).

Run standalone (the CI perf ratchet uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_autoscale.py --quick

``--json DIR`` additionally writes the machine-readable
``BENCH_autoscale.json`` the perf ratchet compares (see
``python -m repro.bench``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cluster import (
    JOIN,
    PROVISION,
    RETIRE,
    RETIRED,
    AutoscalePolicy,
    NodeSpec,
    homogeneous,
    sweep_autoscale,
)
from repro.cluster.experiments import AutoscalePoint
from repro.hardware.platform import THREADRIPPER_3990X
from repro.serving.server import ServingStack
from repro.serving.workload import WorkloadSpec
from repro.workloads import ScenarioSpec
from repro.workloads.arrivals import FlashCrowdArrivals

MODELS = ("mobilenet_v2", "googlenet")

#: Acceptance bars (see the module docstring).
QOS_RATIO_FLOOR = 0.95
NODE_SECONDS_CEIL = 0.70

#: The flash-crowd cell: a 5x spike over 15% of the span.  (The
#: registered ``flash_crowd`` scenario's 8x spike saturates even the
#: static-peak fleet; the 5x variant keeps the comparison about
#: elasticity, not mutual collapse.)
FLASH = ScenarioSpec(name="flash_x5", arrival=FlashCrowdArrivals(
    spike_ratio=5.0, start_frac=0.4, width_frac=0.15))

#: (metric prefix, scenario, mean offered QPS) cells.
CELLS = (("diurnal", "diurnal", 400.0), ("flash", FLASH, 170.0))


def reference_policy() -> AutoscalePolicy:
    """The benchmark's control policy (also the tour example's).

    Time constants are in simulated seconds and sized to this
    simulator's millisecond-scale service times; a wall-clock fleet
    would scale them with its own model latencies.
    """
    return AutoscalePolicy(
        template=NodeSpec(name="auto", device=THREADRIPPER_3990X),
        min_nodes=2, max_nodes=4,
        tick_s=0.015, warmup_s=0.03, cooldown_s=0.06,
        up_pressure=0.45, down_pressure=0.20,
        up_backlog_per_core=0.06, down_backlog_per_core=0.015,
        up_violation_rate=0.10, down_violation_rate=0.02,
        slo_window_s=0.20, panic_severity=2.0, quiet_ticks=6)


def check_timeline(point: AutoscalePoint) -> list[str]:
    """Structural invariants of one autoscaled run's scaling record.

    Cross-checks are against *independent* sources wherever possible:
    per-node lifecycle stamps must match the scaling timeline's event
    times (not the rollup's own sums), and query totals are compared
    against the offered stream and shed list, which the rollup does
    not derive from the per-node reports.
    """
    report = point.autoscaled
    problems: list[str] = []
    timeline = report.scaling_timeline
    if not timeline:
        problems.append(f"{point.scenario}: no scaling events at all")
    provisions = [e.node for e in timeline if e.action == PROVISION]
    joins = [e.node for e in timeline if e.action == JOIN]
    if sorted(provisions) != sorted(joins):
        problems.append(f"{point.scenario}: provisions {provisions} do "
                        f"not pair with joins {joins}")
    times = [e.time_s for e in timeline]
    if times != sorted(times):
        problems.append(f"{point.scenario}: timeline out of order")

    # Node-seconds reconcile against the independent event record: a
    # provisioned node's lifecycle stamps must equal its timeline
    # entries, and every span must fit the serve window.
    stamped = {e.node: e.time_s for e in timeline if e.action == PROVISION}
    retired_at = {e.node: e.time_s for e in timeline
                  if e.action == RETIRE}
    for node in report.nodes:
        if node.name in stamped and (
                abs(node.provisioned_s - stamped[node.name]) > 1e-12):
            problems.append(
                f"{point.scenario}: node {node.name} provisioned_s "
                f"{node.provisioned_s} != timeline {stamped[node.name]}")
        if node.name in retired_at and (
                abs(node.retired_s - retired_at[node.name]) > 1e-12):
            problems.append(
                f"{point.scenario}: node {node.name} retired_s "
                f"{node.retired_s} != timeline {retired_at[node.name]}")
        if abs(node.node_seconds
               - (node.retired_s - node.provisioned_s)) > 1e-9:
            problems.append(f"{point.scenario}: node {node.name} "
                            "node-seconds disagree with its lifecycle")
        if node.node_seconds > report.span_s + 1e-9:
            problems.append(f"{point.scenario}: node {node.name} outlived "
                            "the serve window")
        if node.final_state == RETIRED and node.completed != node.assigned:
            problems.append(
                f"{point.scenario}: retired node {node.name} completed "
                f"{node.completed}/{node.assigned} assigned queries")
    # Query totals: offered and shed are stream-side counts, so
    # admitted/completed reconciling against them is not circular.
    totals_ok = (
        report.offered == report.admitted + report.shed
        and report.completed == report.admitted)
    if not totals_ok:
        problems.append(f"{point.scenario}: query totals do not "
                        "reconcile across membership changes")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small stack / stream (the CI ratchet config)")
    parser.add_argument("--queries", type=int, default=None,
                        help="queries per fleet simulation")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workers", type=int,
                        default=int(os.environ.get("REPRO_BENCH_WORKERS",
                                                   "2")),
                        help="fork workers across scenario cells")
    parser.add_argument("--no-check", action="store_true",
                        help="report only; skip the acceptance assertions")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write BENCH_autoscale.json into DIR")
    args = parser.parse_args(argv)

    count = (args.queries if args.queries is not None
             else (600 if args.quick else 1200))
    if count <= 0:
        parser.error("--queries must be positive")
    trials = 64 if args.quick else 96
    spec = WorkloadSpec(name="quick-mix", entries=(("mobilenet_v2", 2.0),
                                                   ("googlenet", 1.0)))
    policy = reference_policy()
    static_fleet = homogeneous(policy.max_nodes)
    initial_fleet = homogeneous(policy.min_nodes)

    t0 = time.perf_counter()
    stack = ServingStack(models=list(MODELS), trials=trials,
                         proxy_scenarios=60, seed=11)
    stack.ensure_compiled()
    print(f"stack: {len(MODELS)} models compiled in "
          f"{time.perf_counter() - t0:.1f}s; static-peak fleet "
          f"{static_fleet.name}, autoscaled {initial_fleet.name} -> "
          f"[{policy.min_nodes}, {policy.max_nodes}] nodes "
          f"(warmup {policy.warmup_s * 1e3:.0f}ms, tick "
          f"{policy.tick_s * 1e3:.0f}ms)")
    print(f"workload: {spec.name} ({count} queries/cell, seed "
          f"{args.seed}); bars: QoS ratio >= {QOS_RATIO_FLOOR:.0%}, "
          f"node-seconds <= {NODE_SECONDS_CEIL:.0%}\n")

    t0 = time.perf_counter()
    points = sweep_autoscale(
        stack, static_fleet, initial_fleet, policy, spec,
        [(scenario, qps) for _, scenario, qps in CELLS], count=count,
        seed=args.seed, workers=args.workers)
    wall = time.perf_counter() - t0

    failures: list[str] = []
    metrics: dict[str, float] = {}
    header = (f"{'scenario':10s} {'qps':>5s} {'static sat':>10s} "
              f"{'auto sat':>9s} {'qos-ratio':>9s} {'node-s':>7s} "
              f"{'peak':>4s} {'avg':>5s} {'util s/a':>12s}")
    lines = [header, "-" * len(header)]
    for (prefix, _, _), point in zip(CELLS, points):
        auto = point.autoscaled
        qos_ok = point.qos_ratio >= QOS_RATIO_FLOOR
        ns_ok = point.node_seconds_ratio <= NODE_SECONDS_CEIL
        metrics.update({
            f"{prefix}_static_sat": point.static.satisfaction_rate,
            f"{prefix}_auto_sat": auto.satisfaction_rate,
            f"{prefix}_qos_ratio": point.qos_ratio,
            f"{prefix}_node_seconds_ratio": point.node_seconds_ratio,
            f"{prefix}_auto_peak_nodes": float(auto.peak_live_nodes),
            f"{prefix}_auto_avg_nodes": auto.average_live_nodes,
            f"{prefix}_auto_utilization": auto.utilization,
            f"{prefix}_scaling_events": float(len(auto.scaling_timeline)),
            f"{prefix}_qos_ratio_ok": 1.0 if qos_ok else 0.0,
            f"{prefix}_node_seconds_ok": 1.0 if ns_ok else 0.0,
        })
        lines.append(
            f"{point.scenario:10s} {point.qps:5.0f} "
            f"{point.static.satisfaction_rate:10.1%} "
            f"{auto.satisfaction_rate:9.1%} {point.qos_ratio:9.3f} "
            f"{point.node_seconds_ratio:7.2f} {auto.peak_live_nodes:4d} "
            f"{auto.average_live_nodes:5.2f} "
            f"{point.static.utilization:5.1%}/{auto.utilization:5.1%}")
        if not qos_ok:
            failures.append(
                f"{point.scenario}: QoS ratio {point.qos_ratio:.3f} below "
                f"the {QOS_RATIO_FLOOR:.0%} floor")
        if not ns_ok:
            failures.append(
                f"{point.scenario}: node-seconds ratio "
                f"{point.node_seconds_ratio:.3f} above the "
                f"{NODE_SECONDS_CEIL:.0%} ceiling")
        failures.extend(check_timeline(point))

    print("\n".join(lines))
    print(f"\n({wall:.1f}s for {len(points)} cells, "
          f"{args.workers} workers)")
    for point in points:
        print(f"\n{point.scenario} scaling timeline:")
        for event in point.autoscaled.scaling_timeline:
            print(f"  {event}")

    if args.json is not None:
        from repro.bench.results import BenchResult, write_result
        title = "Autoscale: elastic fleet vs static peak (cost-vs-QoS)"
        write_result(BenchResult(
            name="autoscale", title=title, metrics=metrics,
            knobs={"quick": args.quick, "queries": count,
                   "trials": trials, "models": list(MODELS),
                   "workers": args.workers,
                   "min_nodes": policy.min_nodes,
                   "max_nodes": policy.max_nodes},
            info={"failures": list(failures)},
            tables={title: "\n".join(lines)},
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
