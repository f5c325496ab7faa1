"""Ablations beyond the paper's own figures (see README.md).

* threshold policy: the dynamic Sec. 4.3 threshold vs pinned thresholds;
* interference estimation: counter proxy vs oracle (simulator pressure);
* soon-to-finish filter on vs off.
"""

from conftest import record

from repro.runtime.engine import Engine
from repro.scheduling.dynamic_block import DynamicBlockScheduler
from repro.scheduling.veltair import VeltairScheduler
from repro.serving.metrics import summarize
from repro.serving.workload import uniform_queries


class _PinnedThreshold(DynamicBlockScheduler):
    def __init__(self, cost_model, profiles, value):
        super().__init__(cost_model, profiles)
        self.value = value

    def threshold_for(self, engine, query, avg_cores):
        return self.value


def _run(stack, scheduler, qps, count):
    queries = uniform_queries(stack.compiled, "resnet50", qps, count)
    engine = Engine(stack.cost_model)
    done = engine.run(queries, scheduler)
    return summarize(done, engine.metrics, qps)


def test_ablation_threshold_policy(stack, benchmark, bench_queries):
    qps = 170.0

    def run():
        rows = {}
        rows["dynamic (Sec 4.3)"] = _run(
            stack, DynamicBlockScheduler(stack.cost_model, stack.profiles),
            qps, bench_queries)
        for pinned in (0, 8, 24):
            scheduler = _PinnedThreshold(stack.cost_model, stack.profiles,
                                         pinned)
            rows[f"pinned thres={pinned}"] = _run(stack, scheduler, qps,
                                                  bench_queries)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'policy':20s} {'satisfaction':>13s} {'avg lat ms':>11s}"
             f" {'avg cores':>10s}"]
    for label, report in rows.items():
        lines.append(
            f"{label:20s} {report.satisfaction_rate:13.0%}"
            f" {min(report.average_latency_s * 1e3, 999):11.1f}"
            f" {report.average_cores_used:10.1f}")
    record("ablation_thresholds",
           "Ablation: dynamic vs pinned thresholds", "\n".join(lines),
           metrics={"sat_dynamic":
                    rows["dynamic (Sec 4.3)"].satisfaction_rate,
                    **{f"sat_pinned_{p}":
                       rows[f"pinned thres={p}"].satisfaction_rate
                       for p in (0, 8, 24)}})

    dynamic = rows["dynamic (Sec 4.3)"]
    # The dynamic threshold must be competitive with the best pinned one
    # (it cannot dominate at every single load point).
    assert dynamic.satisfaction_rate >= max(
        rows[k].satisfaction_rate for k in rows if k.startswith("pinned")
    ) - 0.35
    assert dynamic.completed == max(r.completed for r in rows.values())


def test_ablation_proxy_vs_oracle(stack, benchmark, bench_queries):
    qps = 170.0

    def run():
        proxy_sched = VeltairScheduler(stack.cost_model, stack.profiles,
                                       proxy=stack.proxy)
        oracle_sched = VeltairScheduler(stack.cost_model, stack.profiles,
                                        proxy=None)
        return {
            "counter proxy": _run(stack, proxy_sched, qps, bench_queries),
            "oracle pressure": _run(stack, oracle_sched, qps,
                                    bench_queries),
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'estimator':16s} {'satisfaction':>13s} {'avg lat ms':>11s}"]
    for label, report in rows.items():
        lines.append(f"{label:16s} {report.satisfaction_rate:13.0%}"
                     f" {min(report.average_latency_s * 1e3, 999):11.1f}")
    record("ablation_proxy",
           "Ablation: proxy vs oracle interference estimate",
           "\n".join(lines),
           metrics={"sat_proxy":
                    rows["counter proxy"].satisfaction_rate,
                    "sat_oracle":
                    rows["oracle pressure"].satisfaction_rate})

    # The cheap proxy should stay close to the oracle's outcome.
    assert (rows["counter proxy"].satisfaction_rate
            >= rows["oracle pressure"].satisfaction_rate - 0.2)


def test_ablation_soon_to_finish(stack, benchmark, bench_queries):
    qps = 170.0

    def run():
        rows = {}
        for label, threshold in (("filter on (10%)", 0.10),
                                 ("filter off", 0.0)):
            queries = uniform_queries(stack.compiled, "resnet50", qps,
                                      bench_queries)
            engine = Engine(stack.cost_model)
            engine.soon_to_finish_threshold = threshold
            scheduler = VeltairScheduler(stack.cost_model, stack.profiles,
                                         proxy=None)
            done = engine.run(queries, scheduler)
            rows[label] = summarize(done, engine.metrics, qps)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'config':18s} {'satisfaction':>13s} {'avg lat ms':>11s}"]
    for label, report in rows.items():
        lines.append(f"{label:18s} {report.satisfaction_rate:13.0%}"
                     f" {min(report.average_latency_s * 1e3, 999):11.1f}")
    record("ablation_soon_filter", "Ablation: soon-to-finish filter",
           "\n".join(lines),
           metrics={"sat_filter_on":
                    rows["filter on (10%)"].satisfaction_rate,
                    "sat_filter_off":
                    rows["filter off"].satisfaction_rate})
    assert all(r.completed == bench_queries for r in rows.values())
