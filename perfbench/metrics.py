"""Every metric the benchmark reports: name, unit and direction.

``END_TO_END`` is reported with tracing off (``--trace 0``);
``PER_LAYER`` comes from the separate traced run (``--trace 1``) on the
same seeds.  ``README.md`` says what each measures and which end-to-end
metric each layer should move on which workload.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


END_TO_END = (
    Metric("sim_qps", "queries/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
    Metric("qos_sat", "share", "higher"),
    Metric("sim_latency_p50_ms", "ms", "lower"),
    Metric("sim_latency_p99_ms", "ms", "lower"),
    Metric("sim_latency_mean_ms", "ms", "lower"),
)

PER_LAYER = (
    Metric("compiler.compile_s", "s", "lower"),
    Metric("interference.proxy_fit_s", "s", "lower"),
    Metric("scheduling.profile_build_s", "s", "lower"),
    Metric("serving.warmup_s", "s", "lower"),
    Metric("models.signature.calls_per_query", "calls/query", "lower"),
    Metric("models.signature.self_us_per_query", "us/query", "lower"),
    Metric("compiler.execution.calls_per_query", "calls/query", "lower"),
    Metric("compiler.execution.self_us_per_query", "us/query", "lower"),
    Metric("compiler.execution.memo_hit_rate", "share", "higher"),
    Metric("compiler.memo_entries", "entries", "lower"),
    Metric("scheduling.schedule.calls_per_query", "calls/query", "lower"),
    Metric("scheduling.schedule.self_us_per_query", "us/query", "lower"),
    Metric("scheduling.plan.calls_per_query", "calls/query", "lower"),
    Metric("scheduling.block_required_cores.calls_per_query",
           "calls/query", "lower"),
    Metric("interference.estimate_system_pressure.calls_per_query",
           "calls/query", "lower"),
    Metric("scheduling.conflict_rate", "share", "lower"),
    Metric("scheduling.grows_per_query", "grows/query", "lower"),
    Metric("runtime.engine.self_us_per_query", "us/query", "lower"),
    Metric("runtime.engine.start_block.calls_per_query",
           "calls/query", "lower"),
    Metric("runtime.engine.repricings_per_query", "count/query", "lower"),
    Metric("runtime.engine.finish_pushes_per_query", "count/query", "lower"),
    Metric("runtime.engine.prices_computed_per_query", "count/query", "lower"),
    Metric("runtime.engine.heap_peak", "events", "lower"),
    Metric("runtime.pricing.get.calls_per_query", "calls/query", "lower"),
    Metric("runtime.pricing.hit_rate", "share", "higher"),
    Metric("runtime.pricing.entries", "entries", "lower"),
    Metric("runtime.block_duration.calls_per_query", "calls/query", "lower"),
    Metric("runtime.block_duration.self_us_per_query", "us/query", "lower"),
    Metric("cluster.router.choose.calls_per_query", "calls/query", "lower"),
    Metric("cluster.router.choose.self_us_per_call", "us/call", "lower"),
    Metric("cluster.admission.decide.calls_per_query", "calls/query", "lower"),
    Metric("cluster.admission.decide.self_us_per_call", "us/call", "lower"),
    Metric("cluster.node_advances_per_offer", "calls/query", "lower"),
    Metric("cluster.serve.self_us_per_query", "us/query", "lower"),
    Metric("cluster.shed_rate", "share", "lower"),
    Metric("cluster.load_imbalance", "ratio", "lower"),
    Metric("workloads.next_request.calls_per_query", "calls/query", "lower"),
    Metric("workloads.next_request.self_us_per_call", "us/call", "lower"),
    Metric("runtime.engine.submit.calls_per_query", "calls/query", "lower"),
    Metric("serving.run_stream.self_us_per_query", "us/query", "lower"),
    Metric("serving.summarize.self_us_per_query", "us/query", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
)
