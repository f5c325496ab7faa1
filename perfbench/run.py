"""Simulator benchmark: simulated queries per wall-second, set-up cost and
simulated outcomes on four workloads, plus a traced per-layer run.

Run one workload (the form the last output line is a result for)::

    python3 perfbench/run.py --workload node_veltair --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
traced per-layer pass instead.  Without ``--workload`` (or with
``--workload all``) every workload runs, each in a fresh process, once
untraced and once traced, and the metrics are printed as tables.

The last line of a single-workload run is one JSON object::

    {"correct": true, "attempted": 6000, "failed": 0,
     "metrics": {"sim_qps": {"value": 312.5, "unit": "queries/s"}, ...}}

``attempted`` counts simulated queries offered over the measured ops;
``failed`` counts queries admission shed, queries that never completed,
and every query of an op that failed its correctness check.  The line
before it, ``outcome_digest <workload> seed=<n> ops=<n> <crc32>``, is
the crc32 over ``(query_id, finished_s)`` in completion order of the
outcome ops: equal digests mean bit-identical simulated outcomes.

``README.md`` documents the workloads, the metrics and how each is
measured.  The benchmark reads the simulator from ``src/`` next to this
directory and writes only ``.perfbench/`` (recorded spans) at the
repository root.
"""

import time

from calibration import REFERENCE_ROUND_S, ReferenceClock, calibration_round

#: Set-up is timed from here, before numpy or the simulator is imported,
#: and rescaled by the calibration rounds on either side of it.
START_ROUND_S = calibration_round()
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: ``workloads.WORKLOADS`` keys, listed here because argument parsing runs
#: before the simulator may be imported.
WORKLOAD_NAMES = ("node_veltair", "node_layerwise", "fleet16", "agent_loop")

#: Fresh processes that set up in addition to the measuring one; setup_s
#: is the median over all of them.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


def _pin_environment() -> None:
    """Drop every ``REPRO_*`` knob so a developer's shell changes nothing.

    The simulator reads ``REPRO_ARTIFACT_STORE``, ``REPRO_COMPILE_WORKERS``,
    ``REPRO_BENCH_WORKERS`` and ``REPRO_TRACE_DIR``; the stack is also
    built with an explicit ``artifact_store=None, compile_workers=1``.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator sources not found at {SRC}")
    sys.path.insert(0, str(SRC))


def _set_up(workload_name: str):
    """Build a workload's stack and run its warm-up op, phase by phase."""
    from workloads import WARMUP_SEED, WORKLOADS

    workload = WORKLOADS[workload_name]()
    phases = {}
    clock = time.perf_counter()
    stack = workload.build_stack()
    stack.ensure_compiled()
    phases["compiler.compile_s"] = time.perf_counter() - clock

    clock = time.perf_counter()
    if workload.uses_proxy:
        _ = stack.proxy  # the first access fits the proxy
    phases["interference.proxy_fit_s"] = time.perf_counter() - clock

    clock = time.perf_counter()
    stack.profiles.values()  # builds every model's profile
    phases["scheduling.profile_build_s"] = time.perf_counter() - clock

    clock = time.perf_counter()
    warmup = workload.run(workload.make_input(WARMUP_SEED))
    phases["serving.warmup_s"] = time.perf_counter() - clock
    problems = warmup.check()
    if problems:
        raise RuntimeError(f"warm-up op failed its check: {problems}")
    return workload, phases, warmup


def _timed_op(workload, seed: int, op: int, tracer=None):
    """Generate op ``op``'s stream untimed, then time its simulation.

    With a ``tracer``, spans are recorded for exactly the timed region.
    An op that raises becomes an outcome whose check fails, so its
    queries count as failed and the run goes on.
    """
    from workloads import OpOutcome, stream_seed

    inputs = workload.make_input(stream_seed(seed, op))
    if tracer is not None:
        tracer.op_id = op
        tracer.recording = True
    clock = time.perf_counter()
    try:
        outcome = workload.run(inputs)
    except Exception as exc:  # the op boundary: record, count, go on
        traceback.print_exc()
        outcome = OpOutcome(offered=workload.queries_per_op, offered_ids=[],
                            completed=[], problems=[f"op {op} raised {exc!r}"])
    finally:
        wall = time.perf_counter() - clock
        if tracer is not None:
            tracer.recording = False
    return outcome, wall


def _setup_seconds() -> tuple[float, float]:
    """Reference-speed seconds since :data:`T_START`, and the closing round.

    The closing round doubles as the first timed op's opening round.
    """
    wall = time.perf_counter() - T_START
    closing = calibration_round()
    return wall * REFERENCE_ROUND_S / ((START_ROUND_S + closing) / 2), closing


class Tally:
    """Accumulates op outcomes into the reported numbers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.completed = 0
        #: Outcome ops: offered, satisfied and latencies feed qos_sat and
        #: sim_latency_*; the crc chains into the outcome digest.
        self.outcome_offered = 0
        self.outcome_satisfied = 0
        self.latencies: list[float] = []
        self.digest = 0
        self.op_digests: list[int] = []

    def add(self, outcome, is_outcome_op: bool) -> None:
        problems = outcome.check()
        self.attempted += outcome.offered
        if problems:
            self.failed += outcome.offered
            self.problems.extend(problems)
        else:
            self.failed += outcome.shed + outcome.unfinished
        self.completed += len(outcome.completed)
        if is_outcome_op:
            self.outcome_offered += outcome.offered
            if not problems:
                self.outcome_satisfied += outcome.satisfied
                self.latencies.extend(outcome.latencies_s())
            self.digest = outcome.digest(self.digest)
            self.op_digests.append(outcome.digest())

    def outcome_metrics(self) -> dict[str, float]:
        import numpy as np

        latencies = np.array(self.latencies) * 1e3
        if not len(latencies):
            latencies = np.zeros(1)
        return {
            "qos_sat": self.outcome_satisfied / max(1, self.outcome_offered),
            "sim_latency_p50_ms": float(np.percentile(latencies, 50)),
            "sim_latency_p99_ms": float(np.percentile(latencies, 99)),
            "sim_latency_mean_ms": float(latencies.mean()),
        }


def _probe_setup_s(workload_name: str) -> float:
    """Set-up time of one fresh benchmark process (run to completion)."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=False)
    if result.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {result.stderr[-2000:]}")
    return float(json.loads(result.stdout.strip().splitlines()[-1])
                 ["setup_s"])


def _emit(correct: bool, attempted: int, failed: int,
          values: dict[str, float], table) -> None:
    units = {metric.name: metric.unit for metric in table}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {metric.name: {"value": values[metric.name],
                                  "unit": units[metric.name]}
                    for metric in table}}))


def run_untraced(workload_name: str, seed: int, seconds: float) -> None:
    """End-to-end metrics: set-up, timed ops, outcome checks."""
    from metrics import END_TO_END
    from tracing import assert_pristine

    workload, _, _ = _set_up(workload_name)
    setup_own, closing_round = _setup_seconds()
    assert_pristine()

    tally = Tally()
    clock = ReferenceClock(closing_round)
    start = time.perf_counter()
    op = 0
    while (op < workload.outcome_ops
           or time.perf_counter() - start < seconds):
        outcome, wall = _timed_op(workload, seed, op)
        clock.add(wall)
        tally.add(outcome, op < workload.outcome_ops)
        del outcome
        op += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [setup_own] + [_probe_setup_s(workload_name)
                            for _ in range(SETUP_PROBES)]
    values = {
        "sim_qps": tally.completed / clock.reference_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        **tally.outcome_metrics(),
    }
    for problem in tally.problems[:5]:
        print(f"check failed: {problem}")
    print(f"ops {op}: {clock.wall_s:.2f} wall s, {clock.reference_s:.2f} "
          f"reference s, unscaled {tally.completed / clock.wall_s:.1f} "
          f"queries/s; set-ups "
          f"{' '.join(f'{setup:.2f}' for setup in setups)} reference s")
    print(f"outcome_digest {workload_name} seed={seed} "
          f"ops={len(tally.op_digests)} {tally.digest:08x}")
    _emit(not tally.problems, tally.attempted, tally.failed, values,
          END_TO_END)


def _per_layer(tracer, outcomes, phases,
               overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and simulation counters."""
    from tracing import ENGINE_SPANS

    spans = tracer.self_times()
    offered = max(1, sum(outcome.offered for outcome in outcomes))

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    def self_us(name: str) -> float:
        return spans.get(name, (0, 0.0))[1] * 1e6

    def per_call_us(name: str) -> float:
        return self_us(name) / calls(name) if calls(name) else 0.0

    engines = [engine for outcome in outcomes for engine in outcome.engines]

    def engine_total(field: str) -> int:
        return sum(getattr(engine.metrics, field) for engine in engines)

    cost_models = {id(engine.cost_model): engine.cost_model
                   for engine in engines}
    pricing_caches = {id(engine.price_cache): engine.price_cache
                      for engine in engines}
    memo_calls = tracer.memo_hits + tracer.memo_misses
    pricing_calls = tracer.pricing_hits + tracer.pricing_misses
    fleet = [outcome for outcome in outcomes if outcome.load_imbalance]
    return {
        **phases,
        "models.signature.calls_per_query":
            calls("models.signature") / offered,
        "models.signature.self_us_per_query":
            self_us("models.signature") / offered,
        "compiler.execution.calls_per_query":
            calls("compiler.execution") / offered,
        "compiler.execution.self_us_per_query":
            self_us("compiler.execution") / offered,
        "compiler.execution.memo_hit_rate":
            tracer.memo_hits / memo_calls if memo_calls else 0.0,
        "compiler.memo_entries": sum(
            len(getattr(model, "_memo", ())) for model in
            cost_models.values()),
        "scheduling.schedule.calls_per_query":
            calls("scheduling.schedule") / offered,
        "scheduling.schedule.self_us_per_query":
            self_us("scheduling.schedule") / offered,
        "scheduling.plan.calls_per_query":
            calls("scheduling.plan") / offered,
        "scheduling.block_required_cores.calls_per_query":
            calls("scheduling.block_required_cores") / offered,
        "interference.estimate_system_pressure.calls_per_query":
            calls("interference.estimate_system_pressure") / offered,
        "scheduling.conflict_rate":
            engine_total("conflicts") / max(1, engine_total("blocks_started")),
        "scheduling.grows_per_query": engine_total("grows") / offered,
        "runtime.engine.self_us_per_query":
            sum(self_us(name) for name in ENGINE_SPANS) / offered,
        "runtime.engine.start_block.calls_per_query":
            calls("runtime.engine.start_block") / offered,
        "runtime.engine.repricings_per_query":
            engine_total("repricings") / offered,
        "runtime.engine.finish_pushes_per_query":
            engine_total("finish_events_pushed") / offered,
        "runtime.engine.prices_computed_per_query":
            engine_total("prices_computed") / offered,
        "runtime.engine.heap_peak":
            max(engine.metrics.heap_peak for engine in engines),
        "runtime.pricing.get.calls_per_query":
            calls("runtime.pricing.get") / offered,
        "runtime.pricing.hit_rate":
            tracer.pricing_hits / pricing_calls if pricing_calls else 0.0,
        "runtime.pricing.entries":
            sum(len(cache) for cache in pricing_caches.values()),
        "runtime.block_duration.calls_per_query":
            calls("runtime.block_duration") / offered,
        "runtime.block_duration.self_us_per_query":
            self_us("runtime.block_duration") / offered,
        "cluster.router.choose.calls_per_query":
            calls("cluster.router.choose") / offered,
        "cluster.router.choose.self_us_per_call":
            per_call_us("cluster.router.choose"),
        "cluster.admission.decide.calls_per_query":
            calls("cluster.admission.decide") / offered,
        "cluster.admission.decide.self_us_per_call":
            per_call_us("cluster.admission.decide"),
        "cluster.node_advances_per_offer":
            calls("runtime.engine.run_until") / offered,
        "cluster.serve.self_us_per_query":
            self_us("cluster.serve") / offered,
        "cluster.shed_rate":
            sum(outcome.shed for outcome in outcomes) / offered,
        "cluster.load_imbalance":
            (statistics.mean(outcome.load_imbalance for outcome in fleet)
             if fleet else 0.0),
        "workloads.next_request.calls_per_query":
            calls("workloads.next_request") / offered,
        "workloads.next_request.self_us_per_call":
            per_call_us("workloads.next_request"),
        "runtime.engine.submit.calls_per_query":
            calls("runtime.engine.submit") / offered,
        "serving.run_stream.self_us_per_query":
            self_us("serving.run_stream") / offered,
        "serving.summarize.self_us_per_query":
            self_us("serving.summarize") / offered,
        "trace.overhead_ratio": overhead_ratio,
    }


def run_traced(workload_name: str, seed: int) -> None:
    """Per-layer metrics: the same ops untraced, then traced."""
    from metrics import PER_LAYER
    from tracing import LayerTracer, assert_pristine

    assert_pristine()
    workload, phases, _ = _set_up(workload_name)
    plain = Tally()
    plain_clock = ReferenceClock()
    for op in range(workload.trace_ops):
        outcome, wall = _timed_op(workload, seed, op)
        plain_clock.add(wall)
        plain.add(outcome, True)
        del outcome
    del workload
    gc.collect()

    tracer = LayerTracer()
    tracer.install()
    traced = Tally()
    outcomes = []
    try:
        workload, _, warmup = _set_up(workload_name)
        tracer.pricing_caches.update(id(engine.price_cache)
                                     for engine in warmup.engines)
        del warmup
        traced_clock = ReferenceClock()
        for op in range(workload.trace_ops):
            outcome, wall = _timed_op(workload, seed, op, tracer)
            traced_clock.add(wall)
            traced.add(outcome, True)
            outcomes.append(outcome)
    finally:
        tracer.restore()

    problems = plain.problems + traced.problems
    if (plain.op_digests != traced.op_digests
            or plain.outcome_metrics() != traced.outcome_metrics()):
        problems.append("traced outcomes differ from untraced outcomes")
        traced.failed = traced.attempted
    values = _per_layer(tracer, outcomes, phases,
                        traced_clock.reference_s / plain_clock.reference_s)
    tracer.write(OUT_DIR / f"spans-{workload_name}.npz")
    for problem in problems[:5]:
        print(f"check failed: {problem}")
    print(f"outcome_digest {workload_name} seed={seed} "
          f"ops={len(traced.op_digests)} {traced.digest:08x}")
    _emit(not problems, traced.attempted, traced.failed, values, PER_LAYER)


def run_setup_probe(workload_name: str) -> None:
    _set_up(workload_name)
    print(json.dumps({"setup_s": _setup_seconds()[0]}))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in fresh processes, untraced then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S + 60, check=False)
            lines = result.stdout.strip().splitlines()
            if result.returncode != 0 or not lines:
                print(f"{name} trace={trace}: failed\n{result.stderr}")
                status = 1
                continue
            report = json.loads(lines[-1])
            print(f"\n== {name} (trace {trace}): correct={report['correct']}"
                  f" attempted={report['attempted']}"
                  f" failed={report['failed']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for metric, entry in report["metrics"].items():
                print(f"   {metric:<56} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
            if not report["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _pin_environment()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        run_setup_probe(args.workload)
    elif args.trace:
        run_traced(args.workload, args.seed)
    else:
        run_untraced(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
