"""Paper Fig. 1 — motivation: CPUs over-serve one model, co-location hurts.

Fig. 1a: MLPerf vision models meet their QoS targets with a fraction of
the 64 cores.  Fig. 1b: naive co-location slows tasks down (paper: up to
~1.8x at 4 co-located tasks).
"""

from conftest import record

from repro.runtime.engine import Engine
from repro.runtime.tasks import Query

_VISION = ("resnet50", "googlenet", "efficientnet_b0", "mobilenet_v2")
_CORES = (8, 16, 32, 64)


def test_fig1a_latency_vs_cores(stack, benchmark):
    def run():
        return {name: [stack.isolated_model_latency(name, cores=c)
                       for c in _CORES]
                for name in _VISION}

    latencies = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'model':18s}" + "".join(f"{c:>9d}c" for c in _CORES)
             + "      QoS"]
    for name, row in latencies.items():
        qos = stack.compiled[name].qos_s
        lines.append(f"{name:18s}"
                     + "".join(f"{v * 1e3:9.2f}" for v in row)
                     + f"  {qos * 1e3:6.1f}ms")
    record("fig01a", "Fig 1a: latency vs cores (ms)", "\n".join(lines),
           metrics={f"{name}_64c_ms": row[-1] * 1e3
                    for name, row in latencies.items()})

    for name, row in latencies.items():
        qos = stack.compiled[name].qos_s
        # Paper Fig. 1a: a few cores are enough for the QoS target.
        assert min(row) < qos, f"{name} cannot meet QoS even at 64 cores"
        assert row[-1] < row[0], f"{name} does not scale with cores"


class _FixedGrant:
    """Run each query as one whole-model block on a fixed grant."""

    def __init__(self, stack, cores):
        self.stack = stack
        self.cores = cores

    def schedule(self, engine):
        for queue in (engine.ready, engine.waiting):
            while queue and engine.available_cores >= self.cores:
                query = queue.popleft()
                profile = self.stack.profiles[query.model.name]
                engine.start_block(query, len(query.model.layers),
                                   self.cores, profile.static_versions)


def _colocate(stack, names, cores=16):
    queries = [Query(query_id=i, model=stack.compiled[n], arrival_s=0.0,
                     qos_s=stack.compiled[n].qos_s)
               for i, n in enumerate(names)]
    engine = Engine(stack.cost_model)
    done = engine.run(queries, _FixedGrant(stack, cores))
    return {q.model.name: q.latency_s for q in done}


def test_fig1b_colocation_slowdown(stack, benchmark):
    def run():
        solo = {n: _colocate(stack, [n])[n]
                for n in ("resnet50", "googlenet", "bert_large")}
        rows = {}
        for count in (1, 2, 3, 4):
            mix = (["resnet50", "googlenet", "bert_large"] * 2)[:count]
            latencies = _colocate(stack, mix)
            rows[count] = {n: latencies[n] / solo[n] for n in latencies}
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{'tasks':>6s} {'avg slowdown':>13s}  per-model"]
    final_avg = 1.0
    averages = {}
    for count, ratios in rows.items():
        avg = sum(ratios.values()) / len(ratios)
        final_avg = avg
        averages[count] = avg
        detail = " ".join(f"{n}={r:.2f}x" for n, r in ratios.items())
        lines.append(f"{count:6d} {avg:12.2f}x  {detail}")
    record("fig01b", "Fig 1b: co-location slowdown", "\n".join(lines),
           metrics={f"avg_slowdown_{count}": avg
                    for count, avg in averages.items()})

    assert rows[1] and all(abs(r - 1.0) < 1e-6 for r in rows[1].values())
    # Paper Fig. 1b: slowdown grows with co-location, up to ~1.8x.
    assert final_avg > 1.04
    assert final_avg < 4.0
