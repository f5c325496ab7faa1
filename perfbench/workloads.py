"""The benchmark's four workloads: what each runs, and why it is here.

One **op** is one simulation of a freshly generated stream.  Op ``i``
of a run with workload seed ``s`` draws its stream from
:func:`stream_seed` ``(s, i)``; the warm-up op uses :data:`WARMUP_SEED`,
which no timed op draws.  Streams are generated outside the timed
region, and the program only ever receives the generated stream.

Every workload shares one stack configuration:
``ServingStack(models=<the workload's models>, trials=64, seed=11,
artifact_store=None, compile_workers=1)``.  All load comes from one
process; nothing forks.

``node_veltair``
    One 64-core node running ``veltair_full`` on the light mix
    (``LIGHT_MIX``), open-loop Poisson at 60 QPS.  This is the near-knee
    regime (``qos_sat`` about 0.96) where capacity bisections spend their
    time.  Planning is heavy here: ``LayerSpec.signature`` plus
    ``CostModel.execution`` take about two thirds of wall time, and
    ``SpatialScheduler.schedule`` about 93% inclusive.  Routers,
    admission and the request model do no work.
``node_layerwise``
    The same node, mix and rate with the ``layerwise`` baseline: one
    block per layer, about 56 blocks and 74 repricings per query.  The
    engine is heavy and the cost model light (engine self time about
    40%, ``schedule`` self time 28%, ``start_block`` 17%,
    ``PricingCache.get`` 8%, the cost model under 7%).  A cost-model
    speedup should leave this workload flat.
``fleet16``
    16 homogeneous nodes running ``veltair_full`` behind the
    ``pressure_aware`` router and the default ``AdmissionPolicy``
    (shed), light mix, open loop at :data:`FLEET_QPS` — the lowest round
    rate at which ``qos_sat`` drops just below 1 while admission still
    sheds nothing.  The only workload that exercises ``cluster``: 17
    ``Engine.run_until`` advances per offered query (every node, then
    the chosen one), plus
    ``Router.choose``, ``AdmissionController.decide`` and the
    ``Cluster._serve`` driver.
``agent_loop``
    The registered closed-loop scenario (6 tenants x 2 in flight, 5 ms
    think) driven through ``ServingStack.run_stream``.  Submissions
    arrive mid-run through ``on_complete`` and the queue is bounded.
    The node saturates (``qos_sat`` about 0.03 with 100-request ops),
    the regime closed loops exist for, so the latency metrics are the
    outcome guard here.  The
    only workload that exercises ``workloads.requests`` and the
    ``run_stream`` hook; it catches a "single node as a fleet of one"
    refactor slowing single-node streams.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import repro.serving.metrics as serving_metrics
from repro.cluster import AdmissionPolicy, Cluster, homogeneous
from repro.serving.server import ServingStack
from repro.serving.workload import LIGHT_MIX
from repro.workloads.scenario import get_scenario

#: Stack configuration shared by every workload.
TRIALS = 64
STACK_SEED = 11

#: Op ``i`` of workload seed ``s`` draws stream seed
#: ``(s + i) * OP_SEED_SPACING``: consecutive workload seeds share most
#: of their streams, shifted by one op.  The spacing keeps the
#: per-tenant generators of a closed loop (seeded ``base + session``)
#: disjoint between ops.
OP_SEED_SPACING = 100
#: The warm-up op's stream seed: the same for every run, so set-up does
#: identical work.  Timed streams are multiples of the spacing and a
#: closed loop's tenants take the next six seeds, so no timed op draws it.
WARMUP_SEED = OP_SEED_SPACING // 2

NODE_QPS = 60.0
FLEET_QPS = 2800.0
FLEET_NODES = 16


def stream_seed(seed: int, op: int) -> int:
    """The stream seed of op ``op`` under workload seed ``seed``."""
    return (seed + op) * OP_SEED_SPACING


@dataclass
class OpOutcome:
    """What one op produced, reduced to what the benchmark checks."""

    #: Simulated queries offered (stage-level queries for every driver).
    offered: int
    #: Ids of every offered query.
    offered_ids: list[int]
    #: Completed queries in completion order:
    #: ``(query_id, arrival_s, started_s, finished_s, qos_s)``.
    completed: list[tuple]
    #: Queries admission shed.
    shed: int = 0
    #: Engines that ran the op (simulation counters are read from them).
    engines: list = field(default_factory=list)
    #: Fleet load imbalance (max/mean per-core assignment), fleets only.
    load_imbalance: float = 0.0
    #: Driver-level accounting mismatches found while reducing the op.
    problems: list[str] = field(default_factory=list)

    @property
    def unfinished(self) -> int:
        return self.offered - len(self.completed) - self.shed

    def check(self) -> list[str]:
        """Problems that make this op's queries count as failed."""
        problems = list(self.problems)
        if self.unfinished < 0:
            problems.append(
                f"offered {self.offered} < completed {len(self.completed)}"
                f" + shed {self.shed}")
        ids = [record[0] for record in self.completed]
        if len(set(ids)) != len(ids):
            problems.append("a query id completed twice")
        if not set(ids) <= set(self.offered_ids):
            problems.append("a completed query was never offered")
        for qid, arrival, started, finished, _ in self.completed:
            if started is None or not arrival <= started <= finished:
                problems.append(
                    f"query {qid}: arrival {arrival} <= started {started}"
                    f" <= finished {finished} violated")
                break
        return problems

    @property
    def satisfied(self) -> int:
        return sum(1 for _, arrival, _, finished, qos in self.completed
                   if finished - arrival <= qos)

    def latencies_s(self) -> list[float]:
        return [finished - arrival
                for _, arrival, _, finished, _ in self.completed]

    def digest(self, crc: int = 0) -> int:
        """crc32 over ``(query_id, finished_s)`` in completion order."""
        pack = struct.Struct("<qd").pack
        for qid, _, _, finished, _ in self.completed:
            crc = zlib.crc32(pack(qid, finished), crc)
        return crc


def _records(queries) -> list[tuple]:
    return [(q.query_id, q.arrival_s, q.started_s, q.finished_s, q.qos_s)
            for q in queries]


class Workload:
    """One benchmark workload: stack set-up, input generation, one op."""

    name = ""
    #: One line for ``BENCHMARK.json``.
    why = ""
    models: tuple[str, ...] = ()
    #: Simulated queries per op.  Per-op cost varies by about a quarter
    #: with the stream, so many small ops keep ``sim_qps`` steadier than
    #: a few large ones: with 400-query ops ``node_veltair``'s spread over
    #: ten runs was 0.13, with 200-query ops 0.05.
    queries_per_op = 200
    #: The first ``outcome_ops`` timed ops feed the simulated metrics
    #: (a fixed prefix, so they repeat exactly for a seed); the timed
    #: loop always runs at least this many ops.
    outcome_ops = 20
    #: Ops the traced run times, untraced and then traced.
    trace_ops = 4
    #: Whether the policy reads the fitted interference proxy.
    uses_proxy = True

    def __init__(self) -> None:
        self.stack: ServingStack | None = None

    def build_stack(self) -> ServingStack:
        self.stack = ServingStack(models=list(self.models), trials=TRIALS,
                                  seed=STACK_SEED, artifact_store=None,
                                  compile_workers=1)
        return self.stack

    def make_input(self, seed: int):
        raise NotImplementedError

    def run(self, inputs) -> OpOutcome:
        raise NotImplementedError


class NodeWorkload(Workload):
    """One node, open-loop Poisson on the light mix."""

    models = tuple(LIGHT_MIX.models)
    policy = ""

    def make_input(self, seed: int):
        return get_scenario("poisson").queries(
            self.stack.compiled, NODE_QPS, self.queries_per_op, seed=seed,
            spec=LIGHT_MIX)

    def run(self, queries) -> OpOutcome:
        completed, engine = self.stack.run(self.policy, queries)
        serving_metrics.summarize(completed, engine.metrics, NODE_QPS)
        return OpOutcome(offered=len(queries),
                         offered_ids=[q.query_id for q in queries],
                         completed=_records(completed), engines=[engine])


class NodeVeltair(NodeWorkload):
    name = "node_veltair"
    why = ("one node, veltair_full, light mix at 60 QPS near the knee: "
           "cost model and planning dominate")
    policy = "veltair_full"


class NodeLayerwise(NodeWorkload):
    name = "node_layerwise"
    why = ("one node, layerwise baseline, same mix and rate: engine and "
           "pricing cache dominate, cost model light")
    policy = "layerwise"
    uses_proxy = False


class Fleet16(Workload):
    name = "fleet16"
    why = ("16 veltair_full nodes, pressure_aware router, shed admission, "
           "open loop just below full QoS: the only cluster workload")
    models = tuple(LIGHT_MIX.models)
    outcome_ops = 8

    def build_stack(self) -> ServingStack:
        stack = super().build_stack()
        self.cluster = Cluster(stack, homogeneous(FLEET_NODES),
                               router="pressure_aware",
                               admission=AdmissionPolicy())
        return stack

    def make_input(self, seed: int):
        return get_scenario("poisson").queries(
            self.stack.compiled, FLEET_QPS, self.queries_per_op, seed=seed,
            spec=LIGHT_MIX)

    def run(self, queries) -> OpOutcome:
        report = self.cluster.serve(queries, offered_qps=FLEET_QPS)
        nodes = self.cluster.last_nodes
        merged = sorted(
            ((q.finished_s, node.index, position, q)
             for node in nodes
             for position, q in enumerate(node.engine.completed)),
            key=lambda entry: entry[:3])
        completed = [entry[3] for entry in merged]
        problems = []
        if (report.offered != len(queries)
                or report.completed != len(completed)
                or report.admitted + report.shed != report.offered):
            problems.append(
                f"fleet accounting: offered {report.offered}, admitted "
                f"{report.admitted}, shed {report.shed}, completed "
                f"{report.completed} for {len(queries)} queries")
        return OpOutcome(offered=len(queries),
                         offered_ids=[q.query_id for q in queries],
                         completed=_records(completed), shed=report.shed,
                         engines=[node.engine for node in nodes],
                         load_imbalance=report.load_imbalance,
                         problems=problems)


class AgentLoop(Workload):
    name = "agent_loop"
    why = ("registered closed loop, 6 tenants x 2 in flight via run_stream:"
           " saturated node, the only request-model workload")
    models = tuple(get_scenario("agent_loop").workload.models)
    policy = "veltair_full"
    queries_per_op = 100
    outcome_ops = 30
    trace_ops = 8

    def make_input(self, seed: int):
        return get_scenario("agent_loop").stream(
            self.stack.compiled, qps=0.0, count=self.queries_per_op,
            seed=seed)

    def run(self, stream) -> OpOutcome:
        outcome = self.stack.run_stream(self.policy, stream)
        serving_metrics.summarize(outcome.completed, outcome.engine.metrics,
                                  0.0)
        problems = []
        issued = sum(len(tenant.issued) for tenant in stream.tenants)
        if issued != len(outcome.issued) or issued != self.queries_per_op:
            problems.append(f"tenants issued {issued}, stream recorded "
                            f"{len(outcome.issued)}, budget "
                            f"{self.queries_per_op}")
        return OpOutcome(offered=len(outcome.issued),
                         offered_ids=[q.query_id for q in outcome.issued],
                         completed=_records(outcome.completed),
                         engines=[outcome.engine], problems=problems)


WORKLOADS = {cls.name: cls for cls in (NodeVeltair, NodeLayerwise, Fleet16,
                                       AgentLoop)}
