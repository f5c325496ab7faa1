"""Heterogeneous device backends: specs, cost model, fleet, routing.

The bit-identity of the CPU path is ratcheted by the benchmark suite;
these tests pin the structural contracts: the DeviceSpec family's
interface, accelerator cost-model behaviour, artifact-key stability for
CPU contexts, compile-once across mixed fleets, device-affinity routing
determinism, and the GACER baseline.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.fleet import Cluster
from repro.cluster.router import DeviceAffinityRouter, make_router
from repro.cluster.spec import ClusterSpec, NodeSpec, hetero_fleet
from repro.compiler.artifacts import compiler_context, context_fingerprint
from repro.compiler.costmodel import CostModel, CostModelParams
from repro.compiler.multiversion import SinglePassCompiler
from repro.hardware.platform import (
    DATACENTER_ACCEL_80,
    EDGE_NODE_32,
    THREADRIPPER_3990X,
    CpuSpec,
    DeviceSpec,
    datacenter_accelerator_80,
)
from repro.models.layers import Conv2D
from repro.runtime.engine import Engine
from repro.scheduling.gacer import GacerScheduler
from repro.serving.workload import scenario_queries
from repro.workloads.scenario import get_scenario


class TestDeviceSpecs:
    def test_cpu_is_a_device(self):
        assert isinstance(THREADRIPPER_3990X, DeviceSpec)
        assert THREADRIPPER_3990X.kind == "cpu"

    def test_accelerator_interface(self):
        accel = DATACENTER_ACCEL_80
        assert isinstance(accel, DeviceSpec)
        assert not isinstance(accel, CpuSpec)
        assert accel.kind == "accelerator"
        assert accel.cores == accel.sms == 80
        assert accel.thread_spawn_s == accel.stream_launch_s
        assert accel.peak_flops > THREADRIPPER_3990X.peak_flops

    def test_accelerator_validation(self):
        with pytest.raises(ValueError):
            dataclasses.replace(DATACENTER_ACCEL_80, sms=0)
        with pytest.raises(ValueError):
            dataclasses.replace(DATACENTER_ACCEL_80, simt_lanes=0)
        with pytest.raises(ValueError):
            dataclasses.replace(DATACENTER_ACCEL_80, min_occupancy_rate=1.5)

    def test_preset_factory_matches_singleton(self):
        assert datacenter_accelerator_80() == DATACENTER_ACCEL_80

    def test_cpu_field_schema_frozen(self):
        # The CpuSpec field set is part of the artifact-store key
        # schema; adding a field silently invalidates every stored CPU
        # artifact.  New knobs belong on new device kinds.
        assert [f.name for f in dataclasses.fields(CpuSpec)] == [
            "name", "cores", "frequency_hz", "flops_per_cycle",
            "sustained_fraction", "l2", "llc", "dram", "thread_spawn_s"]


class TestAcceleratorCostModel:
    @pytest.fixture(scope="class")
    def accel_model(self):
        return CostModel(DATACENTER_ACCEL_80)

    @pytest.fixture(scope="class")
    def wide_layer(self):
        return Conv2D(name="wide", height=28, width=28, in_channels=128,
                      out_channels=256)

    def test_cpu_knobs_resolve_to_params(self, cost_model):
        p = cost_model.params
        assert cost_model.kind == "cpu"
        assert cost_model.launch_s == p.layer_launch_s
        assert cost_model._sync_tax == p.sync_tax_per_core
        assert cost_model._dram_saturation == p.dram_saturation_cores
        assert cost_model._cache_sensitivity == p.cache_sensitivity

    def test_accel_knobs_resolve_to_spec(self, accel_model):
        accel = DATACENTER_ACCEL_80
        assert accel_model.kind == "accelerator"
        assert accel_model.launch_s == accel.kernel_launch_s
        assert accel_model._sync_tax == accel.sync_tax_per_unit

    def test_spawn_overhead_is_stream_dispatch(self, accel_model,
                                               cost_model):
        assert (accel_model.spawn_overhead(8)
                == DATACENTER_ACCEL_80.stream_launch_s + 8.0e-6)
        assert cost_model.spawn_overhead(8) == 15e-6 + 1.2e-6 * 8

    def test_occupancy_penalises_few_chunks(self, accel_model,
                                            wide_layer):
        from repro.compiler.schedule import Schedule
        # Same tiles, one chunk vs many: the single-chunk kernel cannot
        # fill the SM's latency-hiding slots and must run further below
        # peak than the CPU's imbalance math alone would predict.
        narrow = Schedule(tile_m=64, tile_n=64, tile_k=64,
                          parallel_chunks=1, unroll=4, vector_lanes=8)
        wide = narrow._replace(parallel_chunks=256)
        slow = accel_model.latency(wide_layer, narrow, 1)
        fast = accel_model.latency(wide_layer, wide, 64)
        assert fast < slow
        occ_floor = DATACENTER_ACCEL_80.min_occupancy_rate
        iso_one = accel_model.execution(wide_layer, narrow, 1)
        # One chunk on one SM: occupancy is pinned near the floor.
        assert iso_one.compute_s > 0
        assert 0 < occ_floor < 1

    def test_deterministic(self, accel_model, wide_layer):
        from repro.compiler.schedule import Schedule
        schedule = Schedule(tile_m=32, tile_n=32, tile_k=64,
                            parallel_chunks=64, unroll=4, vector_lanes=8)
        a = accel_model.execution(wide_layer, schedule, 40, 0.3)
        b = CostModel(DATACENTER_ACCEL_80).execution(
            wide_layer, schedule, 40, 0.3)
        assert a == b


class TestArtifactKeys:
    def test_cpu_context_has_no_device_kind(self, cost_model):
        single = SinglePassCompiler(cost_model, trials=96, seed=1)
        context = compiler_context(single)
        assert "device_kind" not in context
        assert context["cpu"] == dataclasses.asdict(THREADRIPPER_3990X)
        assert context["params"] == dataclasses.asdict(
            CostModelParams())

    def test_accel_context_keyed_by_kind(self):
        accel_model = CostModel(DATACENTER_ACCEL_80)
        single = SinglePassCompiler(accel_model, trials=96, seed=1)
        context = compiler_context(single)
        assert context["device_kind"] == "accelerator"

    def test_fingerprints_distinct_per_device(self, cost_model):
        cpu_fp = context_fingerprint(compiler_context(
            SinglePassCompiler(cost_model, trials=96, seed=1)))
        accel_fp = context_fingerprint(compiler_context(
            SinglePassCompiler(CostModel(DATACENTER_ACCEL_80),
                               trials=96, seed=1)))
        assert cpu_fp != accel_fp
        # Stable across model instances: the CPU key cannot drift.
        again = context_fingerprint(compiler_context(
            SinglePassCompiler(CostModel(THREADRIPPER_3990X),
                               trials=96, seed=1)))
        assert cpu_fp == again


class TestClusterSpecs:
    def test_node_device_kind(self):
        assert NodeSpec(name="n",
                        device=THREADRIPPER_3990X).device_kind == "cpu"
        accel = NodeSpec(name="a", device=DATACENTER_ACCEL_80)
        assert accel.device_kind == "accelerator"
        assert accel.cores == 80
        with pytest.raises(TypeError):
            NodeSpec(name="n")  # no device at all

    def test_device_specs_distinct_in_fleet_order(self):
        fleet = hetero_fleet()
        specs = fleet.device_specs
        assert specs == (THREADRIPPER_3990X, DATACENTER_ACCEL_80,
                         EDGE_NODE_32)

    def test_duplicate_node_names_rejected(self):
        node = NodeSpec(name="dup", device=THREADRIPPER_3990X)
        with pytest.raises(ValueError, match="duplicate"):
            ClusterSpec(name="bad", nodes=(node, node))


class TestMixedFleetServing:
    @pytest.fixture(scope="class")
    def scenario(self):
        return get_scenario("batch_heavy")

    @pytest.fixture(scope="class")
    def small_fleet(self):
        return ClusterSpec(name="cpu+accel", nodes=(
            NodeSpec(name="cpu0", device=THREADRIPPER_3990X),
            NodeSpec(name="accel0", device=DATACENTER_ACCEL_80),
        ))

    def test_runtime_for_never_recompiles(self, hetero_stack):
        hetero_stack.ensure_compiled()
        seen = hetero_stack.compiler.stats.layers_total
        cpu_rt = hetero_stack.runtime_for(THREADRIPPER_3990X)
        accel_rt = hetero_stack.runtime_for(DATACENTER_ACCEL_80)
        assert hetero_stack.compiler.stats.layers_total == seen
        assert accel_rt is not cpu_rt
        assert accel_rt.device_kind == "accelerator"
        assert cpu_rt.device_kind == "cpu"
        # Memoised per spec.
        assert hetero_stack.runtime_for(DATACENTER_ACCEL_80) is accel_rt
        # Profiles differ per device economics but cover the same
        # compiled models.
        assert set(accel_rt.profiles) == set(cpu_rt.profiles)

    def test_mixed_fleet_serves_from_one_compile(self, hetero_stack,
                                                 small_fleet, scenario):
        queries = scenario_queries(hetero_stack.compiled, scenario,
                                   40.0, 60, seed=7)
        hetero_stack.ensure_compiled()
        seen = hetero_stack.compiler.stats.layers_total
        report = Cluster(hetero_stack, small_fleet,
                         router="device_affinity").serve(
            queries, offered_qps=40.0)
        assert hetero_stack.compiler.stats.layers_total == seen
        assert report.completed == 60
        assert sum(n.assigned for n in report.nodes) == 60

    def test_device_affinity_deterministic(self, hetero_stack,
                                           small_fleet, scenario):
        def serve():
            queries = scenario_queries(hetero_stack.compiled, scenario,
                                       40.0, 60, seed=9)
            return Cluster(hetero_stack, small_fleet,
                           router="device_affinity").serve(
                queries, offered_qps=40.0)

        first, second = serve(), serve()
        assert first.satisfaction_rate == second.satisfaction_rate
        assert first.goodput_qps == second.goodput_qps
        assert ([n.assigned for n in first.nodes]
                == [n.assigned for n in second.nodes])

    def test_affinity_router_registered(self):
        router = make_router("device_affinity")
        assert isinstance(router, DeviceAffinityRouter)
        assert router.name == "device_affinity"


class TestGacer:
    def test_policy_registered(self, hetero_stack):
        scheduler = hetero_stack.make_scheduler("gacer")
        assert isinstance(scheduler, GacerScheduler)
        assert 1 <= scheduler.concurrency <= scheduler.max_concurrency

    def test_granularity_coarsens_as_concurrency_drops(self, cost_model):
        scheduler = GacerScheduler(cost_model, {})
        # 64 cores: up to 8 co-runners of >= 8 cores each.
        assert scheduler.max_concurrency == 8
        scheduler.concurrency = 1
        coarse = scheduler.block_layers
        scheduler.concurrency = 8
        fine = scheduler.block_layers
        assert coarse > fine >= 1

    def test_serves_and_is_deterministic(self, hetero_stack):
        scenario = get_scenario("batch_heavy")

        def run():
            queries = scenario_queries(hetero_stack.compiled, scenario,
                                       50.0, 80, seed=3)
            engine = Engine(hetero_stack.cost_model,
                            price_cache=hetero_stack.price_cache)
            scheduler = hetero_stack.make_scheduler("gacer")
            completed = engine.run(queries, scheduler)
            return completed, scheduler

        completed, scheduler = run()
        assert len(completed) == 80
        assert all(q.finished_s is not None for q in completed)
        assert 1 <= scheduler.concurrency <= scheduler.max_concurrency
        again, _ = run()
        assert ([q.finished_s for q in completed]
                == [q.finished_s for q in again])


@pytest.fixture(scope="module")
def hetero_stack():
    """The batch-heavy model trio with small search budgets."""
    from repro.serving.server import ServingStack
    return ServingStack(models=["mobilenet_v2", "resnet50",
                                "ssd_resnet34"],
                        trials=96, proxy_scenarios=60, seed=11)
