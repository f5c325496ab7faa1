"""Cost model tests: the paper's performance phenomena as invariants."""

import math
import struct
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import make_rng
from repro.hardware.platform import DATACENTER_ACCEL_80, THREADRIPPER_3990X
from repro.models.layers import Conv2D, Pool
from repro.compiler.costmodel import CostModel, CostModelParams
from repro.compiler.schedule import Schedule
from repro.compiler.space import ScheduleSpace
from repro.runtime.engine import Engine
from repro.serving.workload import WorkloadSpec, poisson_queries


@pytest.fixture(scope="module")
def model():
    return CostModel(THREADRIPPER_3990X)


@pytest.fixture(scope="module")
def schedule(conv_layer):
    return ScheduleSpace.for_layer(conv_layer).make(
        tile_m=49, tile_n=64, tile_k=512, parallel_chunks=64)


class TestBasicProperties:
    def test_latency_positive(self, model, conv_layer, schedule):
        assert model.latency(conv_layer, schedule, 16) > 0

    def test_rejects_zero_cores(self, model, conv_layer, schedule):
        with pytest.raises(ValueError):
            model.latency(conv_layer, schedule, 0)

    def test_interference_clamped(self, model, conv_layer, schedule):
        low = model.latency(conv_layer, schedule, 16, -5.0)
        base = model.latency(conv_layer, schedule, 16, 0.0)
        high = model.latency(conv_layer, schedule, 16, 7.0)
        capped = model.latency(conv_layer, schedule, 16, 1.0)
        assert low == base
        assert high == capped

    def test_nan_interference_raises(self, model, conv_layer, schedule):
        """NaN must not clamp to 0.0 and price as an idle machine."""
        with pytest.raises(ValueError, match="NaN"):
            model.execution(conv_layer, schedule, 16, math.nan)

    def test_llc_occupancy_rejects_non_positive_cores(self, conv_layer,
                                                      schedule):
        """Like ``execution``, occupancy needs a core, and a rejected
        call leaves no isolated-run record behind."""
        fresh = CostModel(THREADRIPPER_3990X)
        fresh.llc_occupancy(conv_layer, schedule, 1)
        keys = set(fresh._isolated)
        for cores in (0, -3):
            with pytest.raises(ValueError, match="cores must be >= 1"):
                fresh.llc_occupancy(conv_layer, schedule, cores)
        assert set(fresh._isolated) == keys

    def test_memoization_returns_identical(self, model, conv_layer,
                                           schedule):
        a = model.execution(conv_layer, schedule, 16, 0.5)
        b = model.execution(conv_layer, schedule, 16, 0.5)
        assert a is b

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_latency_monotonic_in_interference(self, i1, i2):
        model = CostModel(THREADRIPPER_3990X)
        layer = Conv2D(name="c", height=14, width=14, in_channels=256,
                       out_channels=256)
        sched = ScheduleSpace.for_layer(layer).make(49, 64, 512, 64)
        lo, hi = sorted((i1, i2))
        assert (model.latency(layer, sched, 16, lo)
                <= model.latency(layer, sched, 16, hi) + 1e-12)

    def test_more_cores_helps_at_low_counts(self, model, conv_layer,
                                            schedule):
        assert (model.latency(conv_layer, schedule, 8)
                < model.latency(conv_layer, schedule, 2))

    def test_cores_capped_by_chunks(self, model, conv_layer):
        one_chunk = Schedule(tile_m=196, tile_n=256, tile_k=2304,
                             parallel_chunks=1)
        exe = model.execution(conv_layer, one_chunk, 64)
        assert exe.cores_used == 1

    def test_slowdown_reported(self, model, conv_layer, schedule):
        exe = model.execution(conv_layer, schedule, 16, 0.8)
        assert exe.slowdown > 1.0
        iso = model.execution(conv_layer, schedule, 16, 0.0)
        assert iso.slowdown == pytest.approx(1.0)


class TestPaperPhenomena:
    """The compilation insights of paper Sec. 3.3 / 4.1, as assertions."""

    def _best(self, model, layer, interference, cores=32, count=800):
        space = ScheduleSpace.for_layer(layer)
        samples = space.sample_many(count, make_rng(1))
        return min(samples,
                   key=lambda s: model.latency(layer, s, cores,
                                               interference))

    def test_iso_best_degrades_by_multiples(self, model, conv_layer):
        best = self._best(model, conv_layer, 0.0)
        degradation = (model.latency(conv_layer, best, 32, 1.0)
                       / model.latency(conv_layer, best, 32, 0.0))
        assert degradation > 2.5  # paper Fig. 6a: up to ~7x

    def test_tolerant_version_stays_flat(self, model, conv_layer):
        tolerant = self._best(model, conv_layer, 1.0)
        degradation = (model.latency(conv_layer, tolerant, 32, 1.0)
                       / model.latency(conv_layer, tolerant, 32, 0.0))
        assert degradation < 1.6

    def test_crossover_exists(self, model, conv_layer):
        iso_best = self._best(model, conv_layer, 0.0)
        tolerant = self._best(model, conv_layer, 1.0)
        assert (model.latency(conv_layer, iso_best, 32, 0.0)
                <= model.latency(conv_layer, tolerant, 32, 0.0))
        assert (model.latency(conv_layer, tolerant, 32, 1.0)
                < model.latency(conv_layer, iso_best, 32, 1.0))

    def test_speedup_saturates(self, model, conv_layer, schedule):
        t8 = model.latency(conv_layer, schedule, 8)
        t56 = model.latency(conv_layer, schedule, 56)
        speedup = t8 / t56
        assert 1.5 < speedup < 7.0  # paper Fig. 4a range


class TestRequiredCores:
    def test_meets_budget(self, model, conv_layer, schedule):
        generous = model.latency(conv_layer, schedule, 4)
        cores = model.required_cores(conv_layer, schedule, generous)
        assert cores is not None
        assert model.latency(conv_layer, schedule, cores) <= generous

    def test_minimality(self, model, conv_layer, schedule):
        budget = model.latency(conv_layer, schedule, 16) * 1.01
        cores = model.required_cores(conv_layer, schedule, budget)
        assert cores is not None
        if cores > 1:
            assert model.latency(conv_layer, schedule, cores - 1) > budget

    def test_impossible_budget_returns_none(self, model, conv_layer,
                                            schedule):
        assert model.required_cores(conv_layer, schedule, 1e-9) is None

    def test_zero_budget_returns_none(self, model, conv_layer, schedule):
        assert model.required_cores(conv_layer, schedule, 0.0) is None


class TestCountersAndPressure:
    def test_miss_rate_bounded(self, model, conv_layer, schedule):
        for interference in (0.0, 0.5, 1.0):
            exe = model.execution(conv_layer, schedule, 16, interference)
            assert 0.0 <= exe.llc_miss_rate <= 1.0

    def test_misses_grow_with_interference(self, model, conv_layer,
                                           schedule):
        iso = model.execution(conv_layer, schedule, 16, 0.0)
        hot = model.execution(conv_layer, schedule, 16, 1.0)
        assert hot.dram_bytes >= iso.dram_bytes

    def test_pressure_contribution_in_unit_interval(self, model,
                                                    small_layers):
        for layer in small_layers:
            sched = ScheduleSpace.for_layer(layer).make(
                tile_m=64, tile_n=64, tile_k=256, parallel_chunks=64,
                unroll=4)
            assert 0.0 <= model.pressure_contribution(layer, sched,
                                                      16) <= 1.0

    def test_llc_occupancy_bounded_by_data(self, model, conv_layer,
                                           schedule):
        occupancy = model.llc_occupancy(conv_layer, schedule, 16)
        assert 0 < occupancy <= conv_layer.data_bytes

    def test_bandwidth_demand_positive(self, model, conv_layer, schedule):
        assert model.bandwidth_demand(conv_layer, schedule, 16) > 0

    def test_memory_bound_layer_accounts_memory_time(self, model):
        pool = Pool(name="p", height=56, width=56, channels=256)
        sched = ScheduleSpace.for_layer(pool).make(
            tile_m=64, tile_n=64, tile_k=256, parallel_chunks=64, unroll=4)
        exe = model.execution(pool, sched, 16)
        assert exe.mem_s > 0
        assert exe.total_s >= exe.mem_s


class TestOverheads:
    def test_spawn_grows_with_cores(self, model):
        assert model.spawn_overhead(32) > model.spawn_overhead(4) > 0

    def test_expand_matches_paper_scale(self, model):
        # Paper Fig. 5b: conflict overhead mean ~220us; growing by ~30
        # cores should land in the right decade.
        overhead = model.expand_overhead(30)
        assert 50e-6 < overhead < 1e-3

    def test_params_are_tunable(self):
        params = CostModelParams(cache_sensitivity=2.0)
        model = CostModel(THREADRIPPER_3990X, params)
        assert model.params.cache_sensitivity == 2.0


DUO = WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                        ("googlenet", 1.0)))


class TestMemo:
    def test_result_independent_of_call_history(self, conv_layer):
        """A near-equal earlier interference must not serve its result."""
        schedule = ScheduleSpace.for_layer(conv_layer).make(
            tile_m=64, tile_n=64, tile_k=256, parallel_chunks=64, unroll=4)
        warm = CostModel(THREADRIPPER_3990X)
        warm.execution(conv_layer, schedule, 16, 0.35)
        fresh = CostModel(THREADRIPPER_3990X)
        assert (warm.execution(conv_layer, schedule, 16, 0.35004)
                == fresh.execution(conv_layer, schedule, 16, 0.35004))

    def test_bounded_memo_changes_no_outcome(self, light_stack,
                                             monkeypatch):
        """Capped memos evict, stay under their cap, and the engine's
        pricing through them finishes every query at the same instant."""

        def serve():
            model = CostModel(light_stack.cpu, light_stack.cost_model.params)
            policy = light_stack.make_scheduler("layerwise")
            sizes = []

            class Sampled:
                def schedule(self, engine):
                    policy.schedule(engine)
                    sizes.append((len(model._memo), len(model._isolated)))

            queries = poisson_queries(light_stack.compiled, DUO, 400, 60,
                                      seed=5)
            done = Engine(model).run(queries, Sampled())
            outcome = [(q.query_id, q.finished_s) for q in done]
            final = (len(model._memo), len(model._isolated))
            return outcome, final, sizes + [final]

        unbounded, entries, _ = serve()
        monkeypatch.setattr("repro.compiler.costmodel.MEMO_ENTRIES", 64)
        bounded, _, sizes = serve()
        assert min(entries) > 64
        assert max(max(pair) for pair in sizes) <= 64
        assert bounded == unbounded

    def test_each_isolated_run_profiled_once(self, light_stack):
        """A veltair_full serve profiles each (signature, schedule,
        cores) once, ``llc_occupancy`` included, and prices every other
        interference level from that record in closed form."""
        model = CostModel(light_stack.cpu, light_stack.cost_model.params)
        profiled = Counter()
        occupancy_keys = set()
        profile = model._profile
        occupancy = model.llc_occupancy

        def counting_profile(layer, schedule, cores):
            profiled[(layer.signature, schedule, cores)] += 1
            return profile(layer, schedule, cores)

        def counting_occupancy(layer, schedule, cores):
            occupancy_keys.add((layer.signature, schedule, cores))
            return occupancy(layer, schedule, cores)

        model._profile = counting_profile
        model.llc_occupancy = counting_occupancy
        queries = poisson_queries(light_stack.compiled, DUO, 400, 60,
                                  seed=5)
        policy = light_stack.make_scheduler("veltair_full")
        done = Engine(model).run(queries, policy)
        assert len(done) == 60
        assert occupancy_keys
        assert occupancy_keys <= set(profiled)
        assert max(profiled.values()) == 1
        assert len(profiled) < len(model._memo)


#: Schedules of :class:`TestExecutionPins`: a minimal one, two typical
#: ones and one every layer clips.
PIN_SCHEDULES = (
    Schedule(tile_m=1, tile_n=1, tile_k=1, parallel_chunks=1, unroll=1,
             vector_lanes=4),
    Schedule(tile_m=32, tile_n=64, tile_k=128, parallel_chunks=16),
    Schedule(tile_m=49, tile_n=256, tile_k=512, parallel_chunks=64,
             unroll=8, vector_lanes=16),
    Schedule(tile_m=4096, tile_n=4096, tile_k=4096, parallel_chunks=4096,
             unroll=16),
)
PIN_CORES = (1, 3, 8, 64)
PIN_INTERFERENCE = (0.0, 0.05, 0.35, 1.0, 1.7)


def _pin_digest(cpu, layers, descending: bool) -> int:
    """crc32 over every breakdown field, the LLC occupancy and the
    pressure contribution of each pinned run, packed as doubles.

    A fresh model makes the calls of each (layer, schedule, cores) in
    ascending or descending order; the digest reads them back in one
    fixed order, so both orders must give the same value.
    """
    model = CostModel(cpu)
    values = {}
    for li, layer in enumerate(layers):
        for si, schedule in enumerate(PIN_SCHEDULES):
            for cores in PIN_CORES:
                calls = [("occupancy", None), ("pressure", None)]
                calls += [("execution", i) for i in PIN_INTERFERENCE]
                for kind, level in (calls[::-1] if descending else calls):
                    if kind == "occupancy":
                        value = (model.llc_occupancy(layer, schedule, cores),)
                    elif kind == "pressure":
                        value = (model.pressure_contribution(
                            layer, schedule, cores),)
                    else:
                        exe = model.execution(layer, schedule, cores, level)
                        value = (exe.total_s, exe.compute_s, exe.mem_s,
                                 exe.cores_used, exe.dram_bytes,
                                 exe.llc_bytes, exe.flops, exe.slowdown)
                    values[(li, si, cores, kind, level)] = value
    crc = 0
    for li in range(len(layers)):
        for si in range(len(PIN_SCHEDULES)):
            for cores in PIN_CORES:
                rows = [values[(li, si, cores, "execution", i)]
                        for i in PIN_INTERFERENCE]
                rows.append(values[(li, si, cores, "occupancy", None)])
                rows.append(values[(li, si, cores, "pressure", None)])
                for row in rows:
                    crc = zlib.crc32(struct.pack(f"<{len(row)}d", *row), crc)
    return crc


class TestExecutionPins:
    """Bit-identity pins of the cost model's own outputs.

    Every ``small_layers`` layer x :data:`PIN_SCHEDULES` x
    :data:`PIN_CORES` x :data:`PIN_INTERFERENCE` (1.7 clamps to 1.0),
    on a CPU and an accelerator.  The constants were recorded before
    interference was priced in closed form over a once-computed
    isolated run; they must not move.
    """

    @pytest.mark.parametrize("descending", [False, True],
                             ids=["ascending", "descending"])
    @pytest.mark.parametrize("cpu, pin",
                             [(THREADRIPPER_3990X, 0x5783798A),
                              (DATACENTER_ACCEL_80, 0xF99D1A86)],
                             ids=["cpu", "accelerator"])
    def test_outputs_pinned(self, cpu, pin, descending, small_layers):
        assert _pin_digest(cpu, small_layers, descending) == pin
