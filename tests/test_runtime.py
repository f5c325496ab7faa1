"""Discrete-event engine tests: core ledger, events, and accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.engine import BatchPolicy, Engine
from repro.runtime.tasks import block_duration
from repro.serving.workload import (WorkloadSpec, poisson_queries,
                                    uniform_queries)


_DUO = WorkloadSpec(name="duo", entries=(("mobilenet_v2", 1.0),
                                         ("googlenet", 1.0)))


class _WholeModelScheduler:
    """Minimal policy for engine tests: whole model, fixed cores."""

    def __init__(self, stack, cores):
        self.stack = stack
        self.cores = cores

    def schedule(self, engine):
        for queue in (engine.ready, engine.waiting):
            while queue and engine.available_cores >= self.cores:
                query = queue.popleft()
                profile = self.stack.profiles[query.model.name]
                engine.start_block(
                    query, len(query.model.layers), self.cores,
                    profile.static_versions)


class _NeverStarts:
    """A policy that starts nothing: queued work can only deadlock."""

    def schedule(self, engine):
        return


class TestBlockDuration:
    def test_rejects_bad_range(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        with pytest.raises(ValueError):
            block_duration(resnet_stack.cost_model, queries[0].model, 5,
                           5, (), 8, 0.0)

    def test_rejects_version_mismatch(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        profile = resnet_stack.profiles["resnet50"]
        with pytest.raises(ValueError):
            block_duration(resnet_stack.cost_model, queries[0].model, 0,
                           3, profile.static_versions[0:2], 8, 0.0)

    def test_block_slower_under_interference(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        profile = resnet_stack.profiles["resnet50"]
        versions = profile.static_versions[0:5]
        model = queries[0].model
        quiet = block_duration(resnet_stack.cost_model, model, 0, 5,
                               versions, 16, 0.0)
        noisy = block_duration(resnet_stack.cost_model, model, 0, 5,
                               versions, 16, 0.9)
        assert noisy > quiet


class TestEngine:
    def test_single_query_completes(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        engine = Engine(resnet_stack.cost_model)
        done = engine.run(queries, _WholeModelScheduler(resnet_stack, 32))
        assert len(done) == 1
        assert done[0].finished_s > done[0].arrival_s

    def test_all_queries_complete(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 50, 20)
        engine = Engine(resnet_stack.cost_model)
        done = engine.run(queries, _WholeModelScheduler(resnet_stack, 16))
        assert len(done) == 20
        assert all(q.done for q in done)

    def test_time_monotonic_completion(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 50, 15)
        engine = Engine(resnet_stack.cost_model)
        done = engine.run(queries, _WholeModelScheduler(resnet_stack, 16))
        finishes = [q.finished_s for q in done]
        assert finishes == sorted(finishes)

    def test_colocated_slower_than_solo(self, resnet_stack):
        solo = uniform_queries(resnet_stack.compiled, "resnet50", 1, 1)
        engine = Engine(resnet_stack.cost_model)
        solo_done = engine.run(solo, _WholeModelScheduler(resnet_stack, 16))
        solo_latency = solo_done[0].latency_s

        # Simultaneous arrivals: three 16-core tenants co-run.
        burst = uniform_queries(resnet_stack.compiled, "resnet50", 1000, 3)
        engine = Engine(resnet_stack.cost_model)
        busy_done = engine.run(burst, _WholeModelScheduler(resnet_stack, 16))
        assert max(q.latency_s for q in busy_done) > solo_latency

    def test_core_accounting(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 50, 5)
        engine = Engine(resnet_stack.cost_model)
        done = engine.run(queries, _WholeModelScheduler(resnet_stack, 16))
        assert engine.cores_used == 0
        assert engine.metrics.max_cores_used <= resnet_stack.cpu.cores
        assert engine.metrics.usage_core_seconds > 0
        for query in done:
            assert query.core_seconds > 0

    def test_pressure_zero_when_idle(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        assert engine.pressure() == 0.0
        assert engine.system_counters() == (0.0, 0.0)

    def test_pressure_caps_at_one(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        for _ in range(2):
            task_id = _start_one_block(resnet_stack, engine)
            engine.running[task_id].pressure = 0.7
        assert engine.pressure() == 1.0

    def test_grow_block(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        engine = Engine(resnet_stack.cost_model)

        class GrowOnce:
            def __init__(self, stack):
                self.stack = stack
                self.grown = False

            def schedule(self, engine):
                while engine.waiting:
                    query = engine.waiting.popleft()
                    profile = self.stack.profiles[query.model.name]
                    engine.start_block(query, len(query.model.layers), 8,
                                       profile.static_versions,
                                       desired_cores=24)
                if engine.running and not self.grown:
                    task_id = next(iter(engine.running))
                    engine.grow_block(task_id, 16)
                    self.grown = True

        done = engine.run(queries, GrowOnce(resnet_stack))
        assert len(done) == 1
        assert done[0].grows == 1
        assert engine.metrics.conflicts == 1

    def test_query_latency_requires_completion(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        with pytest.raises(ValueError):
            _ = queries[0].latency_s

    def test_deadlock_detected(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50", 10, 1)
        engine = Engine(resnet_stack.cost_model)
        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run(queries, _NeverStarts())

    def test_deadlock_detected_behind_stale_batch_timer(self, light_stack):
        """A batch group that closed early leaves a stale max-wait timer.

        Two arrivals fill a ``max_batch=2`` group, so the fused query
        waits while the group's timer is superseded.  The guard used to
        count that timer as future work and the run returned with the
        query still queued.
        """
        queries = uniform_queries(light_stack.compiled, "mobilenet_v2",
                                  1000, 2)
        engine = Engine(light_stack.cost_model,
                        batching=BatchPolicy(max_batch=2, max_wait_s=0.01))
        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run(queries, _NeverStarts())

    def test_deadlock_detected_behind_stale_events(self, resnet_stack):
        """The guard must not be fooled by a heap of stale events.

        The first query's block is grown mid-flight, so its re-priced
        finish fires *before* the original (now stale) event; the
        second query is never started.  The stale tail used to let the
        drain loop slide past the deadlock guard and return silently.
        """
        class StartsOnlyFirst:
            def __init__(self, stack):
                self.stack = stack
                self.started = False
                self.grown = False

            def schedule(self, engine):
                profile = self.stack.profiles["resnet50"]
                if not self.started and engine.waiting:
                    query = engine.waiting.popleft()
                    engine.start_block(query, len(query.model.layers),
                                       8, profile.static_versions,
                                       desired_cores=32)
                    self.started = True
                elif self.started and not self.grown and engine.running:
                    engine.grow_block(next(iter(engine.running)), 24)
                    self.grown = True

        queries = uniform_queries(resnet_stack.compiled, "resnet50",
                                  100, 2)
        engine = Engine(resnet_stack.cost_model)
        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run(queries, StartsOnlyFirst(resnet_stack))


class TestCoreLedger:
    """The running blocks are the core ledger: ``cores_used`` is the sum
    of their grants, and a grant must fit the free cores.  The conflict
    count (blocks holding fewer cores than they asked for) is kept the
    same way."""

    def test_over_grant_rejected_without_change(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        task_id = _start_one_block(resnet_stack, engine, cores=60,
                                   desired=64)
        assert engine.cores_used == 60
        assert engine.available_cores == resnet_stack.cpu.cores - 60
        assert engine.conflicted_blocks == 1
        for cores in (engine.available_cores + 1, 0):
            with pytest.raises(ValueError):
                _start_one_block(resnet_stack, engine, cores=cores)
            assert engine.cores_used == 60
        with pytest.raises(ValueError):
            engine.grow_block(task_id, engine.available_cores + 1)
        assert engine.cores_used == 60
        assert engine.conflicted_blocks == 1
        assert engine.running[task_id].cores == 60
        assert list(engine.running) == [task_id]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_ledger_matches_running_blocks(self, light_stack, seed):
        """A random policy: grants up to the free cores, random grows."""
        rng = random.Random(seed)
        cores = light_stack.cpu.cores
        samples = []

        class RandomGrants:
            def schedule(self, engine):
                for block in list(engine.running.values()):
                    deficit = block.desired_cores - block.cores
                    free = engine.available_cores
                    if deficit > 0 and free > 0 and rng.random() < 0.5:
                        engine.grow_block(block.task_id,
                                          rng.randint(1, min(deficit, free)))
                for queue in (engine.ready, engine.waiting):
                    while (queue and engine.available_cores > 0
                           and (not engine.running or rng.random() < 0.7)):
                        query = queue.popleft()
                        stop = rng.randint(query.next_layer + 1,
                                           len(query.model.layers))
                        grant = rng.randint(1, engine.available_cores)
                        profile = light_stack.profiles[query.model.name]
                        engine.start_block(
                            query, stop, grant,
                            profile.static_versions[query.next_layer:stop],
                            desired_cores=grant + rng.randint(0, 16))
                running = engine.running.values()
                samples.append((engine.cores_used,
                                sum(b.cores for b in running),
                                engine.conflicted_blocks,
                                sum(b.cores < b.desired_cores
                                    for b in running)))

        queries = poisson_queries(light_stack.compiled, _DUO, 400, 12,
                                  seed=seed % 1000)
        engine = Engine(light_stack.cost_model)
        done = engine.run(queries, RandomGrants())
        assert len(done) == 12
        for used, held, conflicted, short in samples:
            assert used == held
            assert 0 <= used <= cores
            assert conflicted == short
        assert engine.cores_used == 0
        assert engine.conflicted_blocks == 0
        metrics = engine.metrics
        assert metrics.usage_core_seconds <= (
            cores * metrics.span_s * (1 + 1e-9))


def _start_one_block(stack, engine, cores=8, desired=None):
    """Start one whole-model block directly (engine-internals tests)."""
    query = uniform_queries(stack.compiled, "resnet50", 10, 1)[0]
    profile = stack.profiles["resnet50"]
    return engine.start_block(query, len(query.model.layers), cores,
                              profile.static_versions,
                              desired_cores=desired)


class TestGrowOverheadClamp:
    """Regression: a grow on a just-started block must not drive its
    progress negative (negative progress overstates remaining work and
    yields an overlong finish time)."""

    def test_progress_clamped_at_zero(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        task_id = _start_one_block(resnet_stack, engine, cores=8,
                                   desired=32)
        # Grow immediately: zero banked progress, but the spawn overhead
        # charge is positive — without the clamp this went negative.
        engine.grow_block(task_id, 24)
        engine._reprice_dirty()
        block = engine.running[task_id]
        assert block.progress == 0.0
        assert block.pending_overhead_s == 0.0

    def test_finish_not_overlong(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        task_id = _start_one_block(resnet_stack, engine, cores=8,
                                   desired=32)
        engine.grow_block(task_id, 24)
        engine._reprice_dirty()
        block = engine.running[task_id]
        # The scheduled finish can be at most one full block duration
        # out, since clamped progress is >= 0.
        finish_times = [event[0] for event in engine._events
                        if event[2] == "finish"
                        and event[3] == (task_id, block.generation)]
        assert finish_times
        assert finish_times[0] <= engine.now + 1.0 / block.rate + 1e-12


class TestHorizonAccounting:
    """Regression: stopping at a horizon must account the tail of the
    simulated window, not freeze the clock at the last event."""

    def test_tail_advanced_to_horizon(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50",
                                  100, 5)  # arrivals at 10ms spacing
        engine = Engine(resnet_stack.cost_model)
        horizon = 0.012  # mid-flight of the first query's block
        engine.begin(queries, _WholeModelScheduler(resnet_stack, 32))
        engine.run_until(horizon)
        assert engine.metrics.last_event_s == pytest.approx(horizon)
        # The first block runs on 32 cores from t=0.01 to the horizon.
        assert engine.metrics.usage_core_seconds == pytest.approx(
            32 * (horizon - 0.01))

    def test_average_cores_not_inflated(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50",
                                  100, 5)
        engine = Engine(resnet_stack.cost_model)
        engine.begin(queries, _WholeModelScheduler(resnet_stack, 32))
        engine.run_until(0.012)
        # 32 cores busy over half the [0.01, 0.012] window span would be
        # reported as 32; the under-count bug reported 0-span inf/garbage.
        assert 0.0 < engine.metrics.average_cores_used <= 32.0

    def test_horizon_before_first_event(self, resnet_stack):
        queries = uniform_queries(resnet_stack.compiled, "resnet50",
                                  100, 5)
        engine = Engine(resnet_stack.cost_model)
        engine.begin(queries, _WholeModelScheduler(resnet_stack, 32))
        engine.run_until(0.001)
        assert engine.completed == []
        assert engine.metrics.first_event_s is None
        assert engine.metrics.usage_core_seconds == 0.0


class TestPlanningPressureBoundary:
    """Paper Sec. 4.3: a block exactly at the soon-to-finish threshold
    counts as soon-to-finish (inclusive boundary)."""

    def test_at_threshold_excluded(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        engine.soon_to_finish_threshold = 0.25
        task_id = _start_one_block(resnet_stack, engine)
        block = engine.running[task_id]
        block.progress = 0.75  # remaining == threshold exactly
        assert engine.pressure() == 0.0

    def test_below_threshold_excluded(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        engine.soon_to_finish_threshold = 0.25
        task_id = _start_one_block(resnet_stack, engine)
        engine.running[task_id].progress = 0.875
        assert engine.pressure() == 0.0

    def test_above_threshold_included(self, resnet_stack):
        engine = Engine(resnet_stack.cost_model)
        engine.soon_to_finish_threshold = 0.25
        task_id = _start_one_block(resnet_stack, engine)
        engine.running[task_id].progress = 0.5
        assert engine.pressure() > 0.0
