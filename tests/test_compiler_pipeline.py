"""Auto-scheduler, multi-pass baseline, and Alg. 1 multi-version tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import make_rng
from repro.models.layers import Dense
from repro.models.registry import get_entry, get_model
from repro.compiler.autoscheduler import AutoScheduler, Measured
from repro.compiler.interference_aware import (
    default_levels,
    multi_pass_search,
)
from repro.compiler.library import QOS_MARGIN
from repro.compiler.multiversion import (
    SinglePassCompiler,
    extract_dominant,
    uniform_pick,
)
from repro.compiler.schedule import Schedule
from repro.compiler.space import ScheduleSpace
from repro.compiler.vendor import vendor_schedule


@pytest.fixture(scope="module")
def searcher(cost_model):
    return AutoScheduler(cost_model)


class TestAutoScheduler:
    def test_deterministic_with_seed(self, searcher, conv_layer):
        a = searcher.search(conv_layer, trials=128, seed=3)
        b = searcher.search(conv_layer, trials=128, seed=3)
        assert a.best_schedule == b.best_schedule
        assert a.trials == b.trials

    def test_respects_trial_budget(self, searcher, conv_layer):
        result = searcher.search(conv_layer, trials=150, seed=0)
        assert result.trials <= 150

    def test_beats_random_baseline(self, searcher, cost_model, conv_layer):
        result = searcher.search(conv_layer, trials=256, seed=0)
        random_best = min(
            cost_model.latency(conv_layer, s, cost_model.cpu.cores, 0.0)
            for s in ScheduleSpace.for_layer(conv_layer).sample_many(
                64, make_rng(99)))
        assert result.best.latency_s <= random_best * 1.05

    def test_terminates_on_tiny_space(self, searcher):
        # SE-block-sized layer: fewer legal schedules than trials.
        tiny = Dense(name="se", m=1, n=8, k=32)
        result = searcher.search(tiny, trials=512, seed=0)
        assert 0 < result.trials < 512

    def test_rejects_trials_below_population(self, searcher, conv_layer):
        with pytest.raises(ValueError):
            searcher.search(conv_layer, trials=4, seed=0)

    def test_objective_interference_changes_winner(self, searcher,
                                                   conv_layer):
        iso = searcher.search(conv_layer, interference=0.0, trials=256,
                              seed=1)
        hot = searcher.search(conv_layer, interference=1.0, trials=256,
                              seed=1)
        assert iso.best_schedule != hot.best_schedule

    def test_survivor_pool_never_exceeds_population(self, cost_model,
                                                    conv_layer):
        # Regression: immigrants used to append past the
        # population-bounded fill, ratcheting the survivor pool above
        # ``population`` every evolution round.
        searcher = AutoScheduler(cost_model, population=16)
        result = searcher.search(conv_layer, trials=256, seed=5)
        assert result.trials <= 256
        assert searcher.last_pool_sizes  # evolution rounds happened
        assert max(searcher.last_pool_sizes) <= searcher.population

    def test_pool_cap_preserves_search_results(self, cost_model,
                                               conv_layer):
        # The cap keeps the best ``population`` members, whose top
        # ``elites`` are the parents either way — so capping must not
        # change what the search evaluates or returns.  Compared
        # against a faithful replica of the pre-fix (uncapped) loop.
        from repro.compiler.space import ScheduleSpace

        def uncapped_reference(searcher, layer, trials, seed):
            # The pre-fix search loop, verbatim minus the re-cap.
            rng = make_rng(seed)
            space = ScheduleSpace.for_layer(layer)
            evaluated = {}

            def measure(schedule):
                cached = evaluated.get(schedule)
                if cached is None:
                    cached = cost_model.latency(
                        layer, schedule, cost_model.cpu.cores, 0.0)
                    evaluated[schedule] = cached
                return cached

            for schedule in space.sample_many(trials // 2, rng):
                measure(schedule)
            pool = space.sample_many(searcher.population, rng)
            for schedule in pool:
                measure(schedule)
            elites = max(2, int(searcher.population
                                * searcher.elite_fraction))
            previous_count = -1
            while (len(evaluated) < trials
                   and len(evaluated) > previous_count):
                previous_count = len(evaluated)
                pool.sort(key=measure)
                parents = pool[:elites]
                children = list(parents)
                while (len(children) < searcher.population
                       and len(evaluated) + len(children) - elites
                       < trials):
                    parent = parents[int(rng.integers(0, len(parents)))]
                    children.append(space.neighbours(parent, rng))
                if len(children) <= elites:
                    break
                for child in children[elites:]:
                    measure(child)
                if len(evaluated) < trials:
                    for schedule in space.sample_many(
                            max(2, searcher.population // 8), rng):
                        if len(evaluated) >= trials:
                            break
                        measure(schedule)
                        children.append(schedule)
                pool = children  # pre-fix: no re-cap, pool ratchets
            return evaluated

        searcher = AutoScheduler(cost_model, population=16)
        capped = searcher.search(conv_layer, trials=200, seed=9)
        reference = uncapped_reference(searcher, conv_layer, 200, 9)
        assert dict((m.schedule, m.latency_s)
                    for m in capped.samples) == reference


class TestMultiPass:
    def test_levels_span_unit_interval(self):
        levels = default_levels(4)
        assert levels[0] == 0.0
        assert levels[-1] == 1.0

    def test_rejects_single_level(self):
        with pytest.raises(ValueError):
            default_levels(1)

    def test_multi_pass_costs_levels_times_trials(self, searcher,
                                                  conv_layer):
        result = multi_pass_search(searcher, conv_layer, levels=3,
                                   trials_per_pass=128, seed=0)
        assert len(result.passes) == 3
        assert result.total_trials <= 3 * 128


def _measured(blocking_m, blocking_n, chunks, latency):
    return Measured(
        schedule=Schedule(tile_m=blocking_m, tile_n=blocking_n, tile_k=8,
                          parallel_chunks=chunks, unroll=1),
        latency_s=latency)


class TestExtractDominant:
    def test_dominated_point_removed(self):
        frontier = extract_dominant([
            _measured(4, 4, 1, 1.0),     # blocking 16, par 1
            _measured(8, 8, 2, 1.0),     # blocking 64, par 2: dominated
        ])
        assert len(frontier) == 1
        assert frontier[0].schedule.blocking_size == 16

    def test_tradeoff_points_kept(self):
        frontier = extract_dominant([
            _measured(4, 4, 8, 1.0),     # small blocking, high par
            _measured(16, 16, 1, 1.0),   # big blocking, low par
        ])
        assert len(frontier) == 2

    def test_tie_keeps_fastest(self):
        frontier = extract_dominant([
            _measured(4, 4, 2, 2.0),
            _measured(4, 4, 2, 1.0),
        ])
        assert len(frontier) == 1
        assert frontier[0].latency_s == 1.0

    @given(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 64),
                              st.floats(0.1, 10)),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_minimal_set(self, points):
        samples = [_measured(m, 1, c, lat) for m, c, lat in points]
        frontier = extract_dominant(samples)
        keys = {(s.schedule.blocking_size, s.parallelism)
                for s in frontier}
        # No frontier point may dominate another frontier point.
        for a in keys:
            for b in keys:
                if a != b:
                    assert not (a[0] <= b[0] and a[1] <= b[1])
        # Every sample is dominated-or-equal by some frontier point.
        for s in samples:
            point = (s.schedule.blocking_size, s.parallelism)
            assert any(f[0] <= point[0] and f[1] <= point[1] for f in keys)


class TestUniformPick:
    def test_keeps_all_when_few(self):
        frontier = [_measured(4, 4, 1, 1.0), _measured(8, 8, 1, 1.0)]
        assert uniform_pick(frontier, 5) == frontier

    def test_includes_both_ends(self):
        frontier = [_measured(2 ** i, 4, 1, 1.0) for i in range(1, 10)]
        picks = uniform_pick(frontier, 3)
        assert picks[0] is frontier[0]
        assert picks[-1] is frontier[-1]
        assert len(picks) == 3

    def test_rejects_zero_versions(self):
        with pytest.raises(ValueError):
            uniform_pick([_measured(4, 4, 1, 1.0)], 0)


class TestSinglePassCompiler:
    @pytest.fixture(scope="class")
    def compiled(self, cost_model, conv_layer):
        compiler = SinglePassCompiler(cost_model, trials=256, seed=2)
        return compiler.compile_layer(conv_layer, qos_budget_s=500e-6)

    def test_version_count_within_limit(self, compiled):
        assert 1 <= compiled.version_count <= 5

    def test_versions_sorted_by_blocking_desc(self, compiled):
        blockings = [v.blocking_size for v in compiled.versions]
        assert blockings == sorted(blockings, reverse=True)

    def test_level_map_is_argmin_of_table(self, compiled):
        for li in range(len(compiled.levels)):
            chosen = compiled.version_for_level[li]
            column = [row[li] for row in compiled.latency_table]
            assert column[chosen] == min(column)

    def test_version_for_interpolates(self, compiled):
        assert compiled.version_for(0.0) == compiled.static_version()
        assert compiled.version_for(1.0) in compiled.versions

    def test_versions_all_legal(self, compiled, conv_layer):
        for version in compiled.versions:
            assert version.is_legal_for(conv_layer.gemm)

    def test_rejects_zero_budget(self, cost_model, conv_layer):
        compiler = SinglePassCompiler(cost_model, trials=128)
        with pytest.raises(ValueError):
            compiler.compile_layer(conv_layer, qos_budget_s=0.0)

    def test_impossible_budget_still_compiles(self, cost_model,
                                              conv_layer):
        compiler = SinglePassCompiler(cost_model, trials=128, seed=4)
        compiled = compiler.compile_layer(conv_layer, qos_budget_s=1e-9)
        assert compiled.version_count >= 1

    def test_level_index_is_nearest_level(self, compiled):
        # The specification of version lookup: the nearest calibration
        # level, equal distances resolving to the lower level, across a
        # dense pressure grid, exact midpoints, and their ulp neighbours
        # (where float tie-breaks live).
        import math

        def nearest_scan(levels, pressure):
            return min(range(len(levels)),
                       key=lambda i: abs(levels[i] - pressure))

        probes = [k / 1000.0 for k in range(-50, 1051)]
        for i in range(len(compiled.levels) - 1):
            mid = (compiled.levels[i] + compiled.levels[i + 1]) / 2.0
            probes += [math.nextafter(mid, -1.0), mid,
                       math.nextafter(mid, 2.0)]
        for pressure in probes:
            assert (compiled.level_index(pressure)
                    == nearest_scan(compiled.levels, pressure)), pressure
        # Version selection rides on the index: spot-check the mapping.
        for pressure in (0.0, 0.33, 0.5, 1.0):
            level = nearest_scan(compiled.levels, pressure)
            assert (compiled.version_index_for(pressure)
                    == compiled.version_for_level[level])


class TestModelCompiler:
    def test_compiled_model_aligns_with_graph(self, compiler):
        graph = get_model("mobilenet_v2")
        compiled = compiler.compile_models(
            [(graph, get_entry("mobilenet_v2").qos_s)])[0]
        assert len(compiled) == len(graph)
        assert compiled.name == "mobilenet_v2"

    def test_signature_cache_shares_tables(self, compiler):
        graph = get_model("resnet50")
        compiled = compiler.compile_models([(graph, 0.015)])[0]
        # Repeated bottleneck convs share shapes -> identical tables.
        by_sig = {}
        for entry in compiled.layers:
            sig = entry.layer.signature
            if sig in by_sig:
                assert entry.versions == by_sig[sig].versions
            by_sig[sig] = entry

    def test_budget_floor_keeps_layers_feasible(self, compiler):
        graph = get_model("resnet50")
        budgets = compiler._layer_budgets(graph, 0.015)
        assert min(budgets) >= 1e-6
        assert sum(budgets) <= 0.015 * QOS_MARGIN + 1e-9

    def test_rejects_zero_qos(self, compiler):
        with pytest.raises(ValueError):
            compiler.compile_models([(get_model("mobilenet_v2"), 0.0)])


class TestVendorLibrary:
    def test_vendor_schedule_always_legal(self, small_layers):
        for layer in small_layers:
            assert vendor_schedule(layer).is_legal_for(layer.gemm)

    def test_tuned_beats_vendor(self, cost_model, compiler):
        graph = get_model("mobilenet_v2")
        tuned = compiler.compile_models([(graph, 0.010)])[0]
        vendor_total = sum(
            cost_model.latency(layer, vendor_schedule(layer), 64, 0.0)
            for layer in graph.layers)
        tuned_total = sum(
            cost_model.latency(layer, tuned.layers[i].static_version(),
                               64, 0.0)
            for i, layer in enumerate(graph.layers))
        assert tuned_total < vendor_total
