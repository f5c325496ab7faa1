"""Schedule and schedule-space tests (incl. hypothesis)."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import make_rng
from repro.models.layers import Conv2D, GemmShape
from repro.compiler.schedule import Schedule, num_tiles
from repro.compiler.space import ScheduleSpace, UNROLL_CANDIDATES

GEMMS = st.builds(
    GemmShape,
    m=st.integers(min_value=1, max_value=4096),
    n=st.integers(min_value=1, max_value=2048),
    k=st.integers(min_value=1, max_value=4096),
)


class TestSchedule:
    def test_rejects_non_positive_fields(self):
        with pytest.raises(ValueError):
            Schedule(tile_m=0, tile_n=1, tile_k=1, parallel_chunks=1)

    def test_hash_is_the_field_tuple_hash(self):
        """Every dict and set order over versions stays what it was."""
        s = Schedule(tile_m=32, tile_n=64, tile_k=128, parallel_chunks=16)
        fields = (32, 64, 128, 16, 4, 8)
        assert tuple(s) == fields
        # repro: ignore[no-salted-hash] -- int tuples hash unsalted; the pin is the identity
        assert hash(s) == hash(fields)

    def test_equality_ordering_and_repr(self):
        s = Schedule(tile_m=32, tile_n=64, tile_k=128, parallel_chunks=16)
        assert s == Schedule(32, 64, 128, 16, unroll=4, vector_lanes=8)
        assert s != s._replace(unroll=8)
        assert (s._replace(tile_n=1) < s < s._replace(tile_n=65)
                < s._replace(tile_m=33, tile_n=1))
        wider = s._replace(tile_n=65)
        assert sorted([wider, s]) == [s, wider]
        assert repr(s) == ("Schedule(tile_m=32, tile_n=64, tile_k=128, "
                           "parallel_chunks=16, unroll=4, vector_lanes=8)")

    def test_pickle_round_trip(self):
        """The compile fork pool ships schedules between processes."""
        s = Schedule(tile_m=7, tile_n=9, tile_k=11, parallel_chunks=3,
                     unroll=2, vector_lanes=16)
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert type(back) is Schedule

    def test_immutable(self):
        s = Schedule(tile_m=1, tile_n=1, tile_k=1, parallel_chunks=1)
        with pytest.raises(AttributeError):
            s.tile_m = 2
        with pytest.raises(AttributeError):
            s.extra = 1

    def test_replace_and_make_validate(self):
        s = Schedule(tile_m=1, tile_n=1, tile_k=1, parallel_chunks=1)
        assert s._replace(parallel_chunks=4).parallel_chunks == 4
        assert Schedule._make((2, 2, 2, 2, 2, 2)) == (2,) * 6
        with pytest.raises(ValueError):
            s._replace(parallel_chunks=0)
        with pytest.raises(ValueError):
            Schedule._make((1, 1, 1, 1, 1, -8))

    def test_paper_metrics(self):
        s = Schedule(tile_m=32, tile_n=64, tile_k=128, parallel_chunks=16,
                     unroll=4)
        assert s.parallelism == 64
        assert s.blocking_size == 32 * 64

    def test_legality(self):
        gemm = GemmShape(16, 16, 16)
        assert Schedule(tile_m=16, tile_n=16, tile_k=16,
                        parallel_chunks=1).is_legal_for(gemm)
        assert not Schedule(tile_m=32, tile_n=16, tile_k=16,
                            parallel_chunks=1).is_legal_for(gemm)
        # Too many chunks for one tile.
        assert not Schedule(tile_m=16, tile_n=16, tile_k=16,
                            parallel_chunks=2).is_legal_for(gemm)

    @given(GEMMS)
    @settings(max_examples=60, deadline=None)
    def test_clipped_always_legal(self, gemm):
        raw = Schedule(tile_m=4096, tile_n=4096, tile_k=4096,
                       parallel_chunks=4096, unroll=16)
        assert raw.clipped_to(gemm).is_legal_for(gemm)

    def test_num_tiles(self):
        gemm = GemmShape(100, 60, 7)
        s = Schedule(tile_m=32, tile_n=32, tile_k=7, parallel_chunks=1)
        assert num_tiles(gemm, s) == 4 * 2


class TestScheduleSpace:
    def test_candidates_bounded_by_extent(self, conv_layer):
        space = ScheduleSpace.for_layer(conv_layer)
        gemm = conv_layer.gemm
        assert max(space.tile_m_candidates()) == gemm.m
        assert max(space.tile_n_candidates()) == gemm.n
        assert max(space.tile_k_candidates()) == gemm.k

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_samples_always_legal(self, seed):
        layer = Conv2D(name="c", height=14, width=14, in_channels=256,
                       out_channels=256)
        space = ScheduleSpace.for_layer(layer)
        sample = space.sample(make_rng(seed))
        assert sample.is_legal_for(layer.gemm)
        assert sample.unroll in UNROLL_CANDIDATES

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_neighbours_always_legal(self, seed):
        layer = Conv2D(name="c", height=14, width=14, in_channels=256,
                       out_channels=256)
        space = ScheduleSpace.for_layer(layer)
        rng = make_rng(seed)
        schedule = space.sample(rng)
        for _ in range(5):
            schedule = space.neighbours(schedule, rng)
            assert schedule.is_legal_for(layer.gemm)

    def test_sample_many_unique(self, conv_layer):
        space = ScheduleSpace.for_layer(conv_layer)
        samples = space.sample_many(100, make_rng(0))
        assert len(samples) == len(set(samples))

    def test_default_schedule_legal(self, small_layers):
        for layer in small_layers:
            space = ScheduleSpace.for_layer(layer)
            schedule = space.make(tile_m=64, tile_n=64, tile_k=256,
                                  parallel_chunks=64, unroll=4)
            assert schedule.is_legal_for(layer.gemm)

    def test_make_clips(self, conv_layer):
        space = ScheduleSpace.for_layer(conv_layer)
        schedule = space.make(10_000, 10_000, 10_000, 10_000)
        assert schedule.is_legal_for(conv_layer.gemm)

    def test_space_size_positive(self, conv_layer):
        assert ScheduleSpace.for_layer(conv_layer).size() > 100
