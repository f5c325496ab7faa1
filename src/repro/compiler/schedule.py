"""Loop-nest schedules and their parallelism / locality metrics.

A :class:`Schedule` captures the CPU code-generation knobs the paper
considers (Sec. 2.2): LLC-level loop blocking (``tile_m/n/k``), the number
of independent parallel chunks the outer loop is split into
(``parallel_chunks``), the inner-loop unroll factor, and the SIMD vector
width.

The two scalar metrics of paper Sec. 4.1 are exposed directly:

* ``parallelism``  = unroll factor x parallelization factor,
* ``blocking_size`` (the locality metric) = the tile's element area.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.models.layers import GemmShape

#: AVX2 single-precision lanes — the paper's platform runs AVX2.
DEFAULT_VECTOR_LANES = 8


class _ScheduleFields(NamedTuple):
    # A NamedTuple body cannot override ``__new__``, so the validating
    # constructor lives on the subclass.
    tile_m: int
    tile_n: int
    tile_k: int
    parallel_chunks: int
    unroll: int = 4
    vector_lanes: int = DEFAULT_VECTOR_LANES


class Schedule(_ScheduleFields):
    """One concrete code version for a layer's implicit GEMM.

    A tuple-backed record, so hashing and equality run in C on every
    pricing, plan and cost-model key that holds a version; ``hash(s)``
    is the hash of its field tuple.  Every field must be positive, and
    every way of making one checks it: the constructor, ``_make``,
    ``_replace`` (which goes through ``_make``) and unpickling.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Schedule":
        self = super().__new__(cls, *args, **kwargs)
        if min(self) <= 0:
            raise ValueError(f"schedule fields must be positive: {self}")
        return self

    @classmethod
    def _make(cls, iterable) -> "Schedule":
        return cls(*iterable)

    # -- paper metrics -------------------------------------------------------

    @property
    def parallelism(self) -> int:
        """Paper Sec. 4.1: unrolling factor x parallelization factor."""
        return self.unroll * self.parallel_chunks

    @property
    def blocking_size(self) -> int:
        """Paper Sec. 4.1 locality metric: the blocking (tile) size."""
        return self.tile_m * self.tile_n

    # -- legality ------------------------------------------------------------

    def is_legal_for(self, gemm: GemmShape) -> bool:
        """A schedule is legal when tiles fit the iteration space and the
        parallel chunk count does not exceed the number of tiles."""
        if self.tile_m > gemm.m or self.tile_n > gemm.n or self.tile_k > gemm.k:
            return False
        return self.parallel_chunks <= num_tiles(gemm, self)

    def clipped_to(self, gemm: GemmShape) -> "Schedule":
        """Return the nearest legal schedule for ``gemm``."""
        tile_m = min(self.tile_m, gemm.m)
        tile_n = min(self.tile_n, gemm.n)
        tile_k = min(self.tile_k, gemm.k)
        tiles = (math.ceil(gemm.m / tile_m) * math.ceil(gemm.n / tile_n))
        return Schedule(
            tile_m=tile_m,
            tile_n=tile_n,
            tile_k=tile_k,
            parallel_chunks=max(1, min(self.parallel_chunks, tiles)),
            unroll=self.unroll,
            vector_lanes=self.vector_lanes,
        )


def num_tiles(gemm: GemmShape, schedule: Schedule) -> int:
    """Number of output tiles — the natural parallel work units."""
    return (math.ceil(gemm.m / schedule.tile_m)
            * math.ceil(gemm.n / schedule.tile_n))
