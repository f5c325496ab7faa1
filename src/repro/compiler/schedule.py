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

from repro.config import FP32_BYTES
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

    # -- footprints ----------------------------------------------------------

    @property
    def tile_footprint_bytes(self) -> int:
        """Bytes one tile keeps live: A, B panels plus the C tile."""
        return FP32_BYTES * (self.tile_m * self.tile_k
                             + self.tile_k * self.tile_n
                             + self.tile_m * self.tile_n)

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


def gemm_traffic_bytes(gemm: GemmShape, tile_m: int, tile_n: int,
                       tile_k: int) -> float:
    """DRAM/next-level traffic of a tiled GEMM, in bytes.

    Classic blocked-GEMM accounting: the A panel is re-read once per column
    of tiles, the B panel once per row of tiles, and C is streamed once per
    K-pass (read + write):

    ``Q = M*K*ceil(N/tn) + K*N*ceil(M/tm) + 2*M*N*ceil(K/tk)`` elements.

    The result is floored at the compulsory traffic (each array touched
    once), which a perfect schedule achieves when its tiles span the array.
    """
    m, n, k = gemm.m, gemm.n, gemm.k
    tile_m = max(1, min(tile_m, m))
    tile_n = max(1, min(tile_n, n))
    tile_k = max(1, min(tile_k, k))
    passes_a = math.ceil(n / tile_n)
    passes_b = math.ceil(m / tile_m)
    passes_c = math.ceil(k / tile_k)
    traffic = (m * k * passes_a + k * n * passes_b + 2 * m * n * passes_c)
    compulsory = m * k + k * n + 2 * m * n
    return float(max(traffic, compulsory)) * FP32_BYTES


def fit_tiles_to_budget(tile_m: int, tile_n: int, tile_k: int,
                        budget_bytes: float,
                        floor: int = 4) -> tuple[int, int, int]:
    """Shrink the M/N tile dimensions until the footprint fits ``budget_bytes``.

    The K dimension is preserved (K-panels stream), M and N scale by the
    same factor; each dimension is floored so degenerate tiles cannot occur.
    This models what happens to an over-sized blocking when the effective
    cache share contracts under contention.
    """
    if budget_bytes <= 0:
        return floor, floor, tile_k
    footprint = FP32_BYTES * (tile_m * tile_k + tile_k * tile_n
                              + tile_m * tile_n)
    if footprint <= budget_bytes:
        return tile_m, tile_n, tile_k
    scale = budget_bytes / footprint
    new_m = max(floor, int(tile_m * scale))
    new_n = max(floor, int(tile_n * scale))
    return min(new_m, tile_m), min(new_n, tile_n), tile_k
