"""The legal schedule space of a layer, with enumeration and sampling.

Mirrors what a TVM/Ansor search sees on CPU: power-of-two tile candidates
bounded by the iteration space (plus the full extent, so a "no blocking in
this dim" point always exists), power-of-two parallel chunk counts bounded
by the tile count, and a small unroll menu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.models.layers import GemmShape, LayerSpec
from repro.compiler.schedule import Schedule

#: Unroll factors the code generator offers.
UNROLL_CANDIDATES = (1, 2, 4, 8, 16)

#: Never emit more parallel chunks than this (pragma limit).
MAX_PARALLEL_CHUNKS = 4096


def _pow2_candidates(extent: int, minimum: int = 4) -> list[int]:
    """Power-of-two values <= extent, plus the extent itself."""
    values = []
    v = minimum
    while v < extent:
        values.append(v)
        v *= 2
    values.append(extent)
    return values


@dataclass(frozen=True)
class ScheduleSpace:
    """All legal code versions of one layer's implicit GEMM."""

    gemm: GemmShape

    @classmethod
    def for_layer(cls, layer: LayerSpec) -> "ScheduleSpace":
        return cls(gemm=layer.gemm)

    def tile_m_candidates(self) -> list[int]:
        return _pow2_candidates(self.gemm.m)

    def tile_n_candidates(self) -> list[int]:
        return _pow2_candidates(self.gemm.n, minimum=1)

    def tile_k_candidates(self) -> list[int]:
        return _pow2_candidates(self.gemm.k, minimum=8)

    def parallel_candidates(self, tile_m: int, tile_n: int) -> list[int]:
        tiles = (math.ceil(self.gemm.m / tile_m)
                 * math.ceil(self.gemm.n / tile_n))
        tiles = min(tiles, MAX_PARALLEL_CHUNKS)
        return _pow2_candidates(tiles, minimum=1)

    def size(self) -> int:
        """Loose upper bound on the space cardinality (for reporting)."""
        return (len(self.tile_m_candidates()) * len(self.tile_n_candidates())
                * len(self.tile_k_candidates()) * len(UNROLL_CANDIDATES)
                * 12)

    # -- construction --------------------------------------------------------

    def make(self, tile_m: int, tile_n: int, tile_k: int,
             parallel_chunks: int, unroll: int = 4) -> Schedule:
        """Build a schedule, clipping it to legality for this layer."""
        return Schedule(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k,
                        parallel_chunks=parallel_chunks,
                        unroll=unroll).clipped_to(self.gemm)

    def sample(self, rng: np.random.Generator) -> Schedule:
        """Draw one uniformly random legal schedule."""
        tile_m = int(rng.choice(self.tile_m_candidates()))
        tile_n = int(rng.choice(self.tile_n_candidates()))
        tile_k = int(rng.choice(self.tile_k_candidates()))
        parallel = int(rng.choice(self.parallel_candidates(tile_m, tile_n)))
        unroll = int(rng.choice(UNROLL_CANDIDATES))
        return Schedule(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k,
                        parallel_chunks=parallel, unroll=unroll)

    def sample_many(self, count: int,
                    rng: np.random.Generator) -> list[Schedule]:
        """Draw ``count`` legal schedules (duplicates removed, order kept)."""
        seen: set[Schedule] = set()
        result: list[Schedule] = []
        for _ in range(count):
            candidate = self.sample(rng)
            if candidate not in seen:
                seen.add(candidate)
                result.append(candidate)
        return result

    def neighbours(self, schedule: Schedule,
                   rng: np.random.Generator) -> Schedule:
        """Mutate one knob of a schedule — the evolutionary-search move."""
        knob = rng.integers(0, 5)
        tile_m, tile_n = schedule.tile_m, schedule.tile_n
        tile_k, parallel = schedule.tile_k, schedule.parallel_chunks
        unroll = schedule.unroll
        step = 2 if rng.random() < 0.5 else 0.5
        if knob == 0:
            tile_m = max(4, min(self.gemm.m, int(tile_m * step)))
        elif knob == 1:
            tile_n = max(1, min(self.gemm.n, int(tile_n * step)))
        elif knob == 2:
            tile_k = max(8, min(self.gemm.k, int(tile_k * step)))
        elif knob == 3:
            parallel = max(1, min(MAX_PARALLEL_CHUNKS, int(parallel * step)))
        else:
            candidates = list(UNROLL_CANDIDATES)
            unroll = int(rng.choice(candidates))
        return Schedule(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k,
                        parallel_chunks=parallel,
                        unroll=unroll).clipped_to(self.gemm)
