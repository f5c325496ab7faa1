"""A vendor-library stand-in (MKL-DNN-like) for the paper's Fig. 2 baseline.

Closed vendor libraries ship a small set of hand-written kernels selected
by coarse shape heuristics — good everywhere, optimal almost nowhere.
:func:`vendor_schedule` mimics that: a fixed blocking scheme bucketed
only by coarse shape class, never tuned per layer.  The searched compiler
(:mod:`repro.compiler.autoscheduler`) should beat it consistently, which
is the paper's argument for compiler-generated code.
"""

from __future__ import annotations

from repro.models.layers import LayerSpec
from repro.compiler.schedule import Schedule


def vendor_schedule(layer: LayerSpec) -> Schedule:
    """The fixed heuristic kernel a vendor library would dispatch to."""
    gemm = layer.gemm
    if gemm.n == 1:
        # Element-wise / pooling / depthwise path: flat parallel loop.
        base = Schedule(tile_m=256, tile_n=1, tile_k=8,
                        parallel_chunks=256, unroll=4)
    elif gemm.m == 1:
        # Vector-matrix path (classifier heads).
        base = Schedule(tile_m=1, tile_n=64, tile_k=256,
                        parallel_chunks=16, unroll=4)
    else:
        # Generic blocked GEMM/conv kernel: one size fits all.  Real
        # vendor kernels also stop scaling at moderate thread counts for
        # server-size shapes (intra-op partitioning is fixed at build
        # time), hence the modest chunk count.
        base = Schedule(tile_m=32, tile_n=64, tile_k=128,
                        parallel_chunks=32, unroll=4)
    return base.clipped_to(gemm)
