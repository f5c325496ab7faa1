"""Layer specifications and their arithmetic/footprint math.

A :class:`LayerSpec` is the unit the compiler schedules and the runtime
allocates cores to.  Every concrete layer reduces to an *implicit GEMM*
shape ``(M, N, K)`` — the standard lowering used by CPU DNN compilers —
which the schedule space (tiling, parallel chunking) operates on:

* ``Conv2D``   -> ``M = H_out * W_out``, ``N = C_out``, ``K = C_in * KH * KW``
* ``DepthwiseConv2D`` -> per-channel small GEMMs folded into one shape
* ``Dense``    -> the GEMM itself
* ``Pool`` / ``Elementwise`` -> memory-bound pseudo-GEMMs (tiny K)

Each kind is a constructor that validates its parameters and computes the
record's shape, flops and byte counts once; the record is a plain value
from then on, so reading a field never re-derives it.  :func:`batched`
and :func:`fused` derive new records from existing ones the same way.

Flop counts use the multiply-accumulate = 2 flops convention, matching how
MLPerf and the paper quote model complexity (ResNet-50 ~8.2 GFLOPs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.config import FP32_BYTES


@dataclass(frozen=True)
class GemmShape:
    """Implicit-GEMM view of a layer: C[M, N] += A[M, K] @ B[K, N]."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> int:
        return 2 * self.m * self.n * self.k


@dataclass(frozen=True)
class LayerSpec:
    """One layer as the compiler, cost model and runtime see it.

    ``kind`` names the constructor that built the record (``"Conv2D"``,
    ``"Elementwise"``, ...); ``flops`` is one inference's floating-point
    operations and the byte counts are its compulsory traffic.  The rest
    of the library only reads these fields, so adding a new layer kind
    is one more constructor and never touches the compiler or the
    schedulers.
    """

    name: str
    kind: str
    gemm: GemmShape
    flops: int
    input_bytes: int
    output_bytes: int
    weight_bytes: int = 0

    @property
    def signature(self) -> tuple:
        """Shape identity used to share compilation results across layers.

        Two layers with equal signatures behave identically under the cost
        model, so compiled version tables can be reused between them (and
        across models).
        """
        g = self.gemm
        return (self.kind, g.m, g.n, g.k, self.flops,
                self.input_bytes, self.weight_bytes, self.output_bytes)

    @property
    def data_bytes(self) -> int:
        """Compulsory traffic: inputs + outputs + weights, each touched once."""
        return self.input_bytes + self.output_bytes + self.weight_bytes

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        g = self.gemm
        return f"{self.kind}({self.name}, M={g.m}, N={g.n}, K={g.k})"


def _out_size(size: int, stride: int) -> int:
    """Output extent of a "same"-style window (preserves size / stride)."""
    return max(1, math.ceil(size / stride))


def _window(kind: str, name: str, height: int, width: int, channels: int,
            k: int, stride: int, weight_bytes: int = 0) -> LayerSpec:
    """A per-channel windowed layer: channels fold into ``M``, ``N == 1``."""
    out = _out_size(height, stride) * _out_size(width, stride) * channels
    gemm = GemmShape(m=out, n=1, k=k)
    return LayerSpec(name, kind, gemm, gemm.flops,
                     input_bytes=height * width * channels * FP32_BYTES,
                     output_bytes=out * FP32_BYTES,
                     weight_bytes=weight_bytes)


def Conv2D(name: str, height: int, width: int, in_channels: int,
           out_channels: int, kernel_h: int = 3, kernel_w: int = 3,
           stride: int = 1) -> LayerSpec:
    """Standard 2-D convolution (NCHW, unit batch as in MLPerf server runs).

    The output is "same"-style: each spatial extent becomes
    ``ceil(size / stride)``.
    """
    if min(height, width, in_channels, out_channels,
           kernel_h, kernel_w, stride) <= 0:
        raise ValueError(f"conv dimensions must be positive: {name}")
    out = _out_size(height, stride) * _out_size(width, stride)
    gemm = GemmShape(m=out, n=out_channels,
                     k=in_channels * kernel_h * kernel_w)
    return LayerSpec(
        name, "Conv2D", gemm, gemm.flops,
        input_bytes=height * width * in_channels * FP32_BYTES,
        output_bytes=out * out_channels * FP32_BYTES,
        weight_bytes=(kernel_h * kernel_w * in_channels * out_channels
                      * FP32_BYTES))


def DepthwiseConv2D(name: str, height: int, width: int, channels: int,
                    kernel_h: int = 3, kernel_w: int = 3,
                    stride: int = 1) -> LayerSpec:
    """Depthwise convolution (MobileNet / EfficientNet building block).

    One tiny GEMM per channel; channels fold into M so the schedule space
    sees the real amount of parallel work but a small K (which is what
    makes depthwise layers memory-bound in practice).
    """
    if min(height, width, channels, kernel_h, kernel_w, stride) <= 0:
        raise ValueError(f"dwconv dimensions must be positive: {name}")
    return _window("DepthwiseConv2D", name, height, width, channels,
                   kernel_h * kernel_w, stride,
                   weight_bytes=kernel_h * kernel_w * channels * FP32_BYTES)


def Dense(name: str, m: int, n: int, k: int) -> LayerSpec:
    """Fully-connected layer / plain GEMM (classifier heads, transformers)."""
    gemm = GemmShape(m, n, k)
    return LayerSpec(name, "Dense", gemm, gemm.flops,
                     input_bytes=m * k * FP32_BYTES,
                     output_bytes=m * n * FP32_BYTES,
                     weight_bytes=k * n * FP32_BYTES)


def Pool(name: str, height: int, width: int, channels: int,
         kernel: int = 2, stride: int = 2) -> LayerSpec:
    """Max/average pooling; memory-bound, negligible weights."""
    if min(height, width, channels, kernel, stride) <= 0:
        raise ValueError(f"pool dimensions must be positive: {name}")
    return _window("Pool", name, height, width, channels,
                   kernel * kernel, stride)


def Elementwise(name: str, elements: int, ops_per_element: int = 1,
                reads_second_input: bool = False) -> LayerSpec:
    """Pointwise op over a tensor (ReLU, batch-norm inference, residual add,
    softmax row pass...).  ``ops_per_element`` scales the flop estimate;
    residual adds set ``reads_second_input`` (they read two tensors)."""
    if elements <= 0:
        raise ValueError(f"elementwise size must be positive: {name}")
    if ops_per_element <= 0:
        raise ValueError(f"ops_per_element must be positive: {name}")
    factor = 2 if reads_second_input else 1
    return LayerSpec(name, "Elementwise",
                     GemmShape(m=elements, n=1, k=ops_per_element),
                     elements * ops_per_element,
                     input_bytes=factor * elements * FP32_BYTES,
                     output_bytes=elements * FP32_BYTES)


def batched(layer: LayerSpec, batch: int) -> LayerSpec:
    """``layer`` at dynamic batch ``batch`` (identity for batch 1).

    The zoo is unit-batch (MLPerf server runs); when the runtime fuses a
    dynamic batch of same-model queries into one block stream, each
    layer's batch dim folds into the implicit-GEMM ``M`` (``batch``
    times the rows — the standard batched-conv lowering), activation
    traffic scales with the batch, and the *weight* tensor is shared —
    the reuse that makes batching pay.  The compiled unit-batch
    :class:`~repro.compiler.schedule.Schedule` versions stay valid
    (tiles clip to the larger GEMM), so batching never recompiles.
    """
    if batch <= 1:
        return layer
    g = layer.gemm
    return replace(layer, name=f"{layer.name}x{batch}",
                   gemm=GemmShape(m=g.m * batch, n=g.n, k=g.k),
                   flops=layer.flops * batch,
                   input_bytes=layer.input_bytes * batch,
                   output_bytes=layer.output_bytes * batch)


#: Layer kinds that a preceding compute layer can absorb (epilogue fusion);
#: mirrors the conv-relu / conv-batchnorm-relu patterns of paper Alg. 1.
FUSABLE_KINDS = ("Elementwise",)


def fused(anchor: LayerSpec, epilogues: tuple[LayerSpec, ...]) -> LayerSpec:
    """A compute layer with fused element-wise epilogues.

    The fused unit keeps the anchor's name, kind, GEMM shape and weights
    (the epilogue does not change the loop nest) while adding the
    epilogue flops, the extra tensors the epilogues read (a residual
    add's second input) and dropping the intermediate tensor traffic —
    which is exactly why compilers fuse.
    """
    for ep in epilogues:
        if ep.kind not in FUSABLE_KINDS:
            raise ValueError(f"cannot fuse {ep.kind} into {anchor.kind}")
    return replace(
        anchor,
        flops=anchor.flops + sum(ep.flops for ep in epilogues),
        input_bytes=anchor.input_bytes + sum(
            ep.input_bytes - ep.output_bytes for ep in epilogues),
        output_bytes=(epilogues[-1].output_bytes if epilogues
                      else anchor.output_bytes))
