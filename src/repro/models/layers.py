"""Layer specifications and their arithmetic/footprint math.

A :class:`LayerSpec` is the unit the compiler schedules and the runtime
allocates cores to.  Every concrete layer reduces to an *implicit GEMM*
shape ``(M, N, K)`` — the standard lowering used by CPU DNN compilers —
which the schedule space (tiling, parallel chunking) operates on:

* ``Conv2D``   -> ``M = H_out * W_out``, ``N = C_out``, ``K = C_in * KH * KW``
* ``DepthwiseConv2D`` -> per-channel small GEMMs folded into one shape
* ``Dense``    -> the GEMM itself
* ``Pool`` / ``Elementwise`` -> memory-bound pseudo-GEMMs (tiny K)

Flop counts use the multiply-accumulate = 2 flops convention, matching how
MLPerf and the paper quote model complexity (ResNet-50 ~8.2 GFLOPs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Base class for all layer specifications.

    Subclasses must populate :attr:`gemm` and the I/O byte counts; the rest
    of the library only consumes the base interface, so adding a new layer
    kind never touches the compiler or the schedulers.
    """

    name: str

    @property
    def kind(self) -> str:
        return type(self).__name__

    # -- interface ---------------------------------------------------------

    @property
    def gemm(self) -> GemmShape:
        raise NotImplementedError

    @property
    def input_bytes(self) -> int:
        raise NotImplementedError

    @property
    def output_bytes(self) -> int:
        raise NotImplementedError

    @property
    def weight_bytes(self) -> int:
        return 0

    # -- derived quantities --------------------------------------------------

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
    def flops(self) -> int:
        """Total floating-point operations for one inference of this layer."""
        return self.gemm.flops

    @property
    def data_bytes(self) -> int:
        """Compulsory traffic: inputs + outputs + weights, each touched once."""
        return self.input_bytes + self.output_bytes + self.weight_bytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per compulsory byte; low values mean memory-bound layers."""
        return self.flops / max(1, self.data_bytes)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        g = self.gemm
        return f"{self.kind}({self.name}, M={g.m}, N={g.n}, K={g.k})"


@dataclass(frozen=True)
class Conv2D(LayerSpec):
    """Standard 2-D convolution (NCHW, unit batch as in MLPerf server runs)."""

    height: int
    width: int
    in_channels: int
    out_channels: int
    kernel_h: int = 3
    kernel_w: int = 3
    stride: int = 1
    padding: int | None = None  # None = "same"-style (preserves size / stride)

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.in_channels, self.out_channels,
               self.kernel_h, self.kernel_w, self.stride) <= 0:
            raise ValueError(f"conv dimensions must be positive: {self.name}")

    @property
    def out_height(self) -> int:
        return max(1, math.ceil(self.height / self.stride))

    @property
    def out_width(self) -> int:
        return max(1, math.ceil(self.width / self.stride))

    @property
    def gemm(self) -> GemmShape:
        return GemmShape(
            m=self.out_height * self.out_width,
            n=self.out_channels,
            k=self.in_channels * self.kernel_h * self.kernel_w,
        )

    @property
    def input_bytes(self) -> int:
        return self.height * self.width * self.in_channels * FP32_BYTES

    @property
    def output_bytes(self) -> int:
        return self.out_height * self.out_width * self.out_channels * FP32_BYTES

    @property
    def weight_bytes(self) -> int:
        return (self.kernel_h * self.kernel_w * self.in_channels
                * self.out_channels * FP32_BYTES)


@dataclass(frozen=True)
class DepthwiseConv2D(LayerSpec):
    """Depthwise convolution (MobileNet / EfficientNet building block)."""

    height: int
    width: int
    channels: int
    kernel_h: int = 3
    kernel_w: int = 3
    stride: int = 1

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.channels,
               self.kernel_h, self.kernel_w, self.stride) <= 0:
            raise ValueError(f"dwconv dimensions must be positive: {self.name}")

    @property
    def out_height(self) -> int:
        return max(1, math.ceil(self.height / self.stride))

    @property
    def out_width(self) -> int:
        return max(1, math.ceil(self.width / self.stride))

    @property
    def gemm(self) -> GemmShape:
        # One tiny GEMM per channel; fold channels into M so the schedule
        # space sees the real amount of parallel work but a small K (which is
        # what makes depthwise layers memory-bound in practice).
        return GemmShape(
            m=self.out_height * self.out_width * self.channels,
            n=1,
            k=self.kernel_h * self.kernel_w,
        )

    @property
    def input_bytes(self) -> int:
        return self.height * self.width * self.channels * FP32_BYTES

    @property
    def output_bytes(self) -> int:
        return self.out_height * self.out_width * self.channels * FP32_BYTES

    @property
    def weight_bytes(self) -> int:
        return self.kernel_h * self.kernel_w * self.channels * FP32_BYTES


@dataclass(frozen=True)
class Dense(LayerSpec):
    """Fully-connected layer / plain GEMM (classifier heads, transformers)."""

    m: int
    n: int
    k: int

    @property
    def gemm(self) -> GemmShape:
        return GemmShape(self.m, self.n, self.k)

    @property
    def input_bytes(self) -> int:
        return self.m * self.k * FP32_BYTES

    @property
    def output_bytes(self) -> int:
        return self.m * self.n * FP32_BYTES

    @property
    def weight_bytes(self) -> int:
        return self.k * self.n * FP32_BYTES


@dataclass(frozen=True)
class Pool(LayerSpec):
    """Max/average pooling; memory-bound, negligible weights."""

    height: int
    width: int
    channels: int
    kernel: int = 2
    stride: int = 2

    def __post_init__(self) -> None:
        if min(self.height, self.width, self.channels,
               self.kernel, self.stride) <= 0:
            raise ValueError(f"pool dimensions must be positive: {self.name}")

    @property
    def out_height(self) -> int:
        return max(1, math.ceil(self.height / self.stride))

    @property
    def out_width(self) -> int:
        return max(1, math.ceil(self.width / self.stride))

    @property
    def gemm(self) -> GemmShape:
        return GemmShape(
            m=self.out_height * self.out_width * self.channels,
            n=1,
            k=self.kernel * self.kernel,
        )

    @property
    def input_bytes(self) -> int:
        return self.height * self.width * self.channels * FP32_BYTES

    @property
    def output_bytes(self) -> int:
        return self.out_height * self.out_width * self.channels * FP32_BYTES


@dataclass(frozen=True)
class Elementwise(LayerSpec):
    """Pointwise op over a tensor (ReLU, batch-norm inference, residual add,
    softmax row pass...).  ``ops_per_element`` scales the flop estimate."""

    elements: int
    ops_per_element: int = 1
    reads_second_input: bool = False  # residual adds read two tensors

    def __post_init__(self) -> None:
        if self.elements <= 0:
            raise ValueError(f"elementwise size must be positive: {self.name}")
        if self.ops_per_element <= 0:
            raise ValueError(f"ops_per_element must be positive: {self.name}")

    @property
    def gemm(self) -> GemmShape:
        return GemmShape(m=self.elements, n=1, k=self.ops_per_element)

    @property
    def flops(self) -> int:
        return self.elements * self.ops_per_element

    @property
    def input_bytes(self) -> int:
        factor = 2 if self.reads_second_input else 1
        return factor * self.elements * FP32_BYTES

    @property
    def output_bytes(self) -> int:
        return self.elements * FP32_BYTES


@dataclass(frozen=True)
class BatchedLayer(LayerSpec):
    """``batch`` independent instances of ``base`` as one fused kernel.

    The zoo is unit-batch (MLPerf server runs); when the runtime fuses a
    dynamic batch of same-model queries into one block stream, each
    layer's batch dim folds into the implicit-GEMM ``M`` (``batch``
    times the rows — the standard batched-conv lowering), activation
    traffic scales with the batch, and the *weight* tensor is shared —
    the reuse that makes batching pay.  The compiled unit-batch
    :class:`~repro.compiler.schedule.Schedule` versions stay valid
    (tiles clip to the larger GEMM), so batching never recompiles.
    """

    base: LayerSpec
    batch: int

    def __post_init__(self) -> None:
        if self.batch < 2:
            raise ValueError(f"batch must be >= 2, got {self.batch}")
        if isinstance(self.base, BatchedLayer):
            raise ValueError("cannot batch an already-batched layer")

    @property
    def kind(self) -> str:
        return self.base.kind

    @property
    def gemm(self) -> GemmShape:
        g = self.base.gemm
        return GemmShape(m=g.m * self.batch, n=g.n, k=g.k)

    @property
    def flops(self) -> int:
        return self.base.flops * self.batch

    @property
    def input_bytes(self) -> int:
        return self.base.input_bytes * self.batch

    @property
    def output_bytes(self) -> int:
        return self.base.output_bytes * self.batch

    @property
    def weight_bytes(self) -> int:
        return self.base.weight_bytes


def batched(layer: LayerSpec, batch: int) -> LayerSpec:
    """``layer`` at dynamic batch ``batch`` (identity for batch 1)."""
    if batch <= 1:
        return layer
    return BatchedLayer(name=f"{layer.name}x{batch}", base=layer,
                        batch=batch)


#: Layer kinds that a preceding compute layer can absorb (epilogue fusion);
#: mirrors the conv-relu / conv-batchnorm-relu patterns of paper Alg. 1.
FUSABLE_KINDS = ("Elementwise",)


@dataclass(frozen=True)
class FusedLayer(LayerSpec):
    """A compute layer with fused element-wise epilogues.

    The fused unit keeps the anchor's GEMM shape (the epilogue does not
    change the loop nest) while adding the epilogue flops and dropping the
    intermediate tensor traffic — which is exactly why compilers fuse.
    """

    anchor: LayerSpec
    epilogues: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for ep in self.epilogues:
            if ep.kind not in FUSABLE_KINDS:
                raise ValueError(
                    f"cannot fuse {ep.kind} into {self.anchor.kind}")

    @property
    def kind(self) -> str:
        return self.anchor.kind

    @property
    def gemm(self) -> GemmShape:
        return self.anchor.gemm

    @property
    def flops(self) -> int:
        return self.anchor.flops + sum(ep.flops for ep in self.epilogues)

    @property
    def input_bytes(self) -> int:
        extra = sum(ep.input_bytes - ep.elements * FP32_BYTES
                    for ep in self.epilogues
                    if isinstance(ep, Elementwise) and ep.reads_second_input)
        return self.anchor.input_bytes + extra

    @property
    def output_bytes(self) -> int:
        if self.epilogues:
            return self.epilogues[-1].output_bytes
        return self.anchor.output_bytes

    @property
    def weight_bytes(self) -> int:
        return self.anchor.weight_bytes
