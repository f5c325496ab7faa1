"""Layer specification math tests."""

import pytest

from repro.config import FP32_BYTES
from repro.models.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Elementwise,
    GemmShape,
    Pool,
    fused,
)


class TestGemmShape:
    def test_flops_is_2mnk(self):
        assert GemmShape(4, 5, 6).flops == 2 * 4 * 5 * 6

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            GemmShape(0, 5, 6)


class TestConv2D:
    def test_gemm_lowering(self):
        conv = Conv2D(name="c", height=14, width=14, in_channels=256,
                      out_channels=512, kernel_h=3, kernel_w=3)
        assert conv.gemm == GemmShape(m=196, n=512, k=256 * 9)

    def test_flops_hand_calculation(self):
        conv = Conv2D(name="c", height=14, width=14, in_channels=256,
                      out_channels=512)
        assert conv.flops == 2 * 14 * 14 * 512 * 256 * 9

    def test_strided_output_size(self):
        conv = Conv2D(name="c", height=224, width=224, in_channels=3,
                      out_channels=64, kernel_h=7, kernel_w=7, stride=2)
        assert conv.gemm.m == 112 * 112
        assert conv.output_bytes == 112 * 112 * 64 * FP32_BYTES

    def test_byte_counts(self):
        conv = Conv2D(name="c", height=8, width=8, in_channels=4,
                      out_channels=16, kernel_h=1, kernel_w=1)
        assert conv.input_bytes == 8 * 8 * 4 * FP32_BYTES
        assert conv.output_bytes == 8 * 8 * 16 * FP32_BYTES
        assert conv.weight_bytes == 4 * 16 * FP32_BYTES

    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            Conv2D(name="c", height=8, width=8, in_channels=0,
                   out_channels=16)


class TestDepthwiseConv2D:
    def test_flops_hand_calculation(self):
        dw = DepthwiseConv2D(name="d", height=56, width=56, channels=32)
        assert dw.flops == 2 * 56 * 56 * 32 * 9

    def test_channels_folded_into_m(self):
        dw = DepthwiseConv2D(name="d", height=14, width=14, channels=64)
        assert dw.gemm.m == 14 * 14 * 64
        assert dw.gemm.n == 1


class TestDense:
    def test_gemm_passthrough(self):
        fc = Dense(name="f", m=1, n=1000, k=2048)
        assert fc.gemm == GemmShape(1, 1000, 2048)
        assert fc.flops == 2 * 1000 * 2048

    def test_weight_bytes(self):
        fc = Dense(name="f", m=1, n=10, k=20)
        assert fc.weight_bytes == 10 * 20 * FP32_BYTES


class TestPool:
    def test_output_shrinks_by_stride(self):
        pool = Pool(name="p", height=112, width=112, channels=64,
                    kernel=3, stride=2)
        assert pool.gemm.m == 56 * 56 * 64
        assert pool.weight_bytes == 0


class TestElementwise:
    def test_flops_scale_with_ops(self):
        ew = Elementwise(name="e", elements=1000, ops_per_element=4)
        assert ew.flops == 4000

    def test_residual_reads_two_inputs(self):
        add = Elementwise(name="a", elements=100, reads_second_input=True)
        assert add.input_bytes == 2 * 100 * FP32_BYTES

    def test_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            Elementwise(name="e", elements=0)


class TestFusedLayer:
    def _fused(self):
        conv = Conv2D(name="c", height=8, width=8, in_channels=4,
                      out_channels=8, kernel_h=1, kernel_w=1)
        relu = Elementwise(name="c.relu", elements=8 * 8 * 8)
        return conv, relu, fused(conv, (relu,))

    def test_keeps_anchor_gemm(self):
        conv, _, layer = self._fused()
        assert layer.gemm == conv.gemm
        assert layer.kind == "Conv2D"

    def test_adds_epilogue_flops(self):
        conv, relu, layer = self._fused()
        assert layer.flops == conv.flops + relu.flops

    def test_rejects_non_elementwise_epilogue(self):
        conv, _, _ = self._fused()
        with pytest.raises(ValueError):
            fused(conv, (conv,))

    def test_residual_epilogue_adds_second_input(self):
        conv, _, _ = self._fused()
        add = Elementwise(name="c.add", elements=8 * 8 * 8,
                          reads_second_input=True)
        layer = fused(conv, (add,))
        assert layer.input_bytes == conv.input_bytes + 8 * 8 * 8 * FP32_BYTES


class TestSignature:
    def test_same_shape_same_signature(self):
        a = Conv2D(name="a", height=14, width=14, in_channels=64,
                   out_channels=64)
        b = Conv2D(name="b", height=14, width=14, in_channels=64,
                   out_channels=64)
        assert a.signature == b.signature

    def test_different_kind_different_signature(self):
        conv = Conv2D(name="a", height=4, width=4, in_channels=2,
                      out_channels=2, kernel_h=1, kernel_w=1)
        pool = Pool(name="b", height=4, width=4, channels=2)
        assert conv.signature != pool.signature
