"""Small helpers shared by the zoo model builders.

The builders emit explicit conv / batch-norm / relu layers; callers that
want the compiler's view apply :meth:`ModelGraph.fuse_elementwise`, which
collapses the epilogues exactly like the paper's fusion-enabled
auto-scheduler run does.
"""

from __future__ import annotations

from repro.models.layers import Conv2D, DepthwiseConv2D, Elementwise, LayerSpec


class LayerBuilder:
    """Accumulates layers for a chain-style model definition."""

    def __init__(self) -> None:
        self.layers: list[LayerSpec] = []

    def add(self, layer: LayerSpec) -> LayerSpec:
        self.layers.append(layer)
        return layer

    def conv(self, name: str, size: int, c_in: int, c_out: int,
             kernel: int = 3, stride: int = 1, relu: bool = True,
             batch_norm: bool = True, width: int | None = None) -> LayerSpec:
        """Conv2D followed by optional batch-norm and ReLU epilogues."""
        conv = Conv2D(name=name, height=size, width=width or size,
                      in_channels=c_in, out_channels=c_out,
                      kernel_h=kernel, kernel_w=kernel, stride=stride)
        self.add(conv)
        out_elems = conv.gemm.m * conv.gemm.n  # H_out * W_out * C_out
        if batch_norm:
            self.add(Elementwise(name=f"{name}.bn", elements=out_elems,
                                 ops_per_element=2))
        if relu:
            self.add(Elementwise(name=f"{name}.relu", elements=out_elems))
        return conv

    def dwconv(self, name: str, size: int, channels: int, kernel: int = 3,
               stride: int = 1, relu: bool = True,
               batch_norm: bool = True) -> LayerSpec:
        """Depthwise conv followed by optional batch-norm and ReLU."""
        conv = DepthwiseConv2D(name=name, height=size, width=size,
                               channels=channels, kernel_h=kernel,
                               kernel_w=kernel, stride=stride)
        self.add(conv)
        out_elems = conv.gemm.m  # H_out * W_out * channels
        if batch_norm:
            self.add(Elementwise(name=f"{name}.bn", elements=out_elems,
                                 ops_per_element=2))
        if relu:
            self.add(Elementwise(name=f"{name}.relu", elements=out_elems))
        return conv

    def residual_add(self, name: str, elements: int,
                     relu: bool = True) -> None:
        """Residual addition (+ optional ReLU) as fusable epilogues."""
        self.add(Elementwise(name=name, elements=elements,
                             reads_second_input=True))
        if relu:
            self.add(Elementwise(name=f"{name}.relu", elements=elements))
