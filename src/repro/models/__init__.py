"""DNN model substrate: layer specs, graphs, and the MLPerf-style zoo."""

from repro.models.graph import ModelGraph, chain
from repro.models.layers import (
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Elementwise,
    GemmShape,
    LayerSpec,
    Pool,
    fused,
)
from repro.models.registry import (
    HEAVY,
    LIGHT,
    MEDIUM,
    ModelEntry,
    get_entry,
    get_model,
    model_names,
)

__all__ = [
    "Conv2D", "Dense", "DepthwiseConv2D", "Elementwise", "GemmShape",
    "LayerSpec", "Pool", "fused", "ModelGraph", "chain",
    "ModelEntry", "get_entry", "get_model", "model_names",
    "LIGHT", "MEDIUM", "HEAVY",
]
