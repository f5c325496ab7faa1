"""DNN model substrate: layer specs, graphs, and the MLPerf-style zoo."""

from repro.models.layers import Conv2D

__all__ = ["Conv2D"]
