"""Model graphs: ordered layer sequences with fusion and block helpers.

The paper schedules DNNs as *sequences* of layers (blocks are contiguous
runs in execution order), so :class:`ModelGraph` stores layers in a fixed
topological order.  Models with branches (GoogLeNet inception modules, SSD
heads) list their branch layers in the linearised order they execute in,
which matches the paper's treatment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.layers import FUSABLE_KINDS, LayerSpec, fused


@dataclass(frozen=True)
class ModelGraph:
    """An inference model: a name plus its layers in execution order."""

    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"model {self.name!r} has no layers")

    # -- aggregate quantities ------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    @property
    def flops(self) -> int:
        """Total flops of one inference."""
        return sum(layer.flops for layer in self.layers)

    @property
    def weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    def op_fractions(self) -> list[float]:
        """Each layer's share of the model's flops.

        Used by paper Alg. 1 line 3 to split the model QoS target into
        per-layer latency budgets proportional to op count.
        """
        total = self.flops
        return [layer.flops / total for layer in self.layers]

    # -- transforms ----------------------------------------------------------

    def fuse_elementwise(self) -> "ModelGraph":
        """Fuse element-wise epilogues into the preceding compute layer.

        Mirrors the operator-fusion patterns the paper enables in the
        auto-scheduler (conv-relu, conv-batchnorm-relu).
        """
        out: list[LayerSpec] = []
        for layer in self.layers:
            if (layer.kind in FUSABLE_KINDS and out
                    and out[-1].kind not in FUSABLE_KINDS):
                out[-1] = fused(out[-1], (layer,))
            else:
                out.append(layer)  # a compute layer or an orphan elementwise
        return ModelGraph(name=self.name, layers=tuple(out))


def chain(name: str, layers: list[LayerSpec]) -> ModelGraph:
    """Convenience constructor for a branch-free model."""
    return ModelGraph(name=name, layers=tuple(layers))
