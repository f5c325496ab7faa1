"""Model graphs: ordered layer sequences with fusion and block helpers.

The paper schedules DNNs as *sequences* of layers (blocks are contiguous
runs in execution order), so :class:`ModelGraph` stores layers in a fixed
topological order.  Optional DAG edges are retained for models with branches
(GoogLeNet inception modules, SSD heads); branch layers are executed in the
linearised order, which matches the paper's treatment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.layers import FUSABLE_KINDS, FusedLayer, LayerSpec


@dataclass(frozen=True)
class ModelGraph:
    """An inference model: a name plus its layers in execution order.

    ``edges`` holds (producer_index, consumer_index) pairs; when empty, a
    pure chain is implied.  Layer indices always refer to positions in
    :attr:`layers`.
    """

    name: str
    layers: tuple[LayerSpec, ...]
    edges: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"model {self.name!r} has no layers")
        n = len(self.layers)
        for src, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) out of range for "
                                 f"{n}-layer model {self.name!r}")
            if src >= dst:
                raise ValueError(
                    f"edge ({src}, {dst}) violates topological order")

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
        auto-scheduler (conv-relu, conv-batchnorm-relu).  Only chains are
        fused: an element-wise layer that is a branch target (has an edge
        from anywhere but its direct predecessor) is kept standalone so the
        DAG structure survives.
        """
        branch_targets = {dst for src, dst in self.edges if dst != src + 1}
        fused: list[LayerSpec] = []
        pending: list[LayerSpec] = []
        anchor: LayerSpec | None = None

        def flush() -> None:
            nonlocal anchor, pending
            if anchor is not None:
                if pending:
                    fused.append(FusedLayer(
                        name=anchor.name,
                        anchor=anchor,
                        epilogues=tuple(pending),
                    ))
                else:
                    fused.append(anchor)
            anchor, pending = None, []

        for idx, layer in enumerate(self.layers):
            fusable_here = (layer.kind in FUSABLE_KINDS
                            and anchor is not None
                            and idx not in branch_targets)
            if fusable_here:
                pending.append(layer)
            else:
                flush()
                if layer.kind in FUSABLE_KINDS:
                    fused.append(layer)  # orphan elementwise stays standalone
                else:
                    anchor = layer
        flush()
        return ModelGraph(name=self.name, layers=tuple(fused))


def chain(name: str, layers: list[LayerSpec]) -> ModelGraph:
    """Convenience constructor for a branch-free model."""
    return ModelGraph(name=name, layers=tuple(layers))
