"""Fleet topology: which nodes exist, their devices, and their policies.

A :class:`ClusterSpec` is pure description — no engines, no state — so
it is cheap to build, hashable, and safe to share across processes.
Nodes may be heterogeneous (mixed :class:`CpuSpec` widths, or CPUs next
to :class:`AcceleratorSpec` members) and may run different scheduling
policies; the serving artifacts behind them are always the *one* compile
pass owned by the :class:`ServingStack`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.platform import (
    DATACENTER_ACCEL_80,
    EDGE_NODE_32,
    PRODUCTION_SERVER_256,
    THREADRIPPER_3990X,
    DeviceSpec,
)

#: Default per-node scheduling policy.
DEFAULT_NODE_POLICY = "veltair_full"


@dataclass(frozen=True)
class NodeSpec:
    """One serving node: a device plus the local scheduling policy."""

    name: str
    device: DeviceSpec
    policy: str = DEFAULT_NODE_POLICY

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")

    @property
    def cores(self) -> int:
        return self.device.cores

    @property
    def device_kind(self) -> str:
        return getattr(self.device, "kind", "cpu")


@dataclass(frozen=True)
class ClusterSpec:
    """A named, ordered fleet of nodes."""

    name: str
    nodes: tuple[NodeSpec, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError(f"cluster {self.name!r} has no nodes")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"cluster {self.name!r} has duplicate node "
                             f"names: {names}")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.nodes)

    @property
    def device_specs(self) -> tuple[DeviceSpec, ...]:
        """Distinct device specs in fleet order (runtime-sharing groups).

        One membership probe per node against a seen-set — O(nodes) —
        where the old list scan went quadratic on large autoscaled
        fleets.
        """
        distinct: list[DeviceSpec] = []
        seen: set[DeviceSpec] = set()
        for node in self.nodes:
            if node.device not in seen:
                seen.add(node.device)
                distinct.append(node.device)
        return tuple(distinct)


def homogeneous(count: int, policy: str = DEFAULT_NODE_POLICY,
                name: str | None = None,
                device: DeviceSpec = THREADRIPPER_3990X) -> ClusterSpec:
    """``count`` identical nodes (default: the paper's 64-core testbed)."""
    if count <= 0:
        raise ValueError("node count must be positive")
    label = name or f"{count}x{device.cores}c"
    return ClusterSpec(
        name=label,
        nodes=tuple(NodeSpec(name=f"node{i}", device=device, policy=policy)
                    for i in range(count)))


def mixed_fleet(policy: str = DEFAULT_NODE_POLICY) -> ClusterSpec:
    """The 4-node heterogeneous reference fleet of the cluster benchmark.

    Two testbed-width nodes, one production 256-core box, and one
    32-core edge node: 416 cores total, with a 8x spread between the
    narrowest and widest member.  Width-blind routers hand the edge
    node a full quarter of the traffic and pin the fleet's capacity to
    it; width- and pressure-aware routing is what unlocks the rest.
    """
    return ClusterSpec(
        name="mixed-4",
        nodes=(
            NodeSpec(name="worker0", device=THREADRIPPER_3990X,
                     policy=policy),
            NodeSpec(name="worker1", device=THREADRIPPER_3990X,
                     policy=policy),
            NodeSpec(name="big0", device=PRODUCTION_SERVER_256,
                     policy=policy),
            NodeSpec(name="edge0", device=EDGE_NODE_32, policy=policy),
        ))


def hetero_fleet(policy: str = DEFAULT_NODE_POLICY) -> ClusterSpec:
    """The mixed CPU+accelerator reference fleet.

    Two testbed CPUs, one 80-SM accelerator, and one 32-core edge node.
    The accelerator dominates raw throughput but pays warp-width and
    occupancy penalties on skinny latency-critical models — the cost
    asymmetry the ``device_affinity`` router learns to exploit.
    """
    return ClusterSpec(
        name="hetero-4",
        nodes=(
            NodeSpec(name="worker0", device=THREADRIPPER_3990X,
                     policy=policy),
            NodeSpec(name="worker1", device=THREADRIPPER_3990X,
                     policy=policy),
            NodeSpec(name="accel0", device=DATACENTER_ACCEL_80,
                     policy=policy),
            NodeSpec(name="edge0", device=EDGE_NODE_32, policy=policy),
        ))
