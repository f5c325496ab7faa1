"""Fleet admission control: shed or defer load past a pressure bound.

A single VELTAIR node degrades gracefully under overload — queries queue
and miss QoS.  A *fleet* can do better: when every node is saturated,
admitting more work only converts future capacity into guaranteed QoS
violations, so the front door either sheds the query (fail fast, let
the client retry elsewhere) or defers it briefly (ride out a burst).
The overload signal is the same interference estimate the
``pressure_aware`` router uses, aggregated core-weighted over the
fleet, plus a backlog bound in queries per core.

Under an autoscaled fleet the controller is always handed the *live*
(routable) membership only: warming nodes cannot absorb an admitted
query yet and draining nodes are leaving, so neither may count toward
the capacity the fleet claims at the front door.  (The autoscale
control loop reuses :func:`fleet_pressure` /
:func:`fleet_outstanding_per_core` over the same live set.)
"""

from __future__ import annotations

from dataclasses import dataclass

#: Admission decisions.
ADMIT = "admit"
DEFER = "defer"
SHED = "shed"


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds past which the fleet stops accepting new work.

    ``max_fleet_pressure`` caps the core-weighted mean interference
    estimate; ``max_outstanding_per_core`` caps fleet backlog (in-flight
    queries per physical core).  Crossing *either* bound trips the
    controller.  ``mode`` picks the reaction: ``"shed"`` rejects
    immediately; ``"defer"`` re-offers the query ``defer_s`` later, up
    to ``max_defers`` times, then sheds.  Deferral never moves the
    query's QoS deadline — latency keeps counting from the original
    arrival, exactly as a client-visible queueing delay would.
    """

    max_fleet_pressure: float = 0.85
    max_outstanding_per_core: float = 0.25
    mode: str = SHED
    defer_s: float = 0.010
    max_defers: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_fleet_pressure <= 1.0:
            raise ValueError("max_fleet_pressure must be in [0, 1]")
        if not self.max_outstanding_per_core >= 0.0:
            raise ValueError("max_outstanding_per_core must be >= 0")
        if self.mode not in (SHED, DEFER):
            raise ValueError(f"mode must be {SHED!r} or {DEFER!r}")
        if not self.defer_s > 0.0:
            raise ValueError("defer_s must be positive")
        if not self.max_defers >= 0:
            raise ValueError("max_defers must be >= 0")


def fleet_pressure(nodes) -> float:
    """Core-weighted mean of the per-node interference estimates."""
    total_cores = sum(node.cores for node in nodes)
    if total_cores <= 0:
        return 0.0
    weighted = sum(node.pressure_estimate() * node.cores for node in nodes)
    return weighted / total_cores


def fleet_outstanding_per_core(nodes) -> float:
    """Fleet in-flight queries per physical core (backlog density)."""
    total_cores = sum(node.cores for node in nodes)
    if total_cores <= 0:
        return 0.0
    return sum(node.engine.outstanding for node in nodes) / total_cores


class AdmissionController:
    """Applies an :class:`AdmissionPolicy` at each query offer."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self.deferrals = 0

    def decide(self, nodes, query, attempts: int) -> str:
        """``admit``/``defer``/``shed`` for one offer of one query.

        ``attempts`` counts earlier deferrals of this query; the caller
        re-offers deferred queries ``policy.defer_s`` later.
        """
        policy = self.policy
        overloaded = (
            fleet_pressure(nodes) > policy.max_fleet_pressure
            or (fleet_outstanding_per_core(nodes)
                > policy.max_outstanding_per_core))
        if not overloaded:
            return ADMIT
        if policy.mode == DEFER and attempts < policy.max_defers:
            self.deferrals += 1
            return DEFER
        return SHED
