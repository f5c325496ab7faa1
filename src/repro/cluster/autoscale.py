"""SLO-feedback autoscaling: resize the fleet while it serves.

A fixed VELTAIR fleet is sized for its peak; diurnal and flash-crowd
load shapes leave most of that capacity idle most of the time.  The
autoscale control plane closes the loop at the fleet level: an
:class:`AutoscalePolicy` is evaluated on *control ticks* interleaved
into :meth:`Cluster.serve <repro.cluster.fleet.Cluster.serve>`'s offer
heap, and the fleet grows or shrinks mid-run.

Signals (all observable by a production control plane):

* **fleet pressure** — the core-weighted mean interference estimate
  over *live* nodes (the same signal admission control bounds);
* **backlog per core** — in-flight queries per live physical core;
* **rolling QoS violations** — the fraction of completions inside the
  trailing ``slo_window_s`` that missed their deadline (the SLO
  feedback term).

Decisions use *hysteresis bands* (separate scale-up and scale-down
thresholds: up when any high band is breached, down only when every
signal sits below its low band) plus a *cool-down* between actions, so
one burst cannot make the controller thrash.

Node lifecycle: ``provision`` allocates a node from the policy's
:class:`~repro.cluster.spec.NodeSpec` template — the stack's
``runtime_for`` re-profiles for the template's CPU but never recompiles
(warm after the first node of a width) — and the node spends
``warmup_s`` warming before it *joins* the routing set.  Scale-down
*drains*: the node leaves the routing set immediately, finishes its
in-flight work, then *retires* and stops being driven.  Every
transition lands in the report's scaling timeline, and node-seconds
accounting (provision to retire, warm-up included: capacity is paid for
from the moment it is requested) prices the cost-vs-QoS frontier.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.cluster.admission import fleet_outstanding_per_core, fleet_pressure
from repro.cluster.spec import NodeSpec

#: Node lifecycle states.
WARMING = "warming"
LIVE = "live"
DRAINING = "draining"
RETIRED = "retired"

#: Scaling-timeline actions.
PROVISION = "provision"
JOIN = "join"
DRAIN = "drain"
RETIRE = "retire"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Feedback bands and mechanics of one autoscaling control loop.

    ``template`` is the :class:`NodeSpec` new nodes are provisioned
    from (its ``name`` is used as a prefix; provisioned nodes are named
    ``<name>-1``, ``<name>-2``, ...).  ``min_nodes``/``max_nodes``
    bound the live-or-warming fleet size; the initial fleet may start
    below ``max_nodes`` and the controller fills the gap under load.

    The three ``up_*`` thresholds trip scale-up when *any* is exceeded;
    the matching ``down_*`` thresholds (each strictly below its ``up_*``
    twin — that gap is the hysteresis) permit scale-down only when
    *every* signal is under its low band and nothing is still warming.
    ``cooldown_s`` spaces consecutive scaling actions; ``warmup_s`` is
    the provision-to-join delay; ``slo_window_s`` is the trailing
    window the rolling QoS-violation rate is measured over.
    """

    template: NodeSpec
    min_nodes: int = 1
    max_nodes: int = 8
    tick_s: float = 0.25
    warmup_s: float = 0.50
    cooldown_s: float = 1.00
    up_pressure: float = 0.60
    down_pressure: float = 0.25
    up_backlog_per_core: float = 0.08
    down_backlog_per_core: float = 0.02
    up_violation_rate: float = 0.15
    down_violation_rate: float = 0.03
    slo_window_s: float = 2.0
    #: Breach severity (signal / up-band ratio) past which the
    #: controller skips the cool-down and one-node stepping and jumps
    #: straight to ``max_nodes`` — the flash-crowd reflex.  A diurnal
    #: ramp trips bands gently (severity ~1) and grows by one node; a
    #: spike blows through them and must not wait out ``cooldown_s``
    #: one node at a time.
    panic_severity: float = 2.0
    #: Consecutive quiet ticks (every signal under its down band)
    #: required before a scale-down — one calm tick inside a burst
    #: lull must not release capacity the next burst needs.
    quiet_ticks: int = 3

    def __post_init__(self) -> None:
        if not self.min_nodes >= 1:
            raise ValueError("min_nodes must be at least 1")
        if not self.max_nodes >= self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        if not self.tick_s > 0.0:
            raise ValueError("tick_s must be positive")
        if not self.warmup_s >= 0.0:
            raise ValueError("warmup_s must be >= 0")
        if not self.cooldown_s >= 0.0:
            raise ValueError("cooldown_s must be >= 0")
        if not self.slo_window_s > 0.0:
            raise ValueError("slo_window_s must be positive")
        if not self.panic_severity > 1.0:
            raise ValueError("panic_severity must exceed 1")
        if not self.quiet_ticks >= 1:
            raise ValueError("quiet_ticks must be at least 1")
        for high, low, label in (
                (self.up_pressure, self.down_pressure, "pressure"),
                (self.up_backlog_per_core, self.down_backlog_per_core,
                 "backlog_per_core"),
                (self.up_violation_rate, self.down_violation_rate,
                 "violation_rate")):
            if not 0.0 <= low < high:
                raise ValueError(
                    f"{label} bands need 0 <= down < up for hysteresis; "
                    f"got down={low}, up={high}")


@dataclass(frozen=True)
class ScalingEvent:
    """One scaling-timeline entry: a node lifecycle transition."""

    time_s: float
    action: str
    node: str
    #: Live (routable) node count *after* the transition.
    live_nodes: int
    reason: str = ""

    def __str__(self) -> str:  # pragma: no cover - display helper
        note = f"  ({self.reason})" if self.reason else ""
        return (f"t={self.time_s:8.3f}s {self.action:9s} {self.node:12s} "
                f"live={self.live_nodes}{note}")


@dataclass
class FleetSignals:
    """One control tick's observed inputs (kept for introspection)."""

    time_s: float
    pressure: float
    backlog_per_core: float
    violation_rate: float
    live: int
    warming: int


class AutoscaleController:
    """Evaluates an :class:`AutoscalePolicy` against live fleet state.

    The controller is pure feedback logic: the fleet driver owns node
    construction and lifecycle mutation, and asks :meth:`decide` on
    each control tick how many nodes to add (positive), drain
    (negative), or leave alone (zero).  :meth:`observe_completions`
    must be fed every node's newly completed queries so the rolling
    QoS-violation window stays current.
    """

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        #: (finished_s, satisfied) for completions in the SLO window.
        self._window: deque[tuple[float, bool]] = deque()
        self._last_action_s: float | None = None
        self._quiet_streak = 0
        #: Every tick's observed signals, in tick order.
        self.signals: list[FleetSignals] = []

    def observe_completions(self, completed) -> None:
        """Feed newly completed queries into the rolling SLO window."""
        for query in completed:
            self._window.append((query.finished_s, query.satisfied))

    def violation_rate(self, now: float) -> float:
        """QoS-miss fraction over the trailing ``slo_window_s``."""
        horizon = now - self.policy.slo_window_s
        window = self._window
        if window and min(entry[0] for entry in window) < horizon:
            # Full filter, not a head-trim: batches arrive per *node*,
            # so the deque interleaves out of finish-time order and an
            # expired entry can sit behind an in-window head.
            self._window = window = deque(
                entry for entry in window if entry[0] >= horizon)
        if not window:
            return 0.0
        misses = sum(1 for _, satisfied in window if not satisfied)
        return misses / len(window)

    def decide(self, now: float, live_nodes, warming: int) -> int:
        """Scale delta for this tick: +n provision, -n drain, 0 hold.

        Scale-up trips when *any* high band is breached; the breach
        severity (worst signal over its band) picks between one more
        node and, past ``panic_severity``, an immediate jump to
        ``max_nodes`` that also bypasses the cool-down.  Scale-down
        needs ``quiet_ticks`` consecutive all-clear ticks with nothing
        warming, releasing one node at a time.
        """
        policy = self.policy
        signals = FleetSignals(
            time_s=now,
            pressure=fleet_pressure(live_nodes),
            backlog_per_core=fleet_outstanding_per_core(live_nodes),
            violation_rate=self.violation_rate(now),
            live=len(live_nodes), warming=warming)
        self.signals.append(signals)

        severity = max(
            signals.pressure / policy.up_pressure,
            signals.backlog_per_core / policy.up_backlog_per_core,
            signals.violation_rate / policy.up_violation_rate)
        quiet = (
            signals.pressure < policy.down_pressure
            and signals.backlog_per_core < policy.down_backlog_per_core
            and signals.violation_rate < policy.down_violation_rate)
        self._quiet_streak = (self._quiet_streak + 1 if quiet else 0)

        population = len(live_nodes) + warming
        cooling = (self._last_action_s is not None
                   and now - self._last_action_s < policy.cooldown_s)
        if severity > 1.0 and population < policy.max_nodes:
            panic = severity >= policy.panic_severity
            if cooling and not panic:
                return 0
            headroom = policy.max_nodes - population
            self._last_action_s = now
            return headroom if panic else 1
        if (quiet and warming == 0
                and self._quiet_streak >= policy.quiet_ticks
                and not cooling
                and len(live_nodes) > policy.min_nodes):
            self._last_action_s = now
            self._quiet_streak = 0
            return -1
        return 0

    def reason(self) -> str:
        """Human-readable trigger for the most recent decision."""
        if not self.signals:
            return ""
        s = self.signals[-1]
        return (f"pressure={s.pressure:.2f} backlog={s.backlog_per_core:.3f}"
                f" violations={s.violation_rate:.2f}")
