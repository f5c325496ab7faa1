"""Machine-speed calibration: wall times rescaled to a reference speed.

The benchmark shares its machine with other tenants, and their load
moves the speed of identical pure-Python work by 25% or more within
seconds.  Every timed region is therefore bracketed by a fixed
calibration round — dict, tuple, small-object and method-call work
shaped like the simulator's hot path, touching no simulator code — and
its wall time is rescaled by ``REFERENCE_ROUND_S / round time``.  On an
uncontended machine whose round takes :data:`REFERENCE_ROUND_S`, the
rescaled time equals the wall time.  A change to the simulator moves
the rescaled time exactly as it moves the wall time, because the round
never runs simulator code.
"""

from __future__ import annotations

import time

#: One calibration round on an uncontended 2.1 GHz Xeon (2 vCPUs,
#: Python 3.11).  It fixes the scale of every rescaled time.
REFERENCE_ROUND_S = 0.020


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b

    def scaled(self, x: float) -> float:
        return self.a * x + self.b


def calibration_round() -> float:
    """Wall seconds of one fixed round of interpreter work."""
    clock = time.perf_counter()
    table: dict[tuple, float] = {}
    memo: dict[tuple, float] = {}
    total = 0.0
    for i in range(25_000):
        key = (i & 255, i >> 8, 0.5 * i)
        table[key] = table.get(key, 0.0) + i * 1.0001
        point = _Point(i * 0.5, i & 63)
        memo_key = (i & 1023, point.b)
        value = memo.get(memo_key)
        if value is None:
            value = memo[memo_key] = point.scaled(1.5)
        total += value
    return time.perf_counter() - clock


class ReferenceClock:
    """Rescales consecutive timed regions to reference-speed seconds.

    A calibration round runs at construction and after every region;
    a region's speed factor is the mean of the rounds on either side.
    """

    def __init__(self, first_round_s: float | None = None) -> None:
        self._last = (first_round_s if first_round_s is not None
                      else calibration_round())
        #: Wall and rescaled seconds of every region so far.
        self.wall_s = 0.0
        self.reference_s = 0.0

    def add(self, wall_s: float) -> None:
        """Account a region that just took ``wall_s`` wall seconds."""
        after = calibration_round()
        self.wall_s += wall_s
        self.reference_s += (wall_s * REFERENCE_ROUND_S
                             / ((self._last + after) / 2))
        self._last = after
