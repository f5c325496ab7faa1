"""Physical core allocation with grow-on-free support.

The allocator is deliberately dumb — policies live in the schedulers.  It
enforces one invariant: granted cores never exceed the machine.  Grants
are tracked per holder so a holder can grow (the paper's conflict-recovery
technique, Sec. 3.2) and must release exactly what it holds.
"""

from __future__ import annotations


class AllocationError(RuntimeError):
    """Raised on double-allocation, over-release, or unknown holders."""


class CoreAllocator:
    """Tracks which scheduling unit holds how many cores."""

    def __init__(self, total_cores: int) -> None:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        self.total_cores = total_cores
        self._held: dict[int, int] = {}

    @property
    def used(self) -> int:
        return sum(self._held.values())

    @property
    def available(self) -> int:
        return self.total_cores - self.used

    def held_by(self, holder: int) -> int:
        return self._held.get(holder, 0)

    def allocate(self, holder: int, cores: int) -> None:
        """Grant ``cores`` to a new holder."""
        if cores <= 0:
            raise AllocationError(f"allocation must be positive, got {cores}")
        if holder in self._held:
            raise AllocationError(f"holder {holder} already holds cores")
        if cores > self.available:
            raise AllocationError(
                f"requested {cores} cores, only {self.available} available")
        self._held[holder] = cores

    def grow(self, holder: int, extra: int) -> None:
        """Add cores to an existing holder (conflict recovery)."""
        if extra <= 0:
            raise AllocationError(f"growth must be positive, got {extra}")
        if holder not in self._held:
            raise AllocationError(f"unknown holder {holder}")
        if extra > self.available:
            raise AllocationError(
                f"requested {extra} extra cores, only {self.available} free")
        self._held[holder] += extra

    def release(self, holder: int) -> int:
        """Release a holder's full grant; returns the freed core count."""
        if holder not in self._held:
            raise AllocationError(f"unknown holder {holder}")
        return self._held.pop(holder)
