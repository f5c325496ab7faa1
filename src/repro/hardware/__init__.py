"""Hardware substrate: platform specs and synthetic performance counters."""

from repro.hardware.platform import DATACENTER_ACCEL_80, THREADRIPPER_3990X

__all__ = ["THREADRIPPER_3990X", "DATACENTER_ACCEL_80"]
