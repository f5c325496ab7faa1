"""Hardware platform spec tests."""

import pytest

from repro.hardware.platform import (
    THREADRIPPER_3990X,
    CacheSpec,
    CpuSpec,
    MemorySpec,
    threadripper_3990x,
)


class TestCacheSpec:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=0, bandwidth_bytes_per_s=1e9)

    def test_rejects_negative_bandwidth(self):
        with pytest.raises(ValueError):
            CacheSpec(capacity_bytes=1024, bandwidth_bytes_per_s=-1.0)

    def test_shared_flag_default_false(self):
        spec = CacheSpec(capacity_bytes=1024, bandwidth_bytes_per_s=1e9)
        assert not spec.shared


class TestMemorySpec:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MemorySpec(capacity_bytes=0, bandwidth_bytes_per_s=1e9)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            MemorySpec(capacity_bytes=1024, bandwidth_bytes_per_s=0.0)


class TestCpuSpec:
    def test_preset_matches_paper_platform(self):
        cpu = THREADRIPPER_3990X
        assert cpu.cores == 64
        assert cpu.frequency_hz == pytest.approx(2.9e9)
        assert cpu.llc.capacity_bytes == 256 * 1024 * 1024
        assert cpu.llc.shared

    def test_preset_factory_returns_equal_spec(self):
        assert threadripper_3990x() == THREADRIPPER_3990X

    def test_peak_flops_composition(self):
        cpu = THREADRIPPER_3990X
        assert cpu.peak_flops_per_core == pytest.approx(
            cpu.frequency_hz * cpu.flops_per_cycle)
        assert cpu.peak_flops == pytest.approx(
            cpu.peak_flops_per_core * cpu.cores)

    def test_sustained_below_peak(self):
        cpu = THREADRIPPER_3990X
        assert 0 < cpu.sustained_flops_per_core < cpu.peak_flops_per_core

    def test_rejects_bad_sustained_fraction(self):
        with pytest.raises(ValueError):
            CpuSpec(name="x", cores=4, frequency_hz=1e9,
                    flops_per_cycle=8.0, sustained_fraction=1.5,
                    l2=THREADRIPPER_3990X.l2, llc=THREADRIPPER_3990X.llc,
                    dram=THREADRIPPER_3990X.dram)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            CpuSpec(name="x", cores=0, frequency_hz=1e9,
                    flops_per_cycle=8.0, sustained_fraction=0.5,
                    l2=THREADRIPPER_3990X.l2, llc=THREADRIPPER_3990X.llc,
                    dram=THREADRIPPER_3990X.dram)
