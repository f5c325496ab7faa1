"""Device platform descriptions used by the cost model and the simulator.

The :class:`DeviceSpec` family describes every hardware kind the stack
can serve on.  :class:`CpuSpec` is the paper's platform: an AMD Ryzen
Threadripper 3990X — 64 physical cores at 2.9 GHz with AVX2, 256 MB of
shared L3, and quad-channel DDR4-3200.  SMT and DVFS are disabled in the
paper, so the model assumes one thread per physical core and a fixed
clock.  :class:`AcceleratorSpec` is a GPU-like SM/streams device: many
narrow execution units scheduled at stream granularity, a device-wide
shared L2, and high-bandwidth device memory — batch-friendly throughput
that only materialises when a kernel brings enough parallel chunks to
occupy the SMs.

The CPU preset constants are calibrated so that the headline magnitudes
of the paper hold on the analytic model:

* a single vision model using all 64 cores reaches roughly 300 queries per
  second (paper Sec. 2.1),
* MLPerf vision models meet their QoS targets with a handful of cores
  (paper Fig. 1a),
* a high-locality schedule can degrade by multiples under heavy LLC
  contention (paper Fig. 6a reports up to ~7x).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheSpec:
    """Capacity/bandwidth description of one cache level."""

    capacity_bytes: int
    #: Aggregate bandwidth of the level in bytes/second.  For private caches
    #: this is per-core; for the shared LLC it is chip-wide.
    bandwidth_bytes_per_s: float
    shared: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("cache bandwidth must be positive")


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory description."""

    capacity_bytes: int
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("memory capacity must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("memory bandwidth must be positive")


class DeviceSpec:
    """Common interface of every hardware kind the stack serves on.

    A device is a pool of identical parallel execution units (CPU cores
    or accelerator SMs/streams) over a cache/memory hierarchy.  The
    cost model, the engine's core ledger, and the schedulers address
    any device through this surface:

    * ``kind`` — registry discriminator (``"cpu"``/``"accelerator"``);
      part of the compiled-artifact content hash for non-CPU kinds.
    * ``cores`` — number of allocatable execution units: CPU cores,
      or SMs on an accelerator.
    * clock and per-unit flops (``frequency_hz``, ``flops_per_cycle``,
      ``sustained_fraction`` and the derived ``*_flops*`` properties).
    * hierarchy: a per-unit private cache ``l2``, a shared ``llc``
      (the contended capacity resource), and ``dram``.
    * interference surface: per concrete kind, the contention
      sensitivities the cost model reads.

    Subclasses are frozen dataclasses; the base class carries no fields
    so ``dataclasses.asdict`` payloads — and therefore artifact-store
    keys — are exactly the concrete kind's own fields.
    """

    kind = "device"


@dataclass(frozen=True)
class CpuSpec(DeviceSpec):
    """A many-core CPU as seen by the cost model.

    Attributes
    ----------
    cores:
        Number of physical cores available for scheduling.
    frequency_hz:
        Fixed core clock (DVFS disabled, as in the paper).
    flops_per_cycle:
        Peak FP32 flops per cycle per core (SIMD width x FMA issue x 2).
    sustained_fraction:
        Fraction of peak a well-tuned kernel sustains; folds in front-end
        and port-pressure losses the analytic model does not itemise.
    l2:
        Private per-core cache (the innermost reuse level we model).
    llc:
        Shared last-level cache; the contended resource in the paper.
    dram:
        Main memory.
    thread_spawn_s:
        Cost of spawning/parking one worker thread.  This prices both the
        initial parallel-region entry and the paper's conflict-expansion
        overhead (Sec. 3.2, Fig. 5b: mean ~220 us per conflicted layer).
    """

    #: NOTE: the field set is part of the artifact-store key schema
    #: (``compiler_context`` serialises ``dataclasses.asdict`` of the
    #: device); adding or renaming a field invalidates every cached CPU
    #: artifact.  New knobs belong on new device kinds.
    name: str
    cores: int
    frequency_hz: float
    flops_per_cycle: float
    sustained_fraction: float
    l2: CacheSpec
    llc: CacheSpec
    dram: MemorySpec
    thread_spawn_s: float = 12e-6

    kind = "cpu"

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("core count must be positive")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.flops_per_cycle <= 0:
            raise ValueError("flops_per_cycle must be positive")
        if not 0.0 < self.sustained_fraction <= 1.0:
            raise ValueError("sustained_fraction must be in (0, 1]")
        if self.thread_spawn_s < 0:
            raise ValueError("thread_spawn_s must be non-negative")

    @property
    def peak_flops_per_core(self) -> float:
        """Theoretical peak FP32 flops/second of one core."""
        return self.frequency_hz * self.flops_per_cycle

    @property
    def sustained_flops_per_core(self) -> float:
        """Achievable flops/second of one core for tuned dense kernels."""
        return self.peak_flops_per_core * self.sustained_fraction

    @property
    def peak_flops(self) -> float:
        """Chip-wide theoretical peak flops/second."""
        return self.peak_flops_per_core * self.cores


@dataclass(frozen=True)
class AcceleratorSpec(DeviceSpec):
    """A GPU-like SM/streams device as seen by the cost model.

    The allocation unit is one SM (stream processor): the engine grants
    SMs to blocks exactly as it grants CPU cores, so stream-level
    spatial multitasking rides on the existing machinery.
    What differs is the execution economics, captured here:

    * **Wide SIMT units** — ``simt_lanes`` lanes execute in lockstep;
      kernels whose innermost extent cannot fill a warp waste lanes, so
      small/skinny layers sustain a much lower fraction of peak than
      they do on an 8-lane AVX2 core (the latency-critical-small-model
      penalty).
    * **Batch-friendly throughput curve** — an SM needs several resident
      blocks to hide latency; ``occupancy_ramp`` is the parallel chunks
      per granted SM at which throughput saturates, and
      ``min_occupancy_rate`` the floor a one-chunk-per-SM launch
      sustains.  Layers with abundant parallelism (large convs) reach
      peak; shallow ones do not.
    * **Stream-level costs** — ``kernel_launch_s`` prices each kernel
      launch (replacing the CPU's ``layer_launch_s``) and
      ``stream_launch_s`` prices stream set-up/re-partition (the
      analogue of thread spawn; exposed as ``thread_spawn_s`` so
      conflict-expansion accounting works unchanged).
    * **Interference surface** — contention constants the cost model
      reads for this kind (the CPU reads its equivalents from
      ``CostModelParams``, whose field set is frozen into the artifact
      key schema): device-L2 reuse is less load-bearing than CPU LLC
      reuse (``cache_sensitivity``) but the shared HBM is contended by
      every resident stream (``bw_sensitivity``), and a kernel holding
      more SMs keeps more requests in flight (``bw_defense_max``).

    Attributes mirror :class:`CpuSpec` where the semantics coincide:
    ``l2`` is the per-SM local store (smem + L1), ``llc`` the
    device-wide shared L2, ``dram`` the HBM stack.
    """

    name: str
    sms: int
    frequency_hz: float
    flops_per_cycle: float
    sustained_fraction: float
    l2: CacheSpec
    llc: CacheSpec
    dram: MemorySpec
    simt_lanes: int = 32
    kernel_launch_s: float = 8e-6
    stream_launch_s: float = 30e-6
    occupancy_ramp: float = 4.0
    min_occupancy_rate: float = 0.25
    #: Contention sensitivities (the accelerator's interference surface).
    cache_sensitivity: float = 2.0
    bw_sensitivity: float = 2.2
    cache_vuln_ref_bytes: float = 6 * 1024 * 1024
    bw_defense_max: float = 0.6
    dram_saturation_units: int = 24
    mlp_per_unit: float = 64.0
    max_mlp: float = 2048.0
    sync_tax_per_unit: float = 0.0008

    kind = "accelerator"

    def __post_init__(self) -> None:
        if self.sms <= 0:
            raise ValueError("SM count must be positive")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if self.flops_per_cycle <= 0:
            raise ValueError("flops_per_cycle must be positive")
        if not 0.0 < self.sustained_fraction <= 1.0:
            raise ValueError("sustained_fraction must be in (0, 1]")
        if self.simt_lanes <= 0:
            raise ValueError("simt_lanes must be positive")
        if self.kernel_launch_s < 0 or self.stream_launch_s < 0:
            raise ValueError("launch costs must be non-negative")
        if self.occupancy_ramp < 1.0:
            raise ValueError("occupancy_ramp must be >= 1")
        if not 0.0 < self.min_occupancy_rate <= 1.0:
            raise ValueError("min_occupancy_rate must be in (0, 1]")

    # -- CpuSpec-compatible surface (what the stack reads) -----------------

    @property
    def cores(self) -> int:
        """Allocation units — SMs; named for the core ledger's vocabulary."""
        return self.sms

    @property
    def thread_spawn_s(self) -> float:
        """Stream set-up cost, priced where CPUs price thread spawn."""
        return self.stream_launch_s

    @property
    def peak_flops_per_core(self) -> float:
        """Theoretical peak FP32 flops/second of one SM."""
        return self.frequency_hz * self.flops_per_cycle

    @property
    def sustained_flops_per_core(self) -> float:
        """Achievable flops/second of one fully occupied SM."""
        return self.peak_flops_per_core * self.sustained_fraction

    @property
    def peak_flops(self) -> float:
        """Device-wide theoretical peak flops/second."""
        return self.peak_flops_per_core * self.sms


def threadripper_3990x() -> CpuSpec:
    """The paper's evaluation platform (Sec. 5.1), as model constants.

    64 Zen-2 cores at 2.9 GHz; AVX2 gives 8 FP32 lanes x 2 FMA pipes x
    2 flops = 32 flops/cycle peak.  256 MB L3 across 16 CCXs, 512 KB
    private L2 per core, and ~95 GB/s of quad-channel DDR4-3200.
    """
    return CpuSpec(
        name="AMD Ryzen Threadripper 3990X",
        cores=64,
        frequency_hz=2.9e9,
        flops_per_cycle=32.0,
        sustained_fraction=0.75,
        l2=CacheSpec(capacity_bytes=512 * 1024,
                     bandwidth_bytes_per_s=64e9),
        llc=CacheSpec(capacity_bytes=256 * 1024 * 1024,
                      bandwidth_bytes_per_s=1.6e12,
                      shared=True),
        dram=MemorySpec(capacity_bytes=256 * 1024**3,
                        bandwidth_bytes_per_s=95e9),
        thread_spawn_s=8e-6,
    )


def edge_node_32() -> CpuSpec:
    """A small serving node: half a 3990X, the low end of a mixed fleet.

    Cluster experiments route over heterogeneous fleets; this is the
    node a naive round-robin router overloads first.  Modeled as half
    the paper's testbed — 32 cores, half the LLC/DRAM bandwidth.
    """
    return CpuSpec(
        name="edge node (32 cores)",
        cores=32,
        frequency_hz=2.9e9,
        flops_per_cycle=32.0,
        sustained_fraction=0.75,
        l2=CacheSpec(capacity_bytes=512 * 1024,
                     bandwidth_bytes_per_s=64e9),
        llc=CacheSpec(capacity_bytes=128 * 1024 * 1024,
                      bandwidth_bytes_per_s=0.8e12,
                      shared=True),
        dram=MemorySpec(capacity_bytes=128 * 1024**3,
                        bandwidth_bytes_per_s=48e9),
        thread_spawn_s=8e-6,
    )


def production_server_256() -> CpuSpec:
    """A production-scale serving node: dual-socket, 256 cores.

    The paper evaluates on one 64-core desktop part; datacenter serving
    racks deploy on far wider boxes, and the co-location dynamics the
    scheduler must handle (dozens of concurrent tenants) only appear at
    that width.  Modeled as four 3990X-worth of cores with LLC capacity
    and DRAM channels scaled accordingly — the regime the engine-scale
    benchmark exercises.
    """
    return CpuSpec(
        name="production server (256 cores)",
        cores=256,
        frequency_hz=2.9e9,
        flops_per_cycle=32.0,
        sustained_fraction=0.75,
        l2=CacheSpec(capacity_bytes=512 * 1024,
                     bandwidth_bytes_per_s=64e9),
        llc=CacheSpec(capacity_bytes=1024 * 1024 * 1024,
                      bandwidth_bytes_per_s=6.4e12,
                      shared=True),
        dram=MemorySpec(capacity_bytes=1024**4,
                        bandwidth_bytes_per_s=380e9),
        thread_spawn_s=8e-6,
    )


def datacenter_accelerator_80() -> AcceleratorSpec:
    """A datacenter inference accelerator: 80 SMs over 40 MB L2 + HBM.

    Modeled on an Ampere-class FP32 part: 80 SMs at 1.41 GHz with 128
    FMA lanes each (256 flops/cycle/SM, ~29 TF peak — about 5x the
    3990X chip), 192 KB of local store per SM, a 40 MB device-wide L2,
    and a 1.5 TB/s HBM stack (~16x the CPU's DDR4).  Warp width 32, so
    skinny kernels waste 4x the lanes they waste on AVX2; kernel
    launches cost ~8 us against the CPU's 2 us.  The throughput curve
    saturates at ~4 resident chunks per SM — the batch-friendly regime
    heavy vision models reach and 10 ms-QoS small models often do not.
    """
    return AcceleratorSpec(
        name="datacenter accelerator (80 SMs)",
        sms=80,
        frequency_hz=1.41e9,
        flops_per_cycle=256.0,
        sustained_fraction=0.60,
        l2=CacheSpec(capacity_bytes=192 * 1024,
                     bandwidth_bytes_per_s=200e9),
        llc=CacheSpec(capacity_bytes=40 * 1024 * 1024,
                      bandwidth_bytes_per_s=4.0e12,
                      shared=True),
        dram=MemorySpec(capacity_bytes=40 * 1024**3,
                        bandwidth_bytes_per_s=1.5e12),
    )


#: Module-level singleton presets; cheap to construct, convenient to share.
THREADRIPPER_3990X = threadripper_3990x()
EDGE_NODE_32 = edge_node_32()
PRODUCTION_SERVER_256 = production_server_256()
DATACENTER_ACCEL_80 = datacenter_accelerator_80()
