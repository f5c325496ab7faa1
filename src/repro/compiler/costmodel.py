"""Analytic layer-latency model: (layer, schedule, cores, interference) -> time.

This module is the load-bearing substitution for the paper's physical
testbed (TVM-generated kernels on a 64-core Threadripper).  It has two
parts:

**Isolated execution** is a mechanistic roofline: per-core compute rate
derived from the schedule's vectorization / unrolling / tile micro-kernel
efficiency, and memory time from a two-level (private L2, shared LLC)
per-tensor traffic account — the input panel is re-read once per
output-channel block, the weight panel once per row block, and partial
output sums are re-streamed once per K panel.

**Contention scaling** multiplies isolated latency by a sensitivity
function calibrated to the paper's measurements (Fig. 1b, Fig. 6a):

``slowdown(I) = 1 + I * (V_cache * vuln_cache * reuse_fraction
                          + V_bw * mem_fraction * (1 - defense))``

* ``vuln_cache`` grows with the LLC-resident hot set the schedule's
  blocking relies on — large-blocking (high locality) code loses its LLC
  reuse to co-tenants and degrades by multiples, exactly the
  interference-vulnerable behaviour of paper Fig. 6a.
* ``defense`` grows with the cores the schedule can actually occupy —
  high-parallelism code keeps more memory requests in flight and defends
  its bandwidth share, the interference-tolerant behaviour.
* ``V_cache``/``V_bw`` are the two calibration constants; defaults put a
  locality-heavy version near the paper's ~7x worst-case degradation and
  parallelism-heavy versions near ~1.3x.

All latencies are seconds; ``interference`` is the system pressure level
in ``[0, 1]`` (paper Sec. 4.3 "interference pressure level").

**Profiled once, priced in closed form.**  Only the contention step
reads the interference level, so the isolated half — the roofline,
the hot set, ``k`` (the bracket above) and the LLC-served re-read
bytes — is computed once per (layer signature, schedule, cores) and
memoised.  Each new interference level then costs
``slowdown = 1 + I * k``, ``total = iso * slowdown`` and
``dram = compulsory + I * vuln_cache * reuse_bytes``, in the same
operation order as a from-scratch computation, so every float is
bit-identical to one.  A second memo per (signature, schedule, cores,
interference) sits in front and returns the identical breakdown on a
repeat call.

**Device kinds.**  The model binds to any
:class:`~repro.hardware.platform.DeviceSpec`.  The CPU path is the
calibrated original, bit-for-bit: every constant a CPU execution reads
resolves to the same :class:`CostModelParams` field through the same
expressions.  An :class:`~repro.hardware.platform.AcceleratorSpec`
swaps in the SM/streams economics — warp-width (``simt_lanes``) lane
utilisation instead of the schedule's vector width, an occupancy ramp
that keeps under-parallelised kernels off peak (the batch-friendly
throughput curve), stream/kernel launch costs, and the accelerator's
own contention sensitivities (HBM bandwidth contended by resident
streams, device-L2 reuse less load-bearing than CPU LLC reuse).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.config import CACHE_LINE_BYTES, FP32_BYTES
from repro.hardware.platform import CpuSpec, DeviceSpec
from repro.models.layers import LayerSpec
from repro.compiler.schedule import Schedule, num_tiles

#: Bound of each of the cost model's two memos: breakdowns per
#: interference level (:attr:`CostModel._memo`) and isolated runs
#: (:attr:`CostModel._isolated`).  A miss on a full memo drops its
#: oldest eighth, as :class:`~repro.runtime.pricing.PricingCache` does.
#: Every key is complete (the breakdown's holds the exact clamped
#: interference), so an entry is a pure function of its key and
#: eviction never changes a result.
MEMO_ENTRIES = 1 << 18


@dataclass(frozen=True)
class CostBreakdown:
    """Full accounting of one layer execution under the model."""

    total_s: float
    compute_s: float
    mem_s: float
    cores_used: int
    dram_bytes: float
    llc_bytes: float
    flops: int
    slowdown: float

    @property
    def dram_line_misses(self) -> float:
        """LLC->DRAM cache-line transfers (the L3 miss counter)."""
        return self.dram_bytes / CACHE_LINE_BYTES

    @property
    def llc_line_accesses(self) -> float:
        """L2->LLC cache-line transfers (the L3 access counter)."""
        return max(self.llc_bytes / CACHE_LINE_BYTES, 1.0)

    @property
    def llc_miss_rate(self) -> float:
        return min(1.0, self.dram_line_misses / self.llc_line_accesses)


@dataclass(frozen=True)
class CostModelParams:
    """Tunable constants of the analytic model (ablation knobs)."""

    #: Calibrated contention sensitivities (see module docstring).
    cache_sensitivity: float = 8.0
    bw_sensitivity: float = 1.4
    #: Hot-set size at which cache vulnerability saturates.  Co-tenant
    #: streams reliably destroy LLC reuse beyond a few MB of hot set.
    cache_vuln_ref_bytes: float = 3 * 1024 * 1024
    #: Bandwidth defense strength of fully occupying the chip.
    bw_defense_max: float = 0.8
    #: Cores needed for one task to saturate DRAM bandwidth.
    dram_saturation_cores: int = 8
    #: Exposed DRAM latency for streaming traffic and in-flight misses.
    miss_latency_s: float = 90e-9
    mlp_per_core: float = 10.0
    max_mlp: float = 256.0
    #: Non-overlapped fraction of the smaller of compute/memory time.
    overlap_slack: float = 0.10
    #: Per-core synchronisation/straggler tax on compute time: wide
    #: parallel regions pay barrier and work-stealing costs, so speedup
    #: saturates well below core count (paper Fig. 4a) and frugal grants
    #: are genuinely cheaper in core-seconds.
    sync_tax_per_core: float = 0.005
    #: Fixed kernel-launch cost charged per layer by the serving layer.
    layer_launch_s: float = 2e-6
    #: Usable fraction of the private L2 and the L2-level K-panel cap.
    l2_usable_fraction: float = 0.8
    l2_tile_k_cap: int = 512
    #: Weights of LLC occupancy vs DRAM bandwidth demand in a task's
    #: contribution to system pressure.  Calibrated so that ~4 typical
    #: co-located vision blocks produce the ~1.8x average slowdown of
    #: paper Fig. 1b (pressure ~0.3-0.4), saturating only under extreme
    #: fan-out.
    pressure_llc_weight: float = 0.2
    pressure_bw_weight: float = 0.2


def core_grid(total_cores: int) -> list[int]:
    """Geometric-ish probe points for U-shaped latency-vs-cores curves."""
    grid = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48]
    return [c for c in grid if c < total_cores] + [total_cores]


def first_fit_cores(duration: Callable[[int], float], budget_s: float,
                    limit: int) -> int | None:
    """Fewest cores in ``[1, limit]`` whose ``duration`` fits ``budget_s``.

    The one core search behind every sizing decision (layers, blocks,
    whole models).  Latency over cores is U-shaped (scaling gains vs
    synchronisation tax), so :func:`core_grid` is probed first and the
    earliest feasible grid point refined backwards linearly down to the
    grid point before it; a fit below an infeasible grid point (a bump
    in the curve) is not found.  ``None`` when no grid point fits.
    """
    previous = 1
    for cores in core_grid(limit):
        if duration(cores) <= budget_s:
            for candidate in range(previous, cores):
                if duration(candidate) <= budget_s:
                    return candidate
            return cores
        previous = cores
    return None


class _Isolated(NamedTuple):
    """The interference-free half of one (layer, schedule, cores) run.

    Everything :meth:`CostModel.execution` needs besides the
    interference level, so contention is priced from it in closed form.
    """

    cores_used: int
    compute_s: float
    mem_s: float
    iso_s: float
    compulsory: float
    llc_bytes: float
    hot_bytes: float
    #: ``k`` of ``slowdown = 1 + I * k`` (see the module docstring).
    contention: float
    vuln_cache: float
    #: LLC-served re-read bytes, ``llc_bytes - compulsory``.
    reuse_bytes: float


def _remember(memo: dict, key: tuple, value) -> None:
    """Store ``value``; a full memo first drops its oldest eighth."""
    if len(memo) >= MEMO_ENTRIES:
        drop = max(1, MEMO_ENTRIES // 8)
        for stale in list(itertools.islice(iter(memo), drop)):
            del memo[stale]
    memo[key] = value


class CostModel:
    """Latency and traffic model bound to one device platform.

    ``cpu`` accepts any :class:`DeviceSpec`; the attribute keeps its
    historical name because every consumer reads ``cost_model.cpu``.
    Contention constants are resolved once at construction: the CPU
    kind reads them from :class:`CostModelParams` (whose field set is
    frozen into the artifact key schema), the accelerator kind from its
    own spec fields.
    """

    def __init__(self, cpu: CpuSpec | DeviceSpec,
                 params: CostModelParams | None = None) -> None:
        self.cpu = cpu
        self.kind = getattr(cpu, "kind", "cpu")
        self.params = params or CostModelParams()
        #: Execution memo per (signature, schedule, cores, interference)
        #: and isolated-run memo per (signature, schedule, cores), each
        #: bounded by :data:`MEMO_ENTRIES`.
        self._memo: dict[tuple, CostBreakdown] = {}
        self._isolated: dict[tuple, _Isolated] = {}
        self._accel = self.kind == "accelerator"
        p = self.params
        if self._accel:
            self._cache_sensitivity = cpu.cache_sensitivity
            self._bw_sensitivity = cpu.bw_sensitivity
            self._cache_vuln_ref = cpu.cache_vuln_ref_bytes
            self._bw_defense_max = cpu.bw_defense_max
            self._dram_saturation = cpu.dram_saturation_units
            self._mlp_per_unit = cpu.mlp_per_unit
            self._max_mlp = cpu.max_mlp
            self._sync_tax = cpu.sync_tax_per_unit
        else:
            self._cache_sensitivity = p.cache_sensitivity
            self._bw_sensitivity = p.bw_sensitivity
            self._cache_vuln_ref = p.cache_vuln_ref_bytes
            self._bw_defense_max = p.bw_defense_max
            self._dram_saturation = p.dram_saturation_cores
            self._mlp_per_unit = p.mlp_per_core
            self._max_mlp = p.max_mlp
            self._sync_tax = p.sync_tax_per_core

    @property
    def launch_s(self) -> float:
        """Per-kernel launch cost for this device kind.

        The CPU reads :attr:`CostModelParams.layer_launch_s` (the
        paper's constant); the accelerator its own ``kernel_launch_s``.
        Every per-layer launch charge goes through here.
        """
        if self._accel:
            return self.cpu.kernel_launch_s
        return self.params.layer_launch_s

    # ------------------------------------------------------------------
    # schedule profile
    # ------------------------------------------------------------------

    def _per_core_rate(self, layer: LayerSpec, schedule: Schedule) -> float:
        """Sustained flops/s of one core running this schedule."""
        gemm = layer.gemm
        # On the accelerator the lane count is the warp width: all
        # ``simt_lanes`` lanes execute in lockstep, so skinny extents
        # waste lanes regardless of the schedule's CPU vector width.
        lanes = (self.cpu.simt_lanes if self._accel
                 else schedule.vector_lanes)
        # Vectorize along N when it is wide enough, else along M
        # (element-wise and depthwise layers have N == 1).
        vec_extent = schedule.tile_n if gemm.n >= lanes else schedule.tile_m
        vec_util = vec_extent / (math.ceil(vec_extent / lanes) * lanes)
        unroll = schedule.unroll
        unroll_eff = unroll / (unroll + 0.3)
        if unroll > 8:
            unroll_eff *= 0.98
        # Small tiles re-load accumulators and pay loop prologues more
        # often; short K panels break the FMA pipeline — the micro-kernel
        # cost of trading locality for parallel chunks.
        tile_n_eff = max(schedule.tile_n, lanes)
        tile_eff = ((schedule.tile_m / (schedule.tile_m + 6))
                    * (tile_n_eff / (tile_n_eff + 6))
                    * (schedule.tile_k / (schedule.tile_k + 24)))
        # Layer-shape efficiency: kernels over shallow reductions (stem
        # convs, depthwise) and small spatial extents (late 7x7 stages)
        # sustain a lower fraction of peak no matter the schedule — the
        # source of the per-layer core-requirement diversity of paper
        # Fig. 4.
        shape_eff = max(0.15, (gemm.k / (gemm.k + 48))
                        * (gemm.m / (gemm.m + 12)))
        return (self.cpu.sustained_flops_per_core
                * vec_util * unroll_eff * tile_eff * shape_eff)

    def _l2_tiles(self, schedule: Schedule) -> tuple[int, int, int]:
        """The schedule's tiles clipped to what the private L2 can hold.

        The K panel is capped first (accumulators stay in registers across
        K sub-panels), then M and N share the remaining budget in a
        balanced square — the shape a register/L2 blocking pass picks
        inside the LLC tile.
        """
        p = self.params
        budget = self.cpu.l2.capacity_bytes * p.l2_usable_fraction
        tile_k = min(schedule.tile_k, p.l2_tile_k_cap)
        span = budget / FP32_BYTES
        balanced = int(-tile_k + math.sqrt(tile_k * tile_k + span))
        balanced = max(4, balanced)
        return (max(1, min(schedule.tile_m, balanced)),
                max(1, min(schedule.tile_n, balanced)),
                tile_k)

    def _profile(self, layer: LayerSpec, schedule: Schedule,
                 cores: int) -> _Isolated:
        """Price one run without interference (no memo: see
        :meth:`_isolated_run`).  The schedule is clipped to legality."""
        p = self.params
        cpu = self.cpu
        gemm = layer.gemm
        schedule = schedule.clipped_to(gemm)
        chunks = min(schedule.parallel_chunks, num_tiles(gemm, schedule))
        cores_used = max(1, min(cores, chunks, cpu.cores))

        rate = self._per_core_rate(layer, schedule)
        rounds = math.ceil(chunks / cores_used)
        imbalance = (chunks / cores_used) / rounds
        sync = 1.0 + self._sync_tax * (cores_used - 1)
        compute_s = (layer.flops * sync
                     / (cores_used * rate * imbalance))
        if self._accel:
            # Occupancy ramp: an SM needs several resident blocks to
            # hide latency, so kernels exposing few parallel chunks per
            # SM run well below peak — the batch-friendly throughput
            # curve that makes skinny low-batch layers a poor fit.
            occ = min(1.0, chunks / (cores_used * cpu.occupancy_ramp))
            floor = cpu.min_occupancy_rate
            compute_s /= floor + (1.0 - floor) * occ

        compulsory = float(layer.data_bytes)
        tm2, tn2, tk2 = self._l2_tiles(schedule)
        passes_a = math.ceil(gemm.n / tn2)
        passes_b = math.ceil(gemm.m / tm2)
        passes_c = 1 + math.ceil(gemm.k / tk2)
        beyond_l2 = (layer.input_bytes * passes_a
                     + layer.weight_bytes * passes_b
                     + layer.output_bytes * passes_c)
        beyond_l2 = max(beyond_l2, compulsory)

        # LLC hot set: at the shared level the row blocking spans the
        # co-operating cores (they consume different row tiles of the same
        # resident panels).
        tile_m3 = min(gemm.m, schedule.tile_m * cores_used)
        hot = FP32_BYTES * (tile_m3 * schedule.tile_k
                            + schedule.tile_k * schedule.tile_n
                            + tile_m3 * schedule.tile_n)
        hot = min(float(hot), compulsory)

        # --- isolated memory time ---------------------------------------
        # In isolation the LLC serves all re-read traffic (single-layer hot
        # sets fit a 256 MB LLC), so DRAM sees compulsory traffic only.
        bw = (cpu.dram.bandwidth_bytes_per_s
              * min(1.0, cores_used / self._dram_saturation))
        bandwidth_s = compulsory / bw
        mlp = min(cores_used * self._mlp_per_unit, self._max_mlp)
        latency_s = ((compulsory / CACHE_LINE_BYTES)
                     * p.miss_latency_s / mlp)
        dram_s = max(bandwidth_s, latency_s)
        llc_bw = (cpu.llc.bandwidth_bytes_per_s
                  * max(cores_used / cpu.cores, 1.0 / 16.0))
        llc_s = beyond_l2 / llc_bw
        mem_s = max(dram_s, llc_s)

        iso_s = (max(compute_s, mem_s)
                 + p.overlap_slack * min(compute_s, mem_s))

        # --- contention coefficient ---------------------------------------
        reuse_fraction = max(0.0, (beyond_l2 - compulsory) / beyond_l2)
        vuln_cache = min(1.0, hot / self._cache_vuln_ref)
        mem_fraction = mem_s / (mem_s + compute_s)
        defense = self._bw_defense_max * math.sqrt(cores_used / cpu.cores)
        contention = (
            self._cache_sensitivity * vuln_cache * reuse_fraction
            + self._bw_sensitivity * mem_fraction * (1.0 - defense))
        return _Isolated(
            cores_used=cores_used, compute_s=compute_s, mem_s=mem_s,
            iso_s=iso_s, compulsory=compulsory, llc_bytes=beyond_l2,
            hot_bytes=hot, contention=contention, vuln_cache=vuln_cache,
            reuse_bytes=beyond_l2 - compulsory)

    def _isolated_run(self, layer: LayerSpec, schedule: Schedule,
                      cores: int, signature: tuple) -> _Isolated:
        """:meth:`_profile`, computed once per (layer, schedule, cores)."""
        key = (signature, schedule, cores)
        record = self._isolated.get(key)
        if record is None:
            record = self._profile(layer, schedule, cores)
            _remember(self._isolated, key, record)
        return record

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------

    def execution(self, layer: LayerSpec, schedule: Schedule, cores: int,
                  interference: float = 0.0) -> CostBreakdown:
        """Latency breakdown of one layer execution.

        Parameters
        ----------
        layer, schedule:
            What runs.  The schedule is clipped to legality defensively.
        cores:
            Cores granted by the scheduler (>= 1).
        interference:
            System pressure caused by co-runners, clamped to [0, 1];
            NaN raises ``ValueError``.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if not 0.0 <= interference <= 1.0:
            if math.isnan(interference):
                raise ValueError("interference must not be NaN")
            interference = min(1.0, max(0.0, interference))
        signature = layer.signature
        key = (signature, schedule, cores, interference)
        hit = self._memo.get(key)
        if hit is not None:
            return hit

        run = self._isolated_run(layer, schedule, cores, signature)
        # --- contention scaling -------------------------------------------
        slowdown = 1.0 + interference * run.contention
        result = CostBreakdown(
            total_s=run.iso_s * slowdown,
            compute_s=run.compute_s,
            mem_s=run.mem_s,
            cores_used=run.cores_used,
            # Contention converts LLC-served re-reads into DRAM misses.
            dram_bytes=(run.compulsory
                        + interference * run.vuln_cache * run.reuse_bytes),
            llc_bytes=run.llc_bytes,
            flops=layer.flops,
            slowdown=slowdown,
        )
        _remember(self._memo, key, result)
        return result

    def latency(self, layer: LayerSpec, schedule: Schedule, cores: int,
                interference: float = 0.0) -> float:
        """Seconds for one layer execution (convenience wrapper)."""
        return self.execution(layer, schedule, cores, interference).total_s

    def spawn_overhead(self, cores: int) -> float:
        """Cost of entering a parallel region with ``cores`` pool threads.

        Charged once per scheduling unit.  Worker threads are pooled, so
        this is a wake-and-park handoff, much cheaper than creating
        threads.  The accelerator pays a stream-dispatch cost instead:
        pushing work onto a stream is pricier than waking a pooled
        thread, but grows slower with the grant width.
        """
        if self._accel:
            return self.cpu.stream_launch_s + 1.0e-6 * max(0, cores)
        return 15e-6 + 1.2e-6 * max(0, cores)

    def expand_overhead(self, extra_cores: int) -> float:
        """Cost of growing a running region by ``extra_cores`` threads.

        This is the paper's scheduling-conflict overhead (Sec. 3.2,
        Fig. 5b: mean ~220 us per conflicted layer): the work must be
        re-partitioned and fresh threads spawned mid-kernel.
        """
        return self.cpu.thread_spawn_s * max(0, extra_cores)

    # ------------------------------------------------------------------
    # derived planning helpers
    # ------------------------------------------------------------------

    def required_cores(self, layer: LayerSpec, schedule: Schedule,
                       budget_s: float,
                       interference: float = 0.0) -> int | None:
        """Minimal cores meeting a latency budget, or ``None`` if impossible
        (see :func:`first_fit_cores`)."""
        if budget_s <= 0:
            return None
        return first_fit_cores(
            lambda cores: self.latency(layer, schedule, cores, interference),
            budget_s, self.cpu.cores)

    def llc_occupancy(self, layer: LayerSpec, schedule: Schedule,
                      cores: int) -> float:
        """Bytes of shared LLC the execution keeps live."""
        if cores < 1:
            raise ValueError("cores must be >= 1")
        run = self._isolated_run(layer, schedule, cores, layer.signature)
        return min(run.hot_bytes, self.cpu.llc.capacity_bytes / 2.0)

    def bandwidth_demand(self, layer: LayerSpec, schedule: Schedule,
                         cores: int) -> float:
        """Isolated DRAM bytes/second demand of the execution."""
        exe = self.execution(layer, schedule, cores, interference=0.0)
        return exe.dram_bytes / exe.total_s

    def pressure_contribution(self, layer: LayerSpec, schedule: Schedule,
                              cores: int) -> float:
        """This execution's contribution to system interference pressure.

        Weighted occupancy of the two contended resources the paper
        identifies (LLC capacity and memory bandwidth), in [0, 1].
        """
        p = self.params
        llc_frac = (self.llc_occupancy(layer, schedule, cores)
                    / self.cpu.llc.capacity_bytes)
        bw_frac = (self.bandwidth_demand(layer, schedule, cores)
                   / self.cpu.dram.bandwidth_bytes_per_s)
        raw = (p.pressure_llc_weight * llc_frac
               + p.pressure_bw_weight * min(1.0, bw_frac))
        return min(1.0, raw)
