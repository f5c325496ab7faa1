"""Arrival-process shapes behind the scenario library.

Each process is a frozen *shape*: its parameters describe burstiness,
periodicity, or churn, and :meth:`ArrivalProcess.sample_times` scales
that shape to any offered load.  Every generator draws exclusively from
the ``numpy`` generator it is handed, so a fixed seed reproduces the
stream bit for bit — the same contract the legacy Poisson path has
always had.

Two invariants make the shapes composable with capacity searches:

* **Rate normalisation** — for the stationary processes (Poisson,
  uniform, MMPP, tenant churn) and whole periods of the diurnal ramp,
  the long-run mean arrival rate equals ``qps`` exactly.  The
  flash-crowd process deliberately exceeds ``qps`` inside its spike
  window (the transient overload *is* the scenario) and matches it
  outside.
* **Span-relative time constants** — a ``count``-query stream spans
  roughly ``count / qps`` seconds, so a burst cycle fixed in absolute
  seconds would degenerate as a bisection drives ``qps`` up (the stream
  would end before the first burst).  Non-stationary shapes therefore
  express their time constants as fractions of the expected span: a
  capacity search probes the *same shape* at every offered load.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrivalProcess(abc.ABC):
    """A load *shape* scalable to any mean offered rate.

    Subclasses implement :meth:`sample_times`; frozen-dataclass equality
    lets scenario tuples be compared across process boundaries (the
    sweep pools reject mismatched scenarios by ``==``).
    """

    @property
    def kind(self) -> str:
        return type(self).__name__

    @abc.abstractmethod
    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        """``count`` increasing arrival instants with mean rate ``qps``."""

    def _validate(self, qps: float, count: int) -> None:
        if not qps > 0:
            raise ValueError("qps must be positive")
        if count <= 0:
            raise ValueError("count must be positive")


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """The paper's stationary Poisson stream (MLPerf server scenario).

    Draw-for-draw identical to the legacy
    :func:`repro.serving.workload.poisson_queries` arrival generation:
    one vectorised exponential gap draw, then a cumulative sum.
    """

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        gaps = rng.exponential(scale=1.0 / qps, size=count)
        return np.cumsum(gaps)


@dataclass(frozen=True)
class UniformArrivals(ArrivalProcess):
    """Deterministic uniform arrivals (the Fig. 3 granularity protocol).

    Consumes no randomness: arrival ``i`` lands at ``(i + 1) / qps``,
    matching :func:`repro.serving.workload.uniform_queries`.
    """

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        period = 1.0 / qps
        return period * np.arange(1, count + 1, dtype=float)


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty load).

    The process alternates between a *calm* and a *burst* state with
    exponentially distributed dwell times; arrivals are Poisson at the
    state's rate.  ``burst_ratio`` is the burst/calm rate ratio,
    ``burst_fraction`` the long-run fraction of *time* spent bursting,
    and ``cycles`` the expected number of calm+burst cycles per stream
    (span-relative, see the module docstring).  Rates solve::

        rate_calm * (1 - f) + rate_calm * ratio * f = qps

    so the time-averaged rate is exactly ``qps``.  Sampling uses the
    memorylessness race between "next arrival at the state rate" and
    "state flips": whichever exponential fires first wins, which is an
    exact MMPP simulation (no thinning bias).
    """

    burst_ratio: float = 6.0
    burst_fraction: float = 0.2
    cycles: float = 5.0

    def __post_init__(self) -> None:
        if not self.burst_ratio > 1.0:
            raise ValueError("burst_ratio must exceed 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if not self.cycles > 0.0:
            raise ValueError("cycles must be positive")

    def state_rates(self, qps: float) -> tuple[float, float]:
        """(calm rate, burst rate) whose time average is ``qps``."""
        f = self.burst_fraction
        calm = qps / ((1.0 - f) + f * self.burst_ratio)
        return calm, calm * self.burst_ratio

    def dwell_means(self, qps: float, count: int) -> tuple[float, float]:
        """Mean (calm, burst) dwell times for a ``count``-query stream."""
        cycle_s = (count / qps) / self.cycles
        return (cycle_s * (1.0 - self.burst_fraction),
                cycle_s * self.burst_fraction)

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        rates = self.state_rates(qps)
        dwells = self.dwell_means(qps, count)
        times = np.empty(count)
        now = 0.0
        state = 0  # start calm: the steady regime, bursts punctuate it
        produced = 0
        while produced < count:
            gap = rng.exponential(scale=1.0 / rates[state])
            flip = rng.exponential(scale=dwells[state])
            if flip < gap:
                now += flip
                state = 1 - state
                continue
            now += gap
            times[produced] = now
            produced += 1
        return times


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal diurnal ramp: rate(t) = qps * (1 + a * sin(2 pi t / T)).

    An inhomogeneous Poisson process sampled by Lewis-Shedler thinning
    against the peak rate ``qps * (1 + amplitude)``; the time-averaged
    rate over whole periods is exactly ``qps``.  ``periods`` compresses
    that many simulated "days" into the expected stream span
    (span-relative, see the module docstring).
    """

    amplitude: float = 0.6
    periods: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude < 1.0:
            raise ValueError("amplitude must be in (0, 1)")
        if not self.periods > 0.0:
            raise ValueError("periods must be positive")

    def period_s(self, qps: float, count: int) -> float:
        return (count / qps) / self.periods

    def rate_at(self, qps: float, t: float, period_s: float) -> float:
        return qps * (1.0 + self.amplitude
                      * math.sin(2.0 * math.pi * t / period_s))

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        period = self.period_s(qps, count)
        peak = qps * (1.0 + self.amplitude)
        times = np.empty(count)
        now = 0.0
        produced = 0
        while produced < count:
            now += rng.exponential(scale=1.0 / peak)
            if rng.random() * peak <= self.rate_at(qps, now, period):
                times[produced] = now
                produced += 1
        return times


@dataclass(frozen=True)
class FlashCrowdArrivals(ArrivalProcess):
    """Baseline Poisson load with one flash-crowd spike window.

    Rate is ``qps`` outside the window and ``spike_ratio * qps`` inside
    it; the window starts ``start_frac`` of the way into the expected
    stream span and lasts ``width_frac`` of it (span-relative, see the
    module docstring) — the transient overload regime admission control
    exists for.  The stream's realised mean rate therefore *exceeds*
    ``qps``; that is the scenario, not a bug.
    """

    spike_ratio: float = 8.0
    start_frac: float = 0.4
    width_frac: float = 0.15

    def __post_init__(self) -> None:
        if not self.spike_ratio > 1.0:
            raise ValueError("spike_ratio must exceed 1")
        if not self.start_frac >= 0.0:
            raise ValueError("start_frac must be non-negative")
        if not self.width_frac > 0.0:
            raise ValueError("width_frac must be positive")

    def spike_window(self, qps: float, count: int) -> tuple[float, float]:
        span = count / qps
        start = span * self.start_frac
        return start, start + span * self.width_frac

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        start, stop = self.spike_window(qps, count)
        peak = qps * self.spike_ratio
        times = np.empty(count)
        now = 0.0
        produced = 0
        while produced < count:
            now += rng.exponential(scale=1.0 / peak)
            rate = peak if start <= now < stop else qps
            if rng.random() * peak <= rate:
                times[produced] = now
                produced += 1
        return times


@dataclass(frozen=True)
class TenantChurnArrivals(ArrivalProcess):
    """Tenant join/leave churn over a shared service (M/M/inf tenants).

    ``mean_tenants`` independent tenants are active in steady state,
    each issuing Poisson queries; tenants leave at a per-tenant rate
    chosen so each turns over ``turnovers`` times per expected stream
    span (span-relative, see the module docstring), and join at rate
    ``mean_tenants`` times that, so the active population is an
    M/M/inf birth-death process whose mean is ``mean_tenants``.  The
    per-tenant query rate is ``qps / mean_tenants``, making the
    long-run mean arrival rate ``qps`` while the instantaneous rate
    wanders with the population.  Simulated exactly by Gillespie
    competition between query arrival, tenant join, and tenant leave.
    """

    mean_tenants: int = 8
    turnovers: float = 4.0

    def __post_init__(self) -> None:
        if not self.mean_tenants >= 1:
            raise ValueError("mean_tenants must be at least 1")
        if not self.turnovers > 0.0:
            raise ValueError("turnovers must be positive")

    def sample_times(self, qps: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
        self._validate(qps, count)
        per_tenant = qps / self.mean_tenants
        churn_per_s = self.turnovers / (count / qps)
        join_rate = self.mean_tenants * churn_per_s
        times = np.empty(count)
        now = 0.0
        active = self.mean_tenants  # start at the steady-state mean
        produced = 0
        while produced < count:
            query_rate = active * per_tenant
            leave_rate = active * churn_per_s
            total = query_rate + join_rate + leave_rate
            now += rng.exponential(scale=1.0 / total)
            draw = rng.random() * total
            if draw < query_rate:
                times[produced] = now
                produced += 1
            elif draw < query_rate + join_rate:
                active += 1
            elif active > 0:
                active -= 1
        return times
