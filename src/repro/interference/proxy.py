"""The performance-counter interference proxy (paper Sec. 4.3, Fig. 11).

Two artifacts are reproduced here:

* a **PCA analysis** over counter windows collected from randomized
  co-location scenarios, showing L3-related counters dominate the
  variance (paper Fig. 11a);
* a **linear proxy** that predicts the interference pressure level from
  the L3 miss rate and L3 access counters alone (paper Fig. 11b), fitted
  by least squares on the same scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import make_rng
from repro.hardware.counters import COUNTER_NAMES, counters_from_execution
from repro.compiler.costmodel import CostModel
from repro.compiler.library import CompiledModel

#: Largest co-location group :func:`collect_aggregate_samples` draws.
MAX_CORUNNERS = 6


@dataclass(frozen=True)
class ProxySample:
    """One training/validation row: counters + the true pressure level."""

    counters: tuple[float, ...]
    measured_interference: float
    measured_slowdown: float


def collect_samples(cost_model: CostModel,
                    compiled_models: list[CompiledModel],
                    scenarios: int = 300,
                    seed: int | None = None) -> list[ProxySample]:
    """Generate counter windows from randomized co-location scenarios.

    Each scenario draws a random layer, code version, core grant and
    co-runner pressure, executes it under the cost model, and records the
    synthesized counters together with the pressure and the resulting
    slowdown vs isolation — the quantity the paper's proxy predicts.
    """
    rng = make_rng(seed)
    cpu = cost_model.cpu
    all_layers = []
    for model in compiled_models:
        all_layers.extend(model.layers)
    if not all_layers:
        raise ValueError("need at least one compiled model")

    samples = []
    for _ in range(scenarios):
        entry = all_layers[int(rng.integers(0, len(all_layers)))]
        version = entry.versions[int(rng.integers(0, len(entry.versions)))]
        cores = int(rng.integers(4, cpu.cores // 2 + 1))
        pressure = float(rng.uniform(0.0, 1.0))
        execution = cost_model.execution(entry.layer, version, cores,
                                         pressure)
        isolated = cost_model.execution(entry.layer, version, cores, 0.0)
        counters = counters_from_execution(execution, cpu.frequency_hz)
        samples.append(ProxySample(
            counters=tuple(counters.as_vector()),
            measured_interference=pressure,
            measured_slowdown=execution.total_s / isolated.total_s,
        ))
    return samples


def collect_aggregate_samples(cost_model: CostModel,
                              compiled_models: list[CompiledModel],
                              scenarios: int = 300,
                              seed: int | None = None) -> list[ProxySample]:
    """System-level counter windows from randomized co-location sets.

    This is the training distribution of the *runtime* proxy: the monitor
    samples chip-wide L3 counters (summed over co-runners) and must
    recover the total pressure a newly scheduled block would face.
    """
    rng = make_rng(seed)
    cpu = cost_model.cpu
    all_layers = []
    for model in compiled_models:
        all_layers.extend(model.layers)
    if not all_layers:
        raise ValueError("need at least one compiled model")

    samples = []
    for _ in range(scenarios):
        group = int(rng.integers(1, MAX_CORUNNERS + 1))
        picks = []
        for _ in range(group):
            entry = all_layers[int(rng.integers(0, len(all_layers)))]
            version = entry.versions[int(rng.integers(0,
                                                      len(entry.versions)))]
            cores = int(rng.integers(4, max(5, cpu.cores // group + 1)))
            picks.append((entry.layer, version, cores))
        contributions = [
            cost_model.pressure_contribution(layer, version, cores)
            for layer, version, cores in picks]
        total_pressure = min(1.0, sum(contributions))

        misses = 0.0
        accesses = 0.0
        slowdowns = []
        for index, (layer, version, cores) in enumerate(picks):
            felt = min(1.0, total_pressure - contributions[index])
            execution = cost_model.execution(layer, version, cores, felt)
            misses += execution.dram_line_misses / execution.total_s
            accesses += execution.llc_line_accesses / execution.total_s
            slowdowns.append(execution.slowdown)
        miss_rate = misses / accesses if accesses > 0 else 0.0
        samples.append(ProxySample(
            counters=(miss_rate, accesses, 0.0, 0.0, 0.0, 0.0),
            measured_interference=total_pressure,
            measured_slowdown=float(np.mean(slowdowns)),
        ))
    return samples


@dataclass(frozen=True)
class PcaReport:
    """Principal component analysis over normalized counter windows."""

    names: tuple[str, ...]
    explained_ratio: tuple[float, ...]
    #: Per-counter share of the first principal component (|loading|).
    dominant_loadings: dict[str, float]


def pca_analysis(samples: list[ProxySample]) -> PcaReport:
    """PCA over counters, weighted by correlation with the slowdown.

    Raw counters have incomparable units; as in the paper's methodology,
    each counter is standardised and scaled by its absolute correlation
    with the measured slowdown, so the variance decomposition reflects
    interference-relevant signal rather than unit choices.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples for PCA")
    matrix = np.array([s.counters for s in samples], dtype=float)
    target = np.array([s.measured_slowdown for s in samples])
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    normalized = (matrix - matrix.mean(axis=0)) / std
    correlations = np.array([
        abs(np.corrcoef(normalized[:, i], target)[0, 1])
        if normalized[:, i].std() > 0 else 0.0
        for i in range(normalized.shape[1])])
    correlations = np.nan_to_num(correlations)
    weighted = normalized * correlations

    _, singular, vt = np.linalg.svd(weighted, full_matrices=False)
    variance = singular ** 2
    explained = variance / variance.sum()
    first_pc = np.abs(vt[0])
    loading_share = first_pc / first_pc.sum()
    return PcaReport(
        names=COUNTER_NAMES,
        explained_ratio=tuple(float(x) for x in explained),
        dominant_loadings={name: float(share) for name, share
                           in zip(COUNTER_NAMES, loading_share)},
    )


@dataclass(frozen=True)
class LinearInterferenceProxy:
    """``pressure ~= w_miss * miss_rate + w_acc * accesses + bias``.

    The paper keeps only the two L3 counters after PCA; so does this
    proxy.  Access rates are normalised by ``access_scale`` (a fitted
    constant) to keep the weights O(1).
    """

    w_miss_rate: float
    w_accesses: float
    bias: float
    access_scale: float

    def predict(self, l3_miss_rate: float,
                l3_accesses_per_s: float) -> float:
        raw = (self.w_miss_rate * l3_miss_rate
               + self.w_accesses * (l3_accesses_per_s / self.access_scale)
               + self.bias)
        return min(1.0, max(0.0, raw))

    def predict_sample(self, sample: ProxySample) -> float:
        return self.predict(sample.counters[0], sample.counters[1])


def estimate_system_pressure(engine, proxy: LinearInterferenceProxy | None
                             ) -> float:
    """The runtime's interference estimate for one node/engine.

    With a fitted proxy the estimate comes from the engine's chip-wide
    L3 counters — what a monitoring agent would export, and the only
    signal real hardware offers.  Without one, the simulator's planning
    pressure (which already applies the soon-to-finish filter) acts as
    an oracle.  This is the single estimation contract shared by the
    adaptive schedulers and the cluster's ``pressure_aware`` router;
    callers that key caches on the estimate quantize it themselves
    (``engine.quantize_pressure``).

    With a proxy the value is the engine's stored read
    (``engine.counter_estimate``, kept with ``engine.counter_proxy``):
    it is computed once per counter change and per proxy object, and
    every read until the counters move returns the same float.
    """
    if proxy is not None:
        if engine.counter_proxy is proxy:
            return engine.counter_estimate
        miss_rate, accesses = engine.system_counters()
        # An idle machine has nothing to interfere with.
        value = (proxy.predict(miss_rate, accesses) if accesses > 0.0
                 else 0.0)
        engine.counter_proxy = proxy
        engine.counter_estimate = value
        return value
    return engine.pressure()


def fit_proxy(samples: list[ProxySample]) -> LinearInterferenceProxy:
    """Least-squares fit of the two-counter linear proxy."""
    if len(samples) < 4:
        raise ValueError("need at least 4 samples to fit the proxy")
    accesses = np.array([s.counters[1] for s in samples])
    scale = float(accesses.mean()) or 1.0
    design = np.column_stack([
        [s.counters[0] for s in samples],
        accesses / scale,
        np.ones(len(samples)),
    ])
    target = np.array([s.measured_interference for s in samples])
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    return LinearInterferenceProxy(
        w_miss_rate=float(coeffs[0]),
        w_accesses=float(coeffs[1]),
        bias=float(coeffs[2]),
        access_scale=scale,
    )


def proxy_accuracy(proxy: LinearInterferenceProxy,
                   samples: list[ProxySample]) -> dict[str, float]:
    """Mean absolute error and R^2 of the proxy on a sample set."""
    predicted = np.array([proxy.predict_sample(s) for s in samples])
    actual = np.array([s.measured_interference for s in samples])
    residual = actual - predicted
    total = actual - actual.mean()
    ss_res = float((residual ** 2).sum())
    ss_tot = float((total ** 2).sum()) or 1.0
    return {
        "mae": float(np.abs(residual).mean()),
        "r2": 1.0 - ss_res / ss_tot,
    }
