"""Interference substrate: the linear performance-counter proxy."""

from repro.interference.proxy import (
    LinearInterferenceProxy,
    PcaReport,
    ProxySample,
    collect_samples,
    fit_proxy,
    pca_analysis,
    proxy_accuracy,
)

__all__ = [
    "LinearInterferenceProxy", "PcaReport", "ProxySample",
    "collect_samples", "fit_proxy", "pca_analysis", "proxy_accuracy",
]
