"""Scheduling policies: baselines, granularity studies, and VELTAIR."""
