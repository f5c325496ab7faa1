"""Compilation substrate: schedule space, cost model, auto-scheduler, and
the paper's single-pass multi-version compiler (Alg. 1)."""

from repro.compiler.autoscheduler import AutoScheduler
from repro.compiler.costmodel import CostModel
from repro.compiler.interference_aware import multi_pass_search
from repro.compiler.multiversion import SinglePassCompiler

__all__ = [
    "AutoScheduler", "CostModel", "multi_pass_search", "SinglePassCompiler",
]
