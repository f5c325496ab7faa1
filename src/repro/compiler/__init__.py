"""Compilation substrate: schedule space, cost model, auto-scheduler, and
the paper's single-pass multi-version compiler (Alg. 1)."""

from repro.compiler.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    artifact_key,
    compile_layers,
    compiler_context,
    context_fingerprint,
    resolve_store,
)
from repro.compiler.autoscheduler import AutoScheduler, Measured, SearchResult
from repro.compiler.costmodel import CostBreakdown, CostModel, CostModelParams
from repro.compiler.interference_aware import (
    MultiPassResult,
    default_levels,
    multi_pass_search,
)
from repro.compiler.library import CompiledModel, ModelCompiler
from repro.compiler.multiversion import (
    CompiledLayer,
    SinglePassCompiler,
    extract_dominant,
    uniform_pick,
)
from repro.compiler.schedule import Schedule, num_tiles
from repro.compiler.space import ScheduleSpace
from repro.compiler.vendor import vendor_schedule

__all__ = [
    "ARTIFACT_SCHEMA", "ArtifactStore", "artifact_key", "compile_layers",
    "compiler_context", "context_fingerprint", "resolve_store",
    "AutoScheduler", "Measured", "SearchResult",
    "CostBreakdown", "CostModel", "CostModelParams",
    "MultiPassResult", "default_levels", "multi_pass_search",
    "CompiledModel", "ModelCompiler",
    "CompiledLayer", "SinglePassCompiler", "extract_dominant", "uniform_pick",
    "Schedule", "num_tiles", "ScheduleSpace", "vendor_schedule",
]
