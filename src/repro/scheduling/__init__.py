"""Scheduling policies: baselines, granularity studies, and VELTAIR."""

from repro.scheduling.base import (
    BlockPlan,
    ModelProfile,
    SpatialScheduler,
    block_required_cores,
    build_profile,
)
from repro.scheduling.dynamic_block import DynamicBlockScheduler
from repro.scheduling.fcfs_model import ModelWiseFcfs
from repro.scheduling.fixed_block import FixedBlockScheduler
from repro.scheduling.gacer import GacerScheduler
from repro.scheduling.layerwise import (
    AdaptiveCompilationOnly,
    LayerWiseScheduler,
)
from repro.scheduling.prema import PremaScheduler
from repro.scheduling.veltair import VeltairScheduler

__all__ = [
    "BlockPlan", "ModelProfile", "SpatialScheduler",
    "block_required_cores", "build_profile",
    "DynamicBlockScheduler",
    "ModelWiseFcfs", "FixedBlockScheduler", "GacerScheduler",
    "AdaptiveCompilationOnly", "LayerWiseScheduler",
    "PremaScheduler", "VeltairScheduler",
]
