"""Model registry and the paper's Table 2 serving configuration.

Each entry binds a zoo builder to its MLPerf-guided QoS (latency) target and
workload class.  Models are built once and cached; callers receive the
*fused* graph (element-wise epilogues folded into their compute layers),
which is the form the compiler and schedulers consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.models.graph import ModelGraph
from repro.models.zoo.bert import bert_large
from repro.models.zoo.efficientnet import efficientnet_b0
from repro.models.zoo.googlenet import googlenet
from repro.models.zoo.mobilenet import mobilenet_v2
from repro.models.zoo.resnet import resnet50
from repro.models.zoo.ssd import ssd_resnet34
from repro.models.zoo.yolo import tiny_yolov2

#: Workload classes from paper Table 2.
LIGHT = "light"
MEDIUM = "medium"
HEAVY = "heavy"

WORKLOAD_CLASSES = (LIGHT, MEDIUM, HEAVY)


@dataclass(frozen=True)
class ModelEntry:
    """Registry record: builder + Table 2 serving parameters."""

    name: str
    builder: Callable[[], ModelGraph]
    qos_ms: float
    workload_class: str
    category: str

    @property
    def qos_s(self) -> float:
        return self.qos_ms / 1e3


#: Paper Table 2, verbatim QoS targets.
_REGISTRY: dict[str, ModelEntry] = {
    entry.name: entry
    for entry in (
        ModelEntry("resnet50", resnet50, 15.0, MEDIUM, "classification"),
        ModelEntry("googlenet", googlenet, 15.0, MEDIUM, "classification"),
        ModelEntry("efficientnet_b0", efficientnet_b0, 10.0, LIGHT,
                   "classification"),
        ModelEntry("mobilenet_v2", mobilenet_v2, 10.0, LIGHT,
                   "classification"),
        ModelEntry("ssd_resnet34", ssd_resnet34, 100.0, HEAVY, "detection"),
        ModelEntry("tiny_yolov2", tiny_yolov2, 10.0, LIGHT, "detection"),
        ModelEntry("bert_large", bert_large, 130.0, HEAVY, "nmt"),
    )
}

#: Friendly aliases accepted by :func:`get_entry`.
_ALIASES = {
    "resnet-50": "resnet50",
    "efficientnet": "efficientnet_b0",
    "mobilenet": "mobilenet_v2",
    "mobilenet-v2": "mobilenet_v2",
    "ssd": "ssd_resnet34",
    "tiny-yolov2": "tiny_yolov2",
    "bert": "bert_large",
    "bert-large": "bert_large",
}


def model_names() -> list[str]:
    """All canonical model names, Table 2 order."""
    return list(_REGISTRY)


def get_entry(name: str) -> ModelEntry:
    """Look up a registry entry by canonical name or alias."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise KeyError(f"unknown model {name!r}; known models: {known}")
    return _REGISTRY[key]


@lru_cache(maxsize=None)
def get_model(name: str) -> ModelGraph:
    """Build (and cache) a model's fused graph by canonical name or alias.

    Element-wise epilogues are folded into their compute layers — the
    compiler's view of the model.  The unfused graph is
    ``get_entry(name).builder()``.
    """
    return get_entry(name).builder().fuse_elementwise()
