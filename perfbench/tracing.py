"""Wrapper-based span tracing for the traced (per-layer) run.

The simulator has no in-program spans yet, so the traced run records
them from here: each layer's public entry points are wrapped, and every
call made while recording is kept as one span ``(name, start, end,
parent span, op id)`` in compact in-memory arrays.  Self time is a
span's duration minus the durations of its direct child spans.

The wrappers are strictly observational.  They are installed only for
the traced run, :meth:`LayerTracer.restore` puts the original function
objects back, and :func:`assert_pristine` (called before any untraced
timing) fails loudly if anything is still wrapped.

Wrapped entry points, by span name:

========================================  ==================================
``models.signature``                      ``LayerSpec.signature`` (property)
``compiler.execution``                    ``CostModel.execution``
``scheduling.schedule``                   every policy's ``schedule``
``scheduling.plan``                       every policy's ``plan``
``scheduling.block_required_cores``       ``scheduling.base.block_required_cores``
``interference.estimate_system_pressure`` ``interference.proxy.estimate_system_pressure``
``runtime.engine.{run,drain,run_until}``  the engine's drive entry points
``runtime.engine.start_block``            ``Engine.start_block``
``runtime.engine.submit``                 ``Engine.submit``
``runtime.pricing.get``                   ``PricingCache.get`` on the engine's
                                          block-pricing cache only (planner
                                          memos that reuse the class are
                                          scheduling work, left unwrapped)
``runtime.block_duration``                ``runtime.tasks.block_duration``
``cluster.router.choose``                 every router's ``choose``
``cluster.admission.decide``              ``AdmissionController.decide``
``cluster.serve``                         ``Cluster.serve``
``workloads.next_request``                ``ClosedLoopTenant.next_request``
``serving.run_stream``                    ``ServingStack.run_stream``
``serving.summarize``                     ``serving.metrics.summarize``
========================================  ==================================

Module-level functions are imported by name into several modules
(``from repro.runtime.tasks import block_duration``), so a function
target is replaced in every loaded ``repro`` module that holds it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: Marker set on every wrapper, so a leftover wrapper is detectable.
_MARK = "__perfbench_wrapper__"

#: (module, attribute, span name): every class defined in the module
#: that has the attribute in its own ``__dict__`` gets it wrapped under
#: the span name.
_METHOD_SWEEPS = (
    ("repro.models.layers", "signature", "models.signature"),
    ("repro.compiler.costmodel", "execution", "compiler.execution"),
    ("repro.scheduling.base", "schedule", "scheduling.schedule"),
    ("repro.scheduling.base", "plan", "scheduling.plan"),
    ("repro.scheduling.dynamic_block", "plan", "scheduling.plan"),
    ("repro.scheduling.veltair", "plan", "scheduling.plan"),
    ("repro.scheduling.layerwise", "plan", "scheduling.plan"),
    ("repro.scheduling.fixed_block", "plan", "scheduling.plan"),
    ("repro.scheduling.gacer", "plan", "scheduling.plan"),
    ("repro.scheduling.fcfs_model", "plan", "scheduling.plan"),
    ("repro.scheduling.prema", "schedule", "scheduling.schedule"),
    ("repro.runtime.engine", "run", "runtime.engine.run"),
    ("repro.runtime.engine", "drain", "runtime.engine.drain"),
    ("repro.runtime.engine", "run_until", "runtime.engine.run_until"),
    ("repro.runtime.engine", "start_block", "runtime.engine.start_block"),
    ("repro.runtime.engine", "submit", "runtime.engine.submit"),
    ("repro.runtime.pricing", "get", "runtime.pricing.get"),
    ("repro.cluster.router", "choose", "cluster.router.choose"),
    ("repro.cluster.admission", "decide", "cluster.admission.decide"),
    ("repro.cluster.fleet", "serve", "cluster.serve"),
    ("repro.workloads.requests", "next_request", "workloads.next_request"),
    ("repro.serving.server", "run_stream", "serving.run_stream"),
)

#: Module-level functions: (defining module, name, span name).
_FUNCTIONS = (
    ("repro.scheduling.base", "block_required_cores",
     "scheduling.block_required_cores"),
    ("repro.interference.proxy", "estimate_system_pressure",
     "interference.estimate_system_pressure"),
    ("repro.runtime.tasks", "block_duration", "runtime.block_duration"),
    ("repro.serving.metrics", "summarize", "serving.summarize"),
)

#: Span names whose self time is the engine's own mechanics.
ENGINE_SPANS = ("runtime.engine.run", "runtime.engine.drain",
                "runtime.engine.run_until")


def _method_targets():
    """(owner class, attribute, span name) for every wrapped method."""
    targets = []
    for module_name, attr, span in _METHOD_SWEEPS:
        module = importlib.import_module(module_name)
        for _, cls in sorted(inspect.getmembers(module, inspect.isclass)):
            if cls.__module__ == module_name and attr in cls.__dict__:
                targets.append((cls, attr, span))
    return targets


def _function_targets():
    """(function, holder modules, name, span name) per wrapped function."""
    targets = []
    for module_name, name, span in _FUNCTIONS:
        original = getattr(importlib.import_module(module_name), name)
        holders = sorted(
            (module for loaded, module in list(sys.modules.items())
             if loaded.startswith("repro")
             and getattr(module, name, None) is original),
            key=lambda module: module.__name__)
        targets.append((original, holders, name, span))
    return targets


def assert_pristine() -> None:
    """Raise if any traced entry point is still a benchmark wrapper."""
    leftovers = []
    for cls, attr, span in _method_targets():
        value = cls.__dict__[attr]
        inner = value.fget if isinstance(value, property) else value
        if getattr(inner, _MARK, False):
            leftovers.append(f"{cls.__qualname__}.{attr}")
    for original, holders, name, _ in _function_targets():
        if getattr(original, _MARK, False):
            leftovers.append(f"{original.__module__}.{name}")
        for module in holders:
            if getattr(getattr(module, name), _MARK, False):
                leftovers.append(f"{module.__name__}.{name}")
    if leftovers:
        raise RuntimeError("tracing wrappers still installed: "
                           + ", ".join(leftovers))


class LayerTracer:
    """Installs the wrappers and records spans while :attr:`recording`.

    Outside recording (set-up, the warm-up op) the wrappers pass calls
    straight through, except that ``CostModel.execution`` keeps track
    of every result object it has returned: the memo hands back the
    identical object on a hit, so a result seen before is a memo hit
    and a new one is a miss.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._open: list[int] = []
        #: Op id stamped on recorded spans.
        self.op_id = -1
        #: Spans are recorded only while this is True.
        self.recording = False
        #: Engine block-pricing caches whose ``get`` calls are traced.
        self.pricing_caches: set[int] = set()
        self.pricing_hits = 0
        self.pricing_misses = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self._seen_results: dict[int, object] = {}
        self._restore: list = []

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, span: str, observe=None):
        """A recording wrapper around ``fn``.

        ``observe(result)`` (optional) runs after each call, recording or
        not.
        """
        name_id = self._name_id(span)
        perf = time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, stack = self.span_parent, self.span_op, self._open
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _observe_execution(self, result) -> None:
        key = id(result)
        if key in self._seen_results:
            if self.recording:
                self.memo_hits += 1
            return
        self._seen_results[key] = result  # pin: ids must not be reused
        if self.recording:
            self.memo_misses += 1

    def _wrap_pricing_get(self, fn):
        traced = self._wrap(fn, "runtime.pricing.get")
        caches = self.pricing_caches
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, key):
            if id(cache) not in caches:
                return fn(cache, key)
            result = traced(cache, key)
            if tracer.recording:
                if result is None:
                    tracer.pricing_misses += 1
                else:
                    tracer.pricing_hits += 1
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`restore` undoes exactly this."""
        if self._restore:
            raise RuntimeError("wrappers already installed")
        assert_pristine()
        for cls, attr, span in _method_targets():
            original = cls.__dict__[attr]
            if isinstance(original, property):
                replacement = property(self._wrap(original.fget, span),
                                       original.fset, original.fdel,
                                       original.__doc__)
            elif span == "runtime.pricing.get":
                replacement = self._wrap_pricing_get(original)
            elif span == "compiler.execution":
                replacement = self._wrap(original, span,
                                         observe=self._observe_execution)
            else:
                replacement = self._wrap(original, span)
            setattr(cls, attr, replacement)
            self._restore.append((cls, attr, original))
        for original, holders, name, span in _function_targets():
            replacement = self._wrap(original, span)
            for module in holders:
                setattr(module, name, replacement)
                self._restore.append((module, name, original))

    def restore(self) -> None:
        """Put the original function objects back, then verify."""
        self.recording = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        assert_pristine()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self seconds) over recorded spans."""
        count = len(self.span_start)
        if count == 0:
            return {}
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        duration = end - start
        child = np.zeros(count)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        calls = np.bincount(name, minlength=len(self.names))
        seconds = np.bincount(name, weights=own, minlength=len(self.names))
        return {span: (int(calls[i]), float(seconds[i]))
                for i, span in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Save the recorded spans (``np.load`` reads them back)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32))
