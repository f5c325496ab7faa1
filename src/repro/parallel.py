"""The shared ``fork`` worker pool and the point-function sweep on it.

Sweeps, capacity bisections and parallel layer compilation all apply a
*point function* to independent points; :func:`sweep` runs that shape
serially, on an ephemeral pool, or on a persistent :func:`point_pool`,
and owns the fail-soft contract for every caller.  The point function
is a closure over the scenario (a compiled stack, a compiler) and is
never pickled: ``fork`` hands it to the workers through the pool
initializer, and what it closes over travels by copy-on-write.  Only
points and results are pickled.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from collections.abc import Callable, Sequence

#: The point function of *this* worker process, installed by the pool
#: initializer in the forked child; the parent never assigns it.
_POINT_FN: Callable | None = None


def _install(fn: Callable) -> None:
    global _POINT_FN
    _POINT_FN = fn


def _apply(point):
    return _POINT_FN(point)


@contextlib.contextmanager
def fork_worker_pool(workers: int, initializer: Callable | None = None,
                     initargs: tuple = ()):
    """A ``fork``-pinned process pool, or ``None`` when unavailable.

    Workers inherit their scenario (compiled stacks, compiler state) by
    copy-on-write, which only the ``fork`` start method provides —
    ``spawn``/``forkserver`` would have to pickle that state.  On
    platforms without ``fork`` (Windows; macOS configured spawn-only) —
    or when process creation itself fails — this yields ``None``
    instead of raising, and every caller treats a ``None`` pool as the
    serial in-process path.  Results are identical either way; only
    wall-clock differs.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield None  # spawn-only platform: documented serial fallback
        return
    if multiprocessing.current_process().daemon:
        # Pool workers are daemonic and may not have children of their
        # own (Pool() raises AssertionError, not OSError) — e.g. a
        # sweep worker lazily compiling with REPRO_COMPILE_WORKERS > 1.
        # Nested fan-out degrades to the serial path instead.
        yield None
        return
    context = multiprocessing.get_context("fork")
    try:
        pool = context.Pool(processes=max(1, int(workers)),
                            initializer=initializer, initargs=initargs)
    except OSError:
        yield None  # fork/pipe failure: fail soft to the serial path
        return
    try:
        yield pool
    finally:
        pool.terminate()
        pool.join()


@contextlib.contextmanager
def point_pool(fn: Callable, workers: int,
               warm: Callable[[], None] | None = None):
    """A persistent pool for repeated :func:`sweep` calls over ``fn``.

    Workers survive from one sweep to the next, so their copy-on-write
    caches stay warm across the rounds of a capacity search.  ``warm``
    runs before the fork and builds what the workers read, so they
    share it copy-on-write.  Yields ``None`` where
    :func:`fork_worker_pool` does.
    """
    if warm is not None:
        warm()
    with fork_worker_pool(workers, initializer=_install,
                          initargs=(fn,)) as pool:
        if pool is not None:
            pool.point_fn = fn
        yield pool


def _map(pool, points: list) -> list:
    try:
        return pool.map(_apply, points)
    except OSError:
        # A worker/pipe died mid-run (e.g. OOM-killed): recompute this
        # batch serially rather than abort a whole capacity search;
        # later rounds fall back the same way if the pool stays broken.
        return [pool.point_fn(point) for point in points]


def sweep(fn: Callable, points: Sequence, workers: int | None = None,
          pool=None, warm: Callable[[], None] | None = None) -> list:
    """``[fn(point) for point in points]``, optionally across processes.

    Runs on ``pool`` (a :func:`point_pool` built over ``fn``), else on
    an ephemeral pool of ``workers`` processes when more than one is
    useful (``warm`` runs first), else serially in-process.  Points are
    independent simulations, so every path returns the same results in
    the same order; only wall-clock differs.
    """
    points = list(points)
    if pool is not None:
        return _map(pool, points)
    requested = min(1 if workers is None else max(1, int(workers)),
                    len(points))
    if requested > 1:
        with point_pool(fn, requested, warm=warm) as ephemeral:
            if ephemeral is not None:
                return _map(ephemeral, points)
    return [fn(point) for point in points]
