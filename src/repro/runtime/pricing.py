"""Shared, size-bounded memo for block pricing results.

Identical blocks recur constantly in a serving simulation: the same
model prefix, compiled versions, core grant, and quantized pressure show
up across queries, across runs, and across policies — the QPS-with-95%-QoS
bisection alone re-simulates the same stream a dozen times.  The engine
therefore prices through a :class:`PricingCache` that the
:class:`~repro.serving.server.ServingStack` owns and shares across every
engine it builds, so a warm sweep eliminates most
:func:`~repro.runtime.tasks.block_duration` calls entirely.

The engine's entries are block *shapes*: the key is (model name, first
layer, stop layer, version tuple, batch), read once when a block starts,
and the value is that shape's price table, a plain dict holding the
pressure contribution under key ``cores`` and the (duration, miss
lines/s, access lines/s) triple under key ``(cores, pressure
quantum)``.  A table therefore holds at most 22 keys per core count (one
pressure, 21 quanta of 0.05 on [0, 1]); :attr:`max_entries` counts
shapes, not prices.  Running blocks keep their table, so evicting a
shape never touches a block in flight.

The cache is content-addressed, so sharing it across runs and policies
cannot change any result; a hit returns exactly what a recomputation
would.  Keys do *not* embed the cost model or CPU spec, so a cache must
never be shared across different cost models: the engine binds each
cache to the first cost model that prices through it
(:attr:`owner_token`) and rejects any other.  Eviction is batched FIFO:
when full, the oldest eighth of the entries is dropped in one pass,
keeping the steady-state cost of :meth:`put` at O(1) amortised without
per-access bookkeeping.
"""

from __future__ import annotations

import itertools
from typing import Hashable


class PricingCache:
    """Bounded key/value memo with hit-rate accounting.

    Values must not be ``None`` (a ``None`` return from :meth:`get`
    signals a miss; test for it with ``is None``, since an empty price
    table is falsy).  The engine stores one price table per block shape,
    and each :class:`~repro.scheduling.base.ModelProfile` its plan
    memo's rows, batched profiles and block plans; anything hashable
    works as a key.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions",
                 "owner_token", "_data")

    def __init__(self, max_entries: int = 1 << 18) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: The cost model whose prices this cache holds; set by the
        #: first engine that uses the cache, checked by every later one
        #: (keys do not embed the cost model, so cross-model sharing
        #: would silently return another machine's prices).
        self.owner_token: object | None = None
        self._data: dict[Hashable, object] = {}

    def get(self, key: Hashable):
        """Cached value for ``key``, or ``None`` on a miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        if value is None:
            raise ValueError("PricingCache values must not be None")
        data = self._data
        if len(data) >= self.max_entries and key not in data:
            drop = max(1, self.max_entries // 8)
            for stale in list(itertools.islice(iter(data), drop)):
                del data[stale]
            self.evictions += drop
        data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        """Snapshot for benchmarks and reports."""
        return {
            "entries": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
