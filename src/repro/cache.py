"""The one eviction rule every in-process cache shares.

A :class:`BoundedStore` holds at most ``cap`` entries.  A store that is
full when a new key arrives drops every entry, then stores the new one.
Reuse is an optimisation, not state, and the stores that fill are the
ones whose keys stop repeating (an outage ensemble mints a topology per
scenario, a load ensemble a content hash per row), so a wholesale drop
loses nothing an LRU order would have kept.  The hit and miss counts
survive the drop; :meth:`BoundedStore.clear` resets them too.

Its users: the worker state's topology caches
(:class:`~repro.scenarios.runner.TopologyCache`), the contingency
outcome cache (:class:`~repro.contingency.cache.ContingencyCache`) and
each pool worker's resident study states (:mod:`repro.scenarios.executor`).
"""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class BoundedStore(Generic[K, V]):
    """A capped key-value store with hit and miss counts.

    ``None`` is never stored: :meth:`get` returns it for a miss.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self._entries: dict[K, V] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: K) -> V | None:
        """The value stored under ``key``, counted as a hit or a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: K, value: V) -> V:
        """Store ``value`` under ``key`` and return it.  A new key that
        finds the store full drops every entry first."""
        entries = self._entries
        if len(entries) >= self.cap and key not in entries:
            entries.clear()
        entries[key] = value
        return value

    def clear(self) -> None:
        """Drop every entry and reset the counts."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
