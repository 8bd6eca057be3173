"""A small bounded LRU mapping shared by the library's working caches.

Three layers keep per-object caches of recomputable values:
distance-code rows inside a
:class:`~repro.core.round_simulator.BroadcastSession`, packed Philox flip
windows inside :class:`~repro.beeping.noise.WindowedNoise` (the base of
every windowed channel), and masked epoch topologies inside
:class:`~repro.beeping.noise.DynamicTopology`.  All of them need the
same behaviour: stay below a fixed entry count, evict the least
recently *used* entry first (recurring keys are each cache's whole point),
and never affect results — every cached value is a pure function of its
key.  :class:`LRUDict` is that one behaviour, implemented once, on top of
the insertion-ordered ``dict``.
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

from .errors import ConfigurationError

__all__ = ["LRUDict"]

K = TypeVar("K")
V = TypeVar("V")


class LRUDict(Generic[K, V]):
    """A mapping bounded to ``limit`` entries with least-recently-used eviction.

    Recency is refreshed on both :meth:`get` hits and re-insertion, so
    hot keys survive churn from one-shot keys.  Not thread-safe — like
    the caches it replaces, instances are owned by a single session or
    code object.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"LRU limit must be >= 1, got {limit}")
        self._limit = limit
        self._entries: dict[K, V] = {}

    @property
    def limit(self) -> int:
        """The maximum number of entries the mapping will hold."""
        return self._limit

    @limit.setter
    def limit(self, limit: int) -> None:
        """Rebound the mapping, evicting oldest entries if it shrank."""
        if limit < 1:
            raise ConfigurationError(f"LRU limit must be >= 1, got {limit}")
        self._limit = limit
        while len(self._entries) > limit:
            self._entries.pop(next(iter(self._entries)))

    def get(self, key: K) -> "V | None":
        """Fetch a cached value, refreshing its recency on hit (None on miss)."""
        value = self._entries.get(key)
        if value is not None:
            # Move to the back of the insertion order: eviction takes from
            # the front, so recurring keys stay resident.
            self._entries[key] = self._entries.pop(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        """Insert (or refresh) ``key``, evicting oldest entries at the limit."""
        if key in self._entries:
            del self._entries[key]
        while len(self._entries) >= self._limit:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def __contains__(self, key: object) -> bool:
        """Membership test (does not refresh recency)."""
        return key in self._entries

    def __len__(self) -> int:
        """Number of resident entries (always ``<= limit``)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[K]:
        """Iterate keys oldest-first (eviction order)."""
        return iter(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUDict(limit={self._limit}, len={len(self._entries)})"
