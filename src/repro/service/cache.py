"""TTL + LRU cache for the scan service's resident results.

A long-lived service keeps merged scan results resident between
requests, so paged fetches decode each completed ledger once. The
policy: entries expire after a TTL (a result nobody has asked about in
minutes should not pin memory forever) and the store is bounded
(inserting over capacity evicts the least recently used entry).

:class:`TTLCache` is that policy, deliberately tiny and dependency-free:
an ``OrderedDict`` in recency order plus per-entry deadlines. The clock
is injectable so tests drive expiry deterministically instead of
sleeping. Every operation is O(1); an expired entry is dropped when a
:meth:`~TTLCache.get` finds it. The cache is thread-safe — the service
reads it from executor threads while the server mutates it from
connection handlers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

__all__ = ["TTLCache"]


class TTLCache:
    """A bounded mapping with TTL expiry and LRU eviction.

    ``ttl`` is seconds until an entry expires (``None`` disables expiry:
    pure LRU); ``max_entries`` bounds residency. ``clock`` must be a
    monotonic float source (``time.monotonic`` by default; tests inject
    a fake). A :meth:`get` of a live entry refreshes its recency but not
    its deadline — TTL measures time since the entry was *stored*, so a
    steadily re-read entry still refreshes eventually unless re-``put``.
    """

    def __init__(
        self,
        max_entries: int = 64,
        ttl: float | None = None,
        *,
        clock=time.monotonic,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0 (or None), got {ttl}")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, deadline-or-None), in recency order (LRU first).
        self._entries: "OrderedDict[object, tuple[object, float | None]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key, default=None):
        """The live value for ``key`` (recency refreshed), else ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            value, deadline = entry
            if deadline is not None and self._clock() >= deadline:
                del self._entries[key]
                self.expirations += 1
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Store ``key`` (resetting its TTL deadline), evicting LRU overflow."""
        with self._lock:
            deadline = None if self.ttl is None else self._clock() + self.ttl
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (value, deadline)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "ttl_s": self.ttl,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
            }
