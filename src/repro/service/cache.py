"""LRU+TTL cache for trained split state.

The expensive object in the serving path is the trained state of one
``(dataset, split)`` pair — the stacked leave-one-out predictions a
:class:`~repro.core.batch.BatchedRankingMethod` produces in one tensor
pass.  :class:`SplitContextCache` keeps those objects warm between queries:

* keys are the stable content addresses of
  :func:`repro.core.batch.split_cache_key` (dataset fingerprint +
  predictive/target machine ids), so two clients presenting the same
  machine sets against byte-identical scores share one entry; and
* entries are held in **LRU** order with an optional **TTL**, so a serving
  process neither grows without bound nor serves stale state after the
  configured lifetime.

The cache is value-agnostic: the service stores its per-split state in it,
but any hashable-key/opaque-value pair works, which keeps the eviction
semantics directly testable.

For resilience testing the cache accepts a
:class:`~repro.service.faults.FaultInjector`: the ``cache_evict`` seam
drops a resident entry before a lookup (the request retrains — slower but
correct) and the ``cache_corrupt`` seam replaces a resident value with a
:class:`~repro.service.faults.CorruptedEntry` sentinel (the service
detects the wrong type, invalidates, and rebuilds).

Examples::

    >>> cache = SplitContextCache(capacity=2)
    >>> cache.put("split-a", 1)
    >>> cache.put("split-b", 2)
    >>> cache.get("split-a")
    1
    >>> cache.put("split-c", 3)   # evicts the least recently used: split-b
    >>> cache.get("split-b") is None
    True
    >>> cache.stats().evictions
    1
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.service.faults import CorruptedEntry, FaultInjector

__all__ = ["CacheStats", "SplitContextCache"]


@dataclass(frozen=True)
class CacheStats:
    """Counters describing a cache's behaviour since construction.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes (an expired entry counts as a miss).
    evictions:
        Entries dropped because the cache was at capacity.
    expirations:
        Entries dropped because their TTL elapsed.
    entries:
        Entries currently resident.

    Examples::

        >>> SplitContextCache(capacity=4).stats()
        CacheStats(hits=0, misses=0, evictions=0, expirations=0, entries=0)
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    entries: int = 0


class SplitContextCache:
    """LRU+TTL cache keyed by split content address, behind one lock.

    Parameters
    ----------
    capacity:
        Maximum number of resident entries; inserting past it evicts the
        least recently used entry.
    ttl:
        Entry lifetime in seconds measured from insertion; ``None`` (the
        default) disables expiry.  A lookup past the lifetime behaves as a
        miss and drops the entry.
    clock:
        Monotonic time source, injectable for tests.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector`; when given,
        the ``cache_evict`` / ``cache_corrupt`` seams fire ahead of
        lookups (chaos testing only — ``None`` in normal operation).

    Examples::

        >>> ticks = iter(range(100))
        >>> cache = SplitContextCache(capacity=4, ttl=5.0, clock=lambda: next(ticks))
        >>> cache.put("key", "value")          # inserted at t=0, expires at t=5
        >>> cache.get("key")                   # t=1: still fresh
        'value'
        >>> [cache.get("key") for _ in range(4)][-1] is None   # t=5: expired
        True
        >>> cache.stats().expirations
        1
    """

    def __init__(
        self,
        capacity: int = 64,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable expiry)")
        self.capacity = int(capacity)
        self.ttl = ttl
        self.fault_injector = fault_injector
        #: Faults actually applied to resident entries (chaos assertions).
        self.injected_evictions = 0
        self.injected_corruptions = 0
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (value, expiry timestamp or None), most recently used last.
        self._entries: "OrderedDict[Hashable, tuple[Any, float | None]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    # ---------------------------------------------- internals (lock held)
    def _lookup(self, key: Hashable) -> tuple[Any, bool]:
        """``(value, found)``, counting the hit or miss and dropping an expired entry."""
        entry = self._entries.get(key)
        if entry is not None:
            value, expiry = entry
            if expiry is None or self._clock() < expiry:
                self._entries.move_to_end(key)
                self._hits += 1
                return value, True
            del self._entries[key]
            self._expirations += 1
        self._misses += 1
        return None, False

    def _insert(self, key: Hashable, value: Any) -> None:
        self._entries.pop(key, None)
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1
        expiry = None if self.ttl is None else self._clock() + self.ttl
        self._entries[key] = (value, expiry)

    def _maybe_inject(self, key: Hashable) -> None:
        """Fire scheduled cache faults against *key* before a lookup."""
        injector = self.fault_injector
        if injector is None:
            return
        if injector.fires("cache_evict") and self.invalidate(key):
            self.injected_evictions += 1
        if injector.fires("cache_corrupt"):
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    # Preserve expiry and LRU position: corruption replaces
                    # the value in place, it is not a (re)insertion.
                    self._entries[key] = (CorruptedEntry(key), entry[1])
                    self.injected_corruptions += 1

    # ------------------------------------------------------------- operations
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value stored under *key*, or *default* on a miss/expiry."""
        self._maybe_inject(key)
        with self._lock:
            value, found = self._lookup(key)
        return value if found else default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert *value* under *key* (refreshing LRU position and TTL)."""
        with self._lock:
            self._insert(key, value)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, hit)``, building the value on a miss.

        The factory runs under the cache lock, so concurrent requests for
        the same key trigger exactly one build; it must stay cheap (the
        service's factory builds an empty split state — training happens
        later, under that state's own lock).
        """
        self._maybe_inject(key)
        with self._lock:
            value, hit = self._lookup(key)
            if not hit:
                value = factory()
                self._insert(key, value)
            return value, hit

    def invalidate(self, key: Hashable) -> bool:
        """Drop *key* if resident; True when an entry was removed.

        Used by the service to purge an entry it detected as corrupted.

        Examples::

            >>> cache = SplitContextCache(capacity=4)
            >>> cache.put("key", "value")
            >>> cache.invalidate("key")
            True
            >>> cache.invalidate("key")
            False
        """
        with self._lock:
            return self._entries.pop(key, None) is not None

    # ------------------------------------------------------------- inspection
    def stats(self) -> CacheStats:
        """Counters since construction, plus the resident entry count."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                entries=len(self._entries),
            )

    def snapshot(self) -> dict:
        """The cache's JSON accounting (``metrics.cache`` on the wire).

        The counters of :meth:`stats`, the derived ``hit_rate`` (``None``
        before any lookup) and the configured ``capacity``.

        Examples::

            >>> cache = SplitContextCache(capacity=4)
            >>> cache.put("key", "value")
            >>> _ = cache.get("key"); _ = cache.get("absent")
            >>> snap = cache.snapshot()
            >>> (snap["hits"], snap["misses"], snap["hit_rate"], snap["capacity"])
            (1, 1, 0.5, 4)
        """
        stats = self.stats()
        lookups = stats.hits + stats.misses
        return {
            **dataclasses.asdict(stats),
            "hit_rate": (stats.hits / lookups) if lookups else None,
            "capacity": self.capacity,
        }

    def clear(self) -> None:
        """Drop every resident entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of resident entries."""
        with self._lock:
            return len(self._entries)
