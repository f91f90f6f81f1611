"""Small caching helpers used by the QA models and parsers.

Parsing and attention are the most expensive stages of the GCED pipeline
and are frequently re-invoked on the same sentence (e.g. once by ASE, once
by WSPTC, once per clip candidate when re-scoring).  A bounded LRU cache
keyed on the raw text keeps the pipeline near-linear in practice.

``MISSING`` is the shared not-found sentinel: ``cache.get(key, MISSING)``
distinguishes "never cached" from "cached a falsy value" (including
``None``), which plain ``get(key) is None`` cannot.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

__all__ = ["CacheSnapshot", "LRUCache", "MISSING", "memoize_method"]


class _MissingType:
    """Singleton sentinel distinct from every cacheable value."""

    _instance: "_MissingType | None" = None

    def __new__(cls) -> "_MissingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _MissingType()

_MEMO_CREATE_LOCK = threading.Lock()


class CacheSnapshot(NamedTuple):
    """A consistent point-in-time view of one :class:`LRUCache`.

    ``bytes`` is 0 unless the cache was built with a ``size_estimator``.
    Compares equal to a plain ``(hits, misses, size, bytes)`` tuple.
    """

    hits: int
    misses: int
    size: int
    bytes: int = 0


class LRUCache:
    """A minimal least-recently-used cache with a fixed capacity.

    Lookups and insertions are guarded by a lock, so instances can be
    shared by the threads of a
    :class:`~repro.engine.executor.ParallelExecutor`.

    Besides the entry-count ``capacity``, a cache may be bounded by a
    *byte budget*: pass ``size_estimator`` (a callable ``value -> int``
    giving the byte footprint of one cached value) together with
    ``max_bytes``, and the least-recently-used entries are evicted until
    the measured total fits the budget.  The measurement is taken at
    :meth:`put` time; values that grow afterwards (lazily compiled
    artifacts) call :meth:`reaccount` so the accounted total tracks the
    estimator exactly — with cooperating values the budget is an
    invariant, not a guideline.  The estimator runs under the lock on
    every :meth:`put` and :meth:`reaccount`, so it should be O(1): values
    that grow keep their own running total and the estimator reads it
    (compiled contexts keep ``nbytes``; a full re-walk per fill took
    about 30% of a profiled fresh distill).  The most recent entry is
    never evicted on byte pressure, so a single oversized value still
    caches (a cache that rejects its own inserts would silently degrade
    to a 0% hit rate).

    A cache may also carry a read-through ``loader`` (installed after
    construction, e.g. by the pipeline-snapshot plane): on a :meth:`get`
    miss the loader is consulted with the key and, when it yields a value
    (anything but ``MISSING``), the value is inserted and returned.
    Loader traffic is counted separately (``loader_hits`` /
    ``loader_misses``) so hit rates keep measuring real cache behaviour.
    Loaders never pickle with the cache.

    >>> cache = LRUCache(capacity=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None
    True
    >>> cache.get("c")
    3
    """

    def __init__(
        self,
        capacity: int = 1024,
        size_estimator: Callable[[Any], int] | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if max_bytes is not None and size_estimator is None:
            raise ValueError("max_bytes requires a size_estimator")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._estimate = size_estimator
        self._sizes: dict[Hashable, int] | None = (
            {} if size_estimator is not None else None
        )
        self._bytes = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.loader: Callable[[Hashable], Any] | None = None
        self.loader_hits = 0
        self.loader_misses = 0
        self._lock = threading.RLock()

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        # Loaders close over process-local resources (snapshot segments)
        # and never travel; the receiving process re-attaches its own.
        state["loader"] = None
        from repro.engine.snapshot import externalizing

        if externalizing():
            # Snapshot-plane pickling: the warm entries ride the shared
            # snapshot segment instead of the payload, so the pickled
            # cache is an empty shell that rehydrates read-through.
            state["_data"] = OrderedDict()
            if state["_sizes"] is not None:
                state["_sizes"] = {}
            state["_bytes"] = 0
            state["hits"] = 0
            state["misses"] = 0
            state["loader_hits"] = 0
            state["loader_misses"] = 0
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Pickles from before the read-through loader existed lack the
        # loader fields; default them so hydration wiring stays optional.
        self.__dict__.setdefault("loader", None)
        self.__dict__.setdefault("loader_hits", 0)
        self.__dict__.setdefault("loader_misses", 0)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value, refreshing its recency, or ``default``.

        Pass ``default=MISSING`` to tell a cached ``None`` (a hit) apart
        from an absent key (a miss).  Misses consult the read-through
        ``loader`` (if installed) before giving up; the lock is released
        around the loader call, so a slow load never blocks other
        threads' lookups.
        """
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is not MISSING:
                self.hits += 1
                self._data.move_to_end(key)
                return value
            self.misses += 1
            loader = self.loader
        if loader is not None:
            loaded = loader(key)
            if loaded is not MISSING:
                with self._lock:
                    self.loader_hits += 1
                self.put(key, loaded)
                return loaded
            with self._lock:
                self.loader_misses += 1
        return default

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Stats-free lookup: no hit/miss counting, no recency refresh.

        For probes that are not part of the cache's own workload — e.g.
        a side cache checking whether the main cache already holds a
        value — so observability counters keep measuring real traffic.
        """
        with self._lock:
            value = self._data.get(key, MISSING)
            return default if value is MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting least-recently-used entries while the
        cache exceeds its entry capacity or (estimated) byte budget."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                if self._sizes is not None:
                    self._bytes -= self._sizes.pop(key, 0)
            self._data[key] = value
            if self._sizes is not None:
                size = int(self._estimate(value))
                self._sizes[key] = size
                self._bytes += size
            while len(self._data) > self.capacity or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._data) > 1
            ):
                evicted, _ = self._data.popitem(last=False)
                if self._sizes is not None:
                    self._bytes -= self._sizes.pop(evicted, 0)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A point-in-time list of ``(key, value)`` pairs, LRU-first.

        Taken under the lock (safe against concurrent mutation); used by
        the snapshot plane to export warm entries without recency churn.
        """
        with self._lock:
            return list(self._data.items())

    def reaccount(self, key: Hashable) -> int:
        """Re-measure one entry's byte footprint after it grew in place.

        Lazily-materialized values (compiled-context tables) call this
        through their owning cache binding whenever a new table fills in,
        so the accounted total always equals the estimator applied to the
        *current* values — making ``max_bytes`` a real invariant.  A
        compiled context has already added the filled table's bytes to its
        running ``nbytes``, so re-measuring is one O(1) read and the lock
        is held only for the delta and any evictions.  Runs the same
        eviction loop as :meth:`put`; returns the new size (0 if the key
        is absent or the cache has no estimator).
        """
        if self._sizes is None:
            return 0
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is MISSING:
                return 0
            size = int(self._estimate(value))
            self._bytes += size - self._sizes.get(key, 0)
            self._sizes[key] = size
            while (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._data) > 1
            ):
                evicted, _ = self._data.popitem(last=False)
                self._bytes -= self._sizes.pop(evicted, 0)
            return size

    def record_hits(self, n: int = 1) -> None:
        """Credit ``n`` hits that were served without a :meth:`get` lookup.

        Batch deduplication resolves several logical lookups with one
        physical distillation; callers credit the extra occurrences here
        instead of mutating ``hits`` directly (which would race with the
        lock-guarded counter updates in :meth:`get`).
        """
        with self._lock:
            self.hits += n

    def snapshot(self) -> CacheSnapshot:
        """A consistent :class:`CacheSnapshot` taken under the lock."""
        with self._lock:
            return CacheSnapshot(
                self.hits, self.misses, len(self._data), self._bytes
            )

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            if self._sizes is not None:
                self._sizes.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.loader_hits = 0
            self.loader_misses = 0


def memoize_method(maxsize: int = 1024) -> Callable:
    """Decorator memoizing an instance method on hashable arguments.

    Unlike ``functools.lru_cache`` applied to a method, the cache lives on
    the *instance* (stored under ``_memo_<name>``), so instances can be
    garbage-collected and do not share entries.
    """

    def decorator(func: Callable) -> Callable:
        attr = f"_memo_{func.__name__}"

        @functools.wraps(func)
        def wrapper(self, *args):
            cache: LRUCache | None = getattr(self, attr, None)
            if cache is None:
                # Double-checked under a lock: concurrent first calls from
                # a thread pool must not each install their own cache.
                with _MEMO_CREATE_LOCK:
                    cache = getattr(self, attr, None)
                    if cache is None:
                        cache = LRUCache(capacity=maxsize)
                        setattr(self, attr, cache)
            value = cache.get(args, MISSING)
            if value is MISSING:
                value = func(self, *args)
                cache.put(args, value)
            return value

        return wrapper

    return decorator
