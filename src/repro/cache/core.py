"""The kernel memo-cache: size-bounded LRU stores behind one enable flag.

The hot clausal kernels (``rclosure``, ``resolution_closure``,
``reduce``, ``count_models_exact``, ``prime_implicates``, and the blu
``mask``/``genmask`` call sites) are *pure functions of immutable
inputs*: a :class:`~repro.logic.clauses.ClauseSet` never changes after
construction, and every kernel output is itself immutable (a
``ClauseSet``, a ``frozenset``, or an ``int``).  Repeated-update
workloads (E10, E16, A4, the Abiteboul--Grahne and Wilkins baselines)
re-derive identical closures again and again; memoising them is a
correctness-preserving optimisation in the paper's Section 4 sense.

Design, mirroring ``repro.obs.core``:

* one process-wide enable flag (``_ENABLED``); instrumented kernels
  check it directly, so the disabled path costs a single global load --
  the cache is strictly **opt-in** and tier-1 counter totals are
  untouched while it is off;
* per-kernel :class:`KernelCache` stores (created lazily), each a
  size-bounded LRU over an :class:`~collections.OrderedDict` with
  hit/miss/eviction tallies;
* every hit/miss/eviction is *also* mirrored into ``repro.obs`` as
  ``cache.<kernel>.hits`` / ``.misses`` / ``.evictions`` counters, so
  traces and BENCH run records can report cache effectiveness next to
  kernel work.

Like the obs registry, the cache is deliberately process-wide:
memoised results are immutable values, so sharing them
across contexts is safe and is the whole point.  The store is not
guarded by a lock -- the REPL, the bench runner, and each ``--jobs``
worker process are single-threaded, and CPython dict operations keep
concurrent readers safe enough for a cache whose worst failure mode is
a spurious miss.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Mapping

from repro.obs import core as obs

__all__ = [
    "DEFAULT_CAPACITY",
    "MISS",
    "KernelCache",
    "enable_cache",
    "disable_cache",
    "cache_enabled",
    "cache_capacity",
    "clear_caches",
    "cache_stats",
    "merge_stats",
    "lookup",
    "store",
]

#: Entries kept per kernel before LRU eviction kicks in.  Sized for the
#: experiment suite: the largest states are a few thousand clause sets.
DEFAULT_CAPACITY = 4096

#: Sentinel distinguishing "not cached" from legitimately falsy results
#: (``count_models_exact`` can return 0; an empty ClauseSet is falsy).
MISS = object()

#: Statistic fields every stats dict carries, in emission order.
STAT_KEYS = ("hits", "misses", "evictions", "entries", "capacity")

# The process-wide switch.  A plain module global (not a ContextVar) so
# the disabled check at kernel call sites is a single global load.
_ENABLED = False
_CAPACITY = DEFAULT_CAPACITY


class KernelCache:
    """One kernel's LRU memo store with hit/miss/eviction tallies."""

    __slots__ = ("name", "capacity", "hits", "misses", "evictions", "_entries")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key):
        """The cached value for ``key``, or :data:`MISS`.

        A hit refreshes the entry's LRU position.  Tallies the outcome
        both locally and (when obs is enabled) as a ``cache.<name>.*``
        counter.
        """
        value = self._entries.get(key, MISS)
        if value is MISS:
            self.misses += 1
            obs.inc(f"cache.{self.name}.misses")
            return MISS
        self._entries.move_to_end(key)
        self.hits += 1
        obs.inc(f"cache.{self.name}.hits")
        return value

    def store(self, key, value) -> None:
        """Insert ``key -> value``, evicting least-recently-used entries.

        A capacity of 0 stores nothing (the cache degrades to a
        pass-through that still counts misses); re-storing an existing
        key refreshes its LRU position.
        """
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._evict_down_to(self.capacity - 1)
        self._entries[key] = value

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries that no longer fit."""
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._evict_down_to(capacity)

    def _evict_down_to(self, size: int) -> None:
        """Evict LRU entries until at most ``size`` remain, tallying each
        eviction locally and in ``repro.obs``."""
        while len(self._entries) > size:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.inc(f"cache.{self.name}.evictions")

    def clear(self) -> None:
        """Drop every entry and zero the tallies."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> dict[str, int]:
        """``{hits, misses, evictions, entries, capacity}`` for this kernel."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }


_CACHES: dict[str, KernelCache] = {}


def _cache(kernel: str) -> KernelCache:
    found = _CACHES.get(kernel)
    if found is None:
        found = _CACHES[kernel] = KernelCache(kernel, _CAPACITY)
    return found


def enable_cache(capacity: int | None = None) -> None:
    """Turn kernel memoisation on (process-wide).

    ``capacity`` bounds each per-kernel store (default
    :data:`DEFAULT_CAPACITY`); passing it resizes existing stores,
    evicting LRU entries that no longer fit.  Capacity 0 is legal and
    makes every lookup a miss while storing nothing.
    """
    global _ENABLED, _CAPACITY
    if capacity is not None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        _CAPACITY = capacity
        for cache in _CACHES.values():
            cache.resize(capacity)
    _ENABLED = True


def disable_cache() -> None:
    """Turn kernel memoisation off.  Entries are kept (re-enable to reuse);
    call :func:`clear_caches` to free them."""
    global _ENABLED
    _ENABLED = False


def cache_enabled() -> bool:
    """Whether kernel results are currently being memoised."""
    return _ENABLED


def cache_capacity() -> int:
    """The per-kernel entry bound new stores are created with."""
    return _CAPACITY


def clear_caches() -> None:
    """Drop every entry and zero every tally in every kernel store."""
    for cache in _CACHES.values():
        cache.clear()


def cache_stats() -> dict[str, dict[str, int]]:
    """Per-kernel ``{hits, misses, evictions, entries, capacity}``.

    Only kernels that have seen at least one lookup appear; the mapping
    is sorted by kernel name so emitted stats are deterministic.
    """
    return {
        name: cache.stats()
        for name, cache in sorted(_CACHES.items())
        if cache.hits or cache.misses
    }


def merge_stats(
    many: Iterable[Mapping[str, Mapping[str, int]]],
) -> dict[str, dict[str, int]]:
    """Combine per-worker :func:`cache_stats` mappings into one.

    Hits, misses, evictions, and entries are summed (each worker process
    owns an independent store); capacity is the maximum, since it is a
    per-store bound rather than an additive total.
    """
    merged: dict[str, dict[str, int]] = {}
    for stats in many:
        for kernel, values in stats.items():
            slot = merged.setdefault(kernel, dict.fromkeys(STAT_KEYS, 0))
            for key in ("hits", "misses", "evictions", "entries"):
                slot[key] += int(values.get(key, 0))
            slot["capacity"] = max(slot["capacity"], int(values.get("capacity", 0)))
    return {name: merged[name] for name in sorted(merged)}


def lookup(kernel: str, key):
    """The memoised value for ``(kernel, key)``, or :data:`MISS`.

    Callers on hot paths should check ``core._ENABLED`` first and skip
    key construction entirely while the cache is off; this function
    re-checks so cold paths can call it unconditionally.
    """
    if not _ENABLED:
        return MISS
    return _cache(kernel).lookup(key)


def store(kernel: str, key, value) -> None:
    """Memoise ``value`` for ``(kernel, key)`` (no-op while disabled)."""
    if _ENABLED:
        _cache(kernel).store(key, value)
