"""Unit tests for the LRU kernel store and the module-level switchboard:
boundary capacities (0 and 1), eviction order, tally bookkeeping, the
obs counter mirror, and per-worker stats merging."""

import pytest

from repro.cache import core as cache
from repro.cache.core import MISS, STAT_KEYS, KernelCache
from repro.obs import core as obs


class TestKernelCacheLRU:
    def test_miss_then_hit(self):
        store = KernelCache("k", capacity=4)
        assert store.lookup("a") is MISS
        store.store("a", 1)
        assert store.lookup("a") == 1
        assert store.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1, "capacity": 4,
        }

    def test_stats_keys_match_declared_order(self):
        assert tuple(KernelCache("k").stats()) == STAT_KEYS

    def test_falsy_values_are_cacheable(self):
        store = KernelCache("k", capacity=4)
        store.store("zero", 0)
        store.store("empty", frozenset())
        assert store.lookup("zero") == 0
        assert store.lookup("zero") is not MISS
        assert store.lookup("empty") == frozenset()
        assert store.hits == 3

    def test_eviction_is_least_recently_used(self):
        store = KernelCache("k", capacity=2)
        store.store("a", 1)
        store.store("b", 2)
        assert store.lookup("a") == 1  # refreshes a; b is now LRU
        store.store("c", 3)
        assert store.lookup("b") is MISS
        assert store.lookup("a") == 1
        assert store.lookup("c") == 3
        assert store.evictions == 1

    def test_restore_refreshes_lru_position(self):
        store = KernelCache("k", capacity=2)
        store.store("a", 1)
        store.store("b", 2)
        store.store("a", 10)  # re-store refreshes, must not evict
        store.store("c", 3)
        assert store.lookup("a") == 10
        assert store.lookup("b") is MISS
        assert len(store) == 2

    def test_capacity_one_boundary(self):
        store = KernelCache("k", capacity=1)
        store.store("a", 1)
        store.store("b", 2)
        assert len(store) == 1
        assert store.lookup("a") is MISS
        assert store.lookup("b") == 2
        assert store.evictions == 1

    def test_capacity_zero_is_counting_pass_through(self):
        store = KernelCache("k", capacity=0)
        store.store("a", 1)
        assert len(store) == 0
        assert store.lookup("a") is MISS
        assert store.stats() == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 0, "capacity": 0,
        }

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            KernelCache("k", capacity=-1)
        with pytest.raises(ValueError, match=">= 0"):
            KernelCache("k").resize(-2)

    def test_resize_down_evicts_lru_first(self):
        store = KernelCache("k", capacity=4)
        for name in "abcd":
            store.store(name, name.upper())
        store.lookup("a")  # a becomes most recent
        store.resize(2)
        assert len(store) == 2
        assert store.lookup("a") == "A"
        assert store.lookup("d") == "D"
        assert store.lookup("b") is MISS
        assert store.evictions == 2

    def test_clear_zeroes_everything(self):
        store = KernelCache("k", capacity=4)
        store.store("a", 1)
        store.lookup("a")
        store.lookup("missing")
        store.clear()
        assert len(store) == 0
        assert store.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": 4,
        }


class TestModuleSwitchboard:
    def test_disabled_lookup_is_miss_and_store_is_noop(self):
        cache.store("logic.reduce", "key", "value")
        assert cache.lookup("logic.reduce", "key") is MISS
        assert cache.cache_stats() == {}

    def test_enable_roundtrip(self):
        cache.enable_cache()
        assert cache.cache_enabled()
        cache.store("logic.reduce", "key", "value")
        assert cache.lookup("logic.reduce", "key") == "value"
        cache.disable_cache()
        assert not cache.cache_enabled()
        # entries survive disable; re-enable sees them again
        cache.enable_cache()
        assert cache.lookup("logic.reduce", "key") == "value"

    def test_enable_with_capacity_resizes_existing_stores(self):
        cache.enable_cache(capacity=8)
        for i in range(8):
            cache.store("k", i, i)
        cache.enable_cache(capacity=2)
        assert cache.cache_capacity() == 2
        stats = {}
        cache.store("k", "probe", 1)  # force the store to exist in stats
        cache.lookup("k", "probe")
        stats = cache.cache_stats()["k"]
        assert stats["capacity"] == 2
        assert stats["entries"] <= 2

    def test_enable_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match=">= 0"):
            cache.enable_cache(capacity=-1)

    def test_stats_only_lists_active_kernels_sorted(self):
        cache.enable_cache()
        cache.lookup("z.kernel", "k")
        cache.lookup("a.kernel", "k")
        cache.store("untouched", "k", 1)  # stored but never looked up
        assert list(cache.cache_stats()) == ["a.kernel", "z.kernel"]

    def test_obs_counters_mirror_outcomes(self):
        cache.enable_cache(capacity=1)
        obs.enable()
        cache.lookup("logic.reduce", "a")          # miss
        cache.store("logic.reduce", "a", 1)
        cache.lookup("logic.reduce", "a")          # hit
        cache.store("logic.reduce", "b", 2)        # evicts a
        counters = obs.counters()
        assert counters.get("cache.logic.reduce.misses") == 1
        assert counters.get("cache.logic.reduce.hits") == 1
        assert counters.get("cache.logic.reduce.evictions") == 1

    def test_resize_evictions_reach_telemetry(self):
        from repro.obs import runtime
        from repro.obs.core import Registry

        previous = runtime.set_registry(Registry())
        runtime.enable()
        try:
            cache.enable_cache(capacity=4)
            for key in ("a", "b", "c"):
                cache.store("k", key, key)
            cache.enable_cache(capacity=1)
            cache.lookup("k", "c")  # list the store in cache_stats
            assert cache.cache_stats()["k"]["evictions"] == 2
            counters = runtime.registry().live_record()["counters"]
            assert counters.get("cache.k.evictions") == 2
        finally:
            runtime.disable()
            runtime.set_registry(previous)


class TestMergeStats:
    def test_sums_tallies_and_maxes_capacity(self):
        merged = cache.merge_stats([
            {"k": {"hits": 1, "misses": 2, "evictions": 0,
                   "entries": 3, "capacity": 64}},
            {"k": {"hits": 4, "misses": 1, "evictions": 2,
                   "entries": 1, "capacity": 128},
             "other": {"hits": 0, "misses": 5, "evictions": 0,
                       "entries": 5, "capacity": 64}},
        ])
        assert merged == {
            "k": {"hits": 5, "misses": 3, "evictions": 2,
                  "entries": 4, "capacity": 128},
            "other": {"hits": 0, "misses": 5, "evictions": 0,
                      "entries": 5, "capacity": 64},
        }

    def test_kernels_sorted_and_empty_input_ok(self):
        assert cache.merge_stats([]) == {}
        merged = cache.merge_stats([{"z": {"hits": 1}}, {"a": {"misses": 1}}])
        assert list(merged) == ["a", "z"]
