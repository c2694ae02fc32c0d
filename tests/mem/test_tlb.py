"""Unit tests for the TLB: hits, eviction, dirty caching, invalidation.

The capacity boundary is probed extra hard: LRU eviction order decides
which re-writes re-mark their dirty bits (the section 6.3 mechanism).
"""

import pytest


class TestLookup:
    def test_first_access_misses(self, tlb_cls):
        tlb = tlb_cls(num_pages=16, capacity=4)
        assert tlb.lookup(0) is False
        assert tlb.misses == 1

    def test_second_access_hits(self, tlb_cls):
        tlb = tlb_cls(num_pages=16, capacity=4)
        tlb.lookup(0)
        assert tlb.lookup(0) is True
        assert tlb.hits == 1

    def test_contains(self, tlb_cls):
        tlb = tlb_cls(num_pages=16, capacity=4)
        tlb.lookup(3)
        assert 3 in tlb
        assert 4 not in tlb

    def test_out_of_range(self, tlb_cls):
        tlb = tlb_cls(num_pages=16, capacity=4)
        with pytest.raises(IndexError):
            tlb.lookup(16)

    def test_invalid_construction(self, tlb_cls):
        with pytest.raises(ValueError):
            tlb_cls(num_pages=0)
        with pytest.raises(ValueError):
            tlb_cls(num_pages=4, capacity=0)


class TestCapacityEviction:
    def test_capacity_bounds_residency(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=4)
        for pfn in range(10):
            tlb.lookup(pfn)
        assert tlb.resident <= 4

    def test_lru_evicts_least_recently_used(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=2)
        tlb.lookup(0)
        tlb.lookup(1)
        tlb.lookup(2)  # evicts 0
        assert 0 not in tlb
        assert 1 in tlb
        assert 2 in tlb

    def test_touch_refreshes_recency(self, tlb_cls):
        """Hot pages stay resident — load-bearing for the 6.3 ablation."""
        tlb = tlb_cls(num_pages=64, capacity=2)
        tlb.lookup(0)
        tlb.lookup(1)
        tlb.lookup(0)  # refresh 0; 1 is now LRU
        tlb.lookup(2)  # evicts 1, not 0
        assert 0 in tlb
        assert 1 not in tlb

    def test_eviction_counter(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=1)
        tlb.lookup(0)
        tlb.lookup(1)
        assert tlb.capacity_evictions == 1

    def test_evicted_entry_loses_dirty_cache(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=1)
        tlb.lookup(0)
        tlb.cache_dirty(0)
        tlb.lookup(1)  # evicts 0
        assert tlb.dirty_cached(0) is False

    def test_fill_to_exact_capacity_evicts_nothing(self, tlb_cls):
        """The boundary itself: capacity residents, zero evictions."""
        tlb = tlb_cls(num_pages=64, capacity=4)
        for pfn in range(4):
            tlb.lookup(pfn)
        assert tlb.resident == 4
        assert tlb.capacity_evictions == 0
        assert all(pfn in tlb for pfn in range(4))

    def test_one_past_capacity_evicts_exactly_one(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=4)
        for pfn in range(5):
            tlb.lookup(pfn)
        assert tlb.resident == 4
        assert tlb.capacity_evictions == 1
        assert 0 not in tlb  # the oldest untouched entry
        assert all(pfn in tlb for pfn in range(1, 5))

    def test_invalidation_reopens_capacity_without_eviction(self, tlb_cls):
        """A freed slot absorbs the next miss; LRU stays intact."""
        tlb = tlb_cls(num_pages=64, capacity=4)
        for pfn in range(4):
            tlb.lookup(pfn)
        tlb.invalidate(2)
        tlb.lookup(9)  # takes the freed slot, evicts nobody
        assert tlb.capacity_evictions == 0
        assert tlb.resident == 4
        tlb.lookup(10)  # now full again: evicts 0, the true LRU
        assert tlb.capacity_evictions == 1
        assert 0 not in tlb
        assert all(pfn in tlb for pfn in (1, 3, 9, 10))

    def test_eviction_order_after_flush_restarts_clean(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=2)
        tlb.lookup(0)
        tlb.lookup(1)
        tlb.flush_all()
        tlb.lookup(5)
        tlb.lookup(6)
        tlb.lookup(7)  # evicts 5 — pre-flush history must not leak in
        assert 5 not in tlb
        assert 6 in tlb and 7 in tlb

    def test_eviction_storm_at_capacity_one(self, tlb_cls):
        tlb = tlb_cls(num_pages=64, capacity=1)
        for pfn in range(10):
            tlb.lookup(pfn)
        assert tlb.resident == 1
        assert 9 in tlb
        assert tlb.capacity_evictions == 9


class TestDirtyCaching:
    def test_dirty_not_cached_initially(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        assert tlb.dirty_cached(0) is False

    def test_cache_dirty(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        tlb.cache_dirty(0)
        assert tlb.dirty_cached(0) is True

    def test_cache_dirty_on_uncached_page_is_noop(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.cache_dirty(5)
        assert tlb.dirty_cached(5) is False

    def test_flush_clears_dirty_cache(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        tlb.cache_dirty(0)
        tlb.flush_all()
        assert tlb.dirty_cached(0) is False

    def test_hit_dirty_only_counts_on_success(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        assert tlb.hit_dirty(0) is False  # resident but clean: no probe hit
        assert tlb.hits == 0
        tlb.cache_dirty(0)
        assert tlb.hit_dirty(0) is True
        assert tlb.hits == 1


class TestInvalidation:
    def test_single_invalidation(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        tlb.invalidate(0)
        assert 0 not in tlb
        assert tlb.single_invalidations == 1

    def test_invalidate_uncached_is_safe(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.invalidate(7)
        assert tlb.resident == 0

    def test_flush_all_resets_everything(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        for pfn in range(4):
            tlb.lookup(pfn)
        tlb.flush_all()
        assert tlb.resident == 0
        assert tlb.flushes == 1
        for pfn in range(4):
            assert pfn not in tlb

    def test_reinsertion_after_flush_works(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(0)
        tlb.flush_all()
        assert tlb.lookup(0) is False  # miss again
        assert tlb.lookup(0) is True

    def test_invalidate_then_lookup_misses(self, tlb_cls):
        tlb = tlb_cls(num_pages=8, capacity=4)
        tlb.lookup(2)
        tlb.invalidate(2)
        assert tlb.lookup(2) is False

    def test_resident_count_accurate_after_mixed_ops(self, tlb_cls):
        tlb = tlb_cls(num_pages=32, capacity=8)
        for pfn in range(6):
            tlb.lookup(pfn)
        tlb.invalidate(0)
        tlb.invalidate(3)
        assert tlb.resident == 4
