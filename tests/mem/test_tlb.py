"""Unit tests for the TLB: hits, eviction, dirty caching, invalidation.

The TLB is state plus counters; lookups, dirty-flag caching and
shootdowns are what the MMU's probes and PTE toggles do to it, so the
tests drive it through an :class:`MMU` over a page table with every page
writable (see :class:`Driver`).

The capacity boundary is probed extra hard: LRU eviction order decides
which re-writes re-mark their dirty bits (the section 6.3 mechanism).
"""

import pytest

from repro.mem.machine import MachineModel
from repro.mem.mmu import HardwareAssistedMMU, MMU
from repro.mem.page_table import PageTable


class Driver:
    """The TLB operations, as the MMU performs them on ``tlb``.

    ``lookup`` is a load (True on a hit), ``write`` a store (which caches
    the dirty flag), ``invalidate`` a protection toggle's shootdown.
    """

    def __init__(self, tlb, hardware=False):
        table = PageTable(tlb.num_pages)
        table.unprotect_all()
        self.tlb = tlb
        self.mmu = (HardwareAssistedMMU if hardware else MMU)(
            table, tlb, MachineModel()
        )

    def lookup(self, pfn):
        return self.mmu.read_cost(pfn) == self.mmu.machine.dram_access_cost_ns

    def write(self, pfn):
        assert self.mmu.write_probe(pfn) >= 0

    def dirty_cached(self, pfn):
        return self.tlb._entries.get(pfn, False)

    def invalidate(self, pfn):
        self.mmu.unprotect_page(pfn)


@pytest.fixture
def make_tlb(tlb_cls):
    """``make_tlb(num_pages, capacity)``: a fresh TLB and its driver."""

    def make(num_pages, capacity=1536):
        tlb = tlb_cls(num_pages=num_pages, capacity=capacity)
        return tlb, Driver(tlb)

    return make


class TestLookup:
    def test_first_access_misses(self, make_tlb):
        tlb, drive = make_tlb(num_pages=16, capacity=4)
        assert drive.lookup(0) is False
        assert tlb.misses == 1

    def test_second_access_hits(self, make_tlb):
        tlb, drive = make_tlb(num_pages=16, capacity=4)
        drive.lookup(0)
        assert drive.lookup(0) is True
        assert tlb.hits == 1

    def test_contains(self, make_tlb):
        tlb, drive = make_tlb(num_pages=16, capacity=4)
        drive.lookup(3)
        assert 3 in tlb
        assert 4 not in tlb

    def test_out_of_range(self, make_tlb):
        tlb, drive = make_tlb(num_pages=16, capacity=4)
        with pytest.raises(IndexError):
            drive.lookup(16)

    def test_invalid_construction(self, tlb_cls):
        with pytest.raises(ValueError):
            tlb_cls(num_pages=0)
        with pytest.raises(ValueError):
            tlb_cls(num_pages=4, capacity=0)


class TestCapacityEviction:
    def test_capacity_bounds_residency(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=4)
        for pfn in range(10):
            drive.lookup(pfn)
        assert tlb.resident <= 4

    def test_lru_evicts_least_recently_used(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=2)
        drive.lookup(0)
        drive.lookup(1)
        drive.lookup(2)  # evicts 0
        assert 0 not in tlb
        assert 1 in tlb
        assert 2 in tlb

    def test_touch_refreshes_recency(self, make_tlb):
        """Hot pages stay resident — load-bearing for the 6.3 ablation."""
        tlb, drive = make_tlb(num_pages=64, capacity=2)
        drive.lookup(0)
        drive.lookup(1)
        drive.lookup(0)  # refresh 0; 1 is now LRU
        drive.lookup(2)  # evicts 1, not 0
        assert 0 in tlb
        assert 1 not in tlb

    def test_eviction_counter(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=1)
        drive.lookup(0)
        drive.lookup(1)
        assert tlb.capacity_evictions == 1

    def test_evicted_entry_loses_dirty_cache(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=1)
        drive.lookup(0)
        drive.write(0)
        drive.lookup(1)  # evicts 0
        assert drive.dirty_cached(0) is False

    def test_fill_to_exact_capacity_evicts_nothing(self, make_tlb):
        """The boundary itself: capacity residents, zero evictions."""
        tlb, drive = make_tlb(num_pages=64, capacity=4)
        for pfn in range(4):
            drive.lookup(pfn)
        assert tlb.resident == 4
        assert tlb.capacity_evictions == 0
        assert all(pfn in tlb for pfn in range(4))

    def test_one_past_capacity_evicts_exactly_one(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=4)
        for pfn in range(5):
            drive.lookup(pfn)
        assert tlb.resident == 4
        assert tlb.capacity_evictions == 1
        assert 0 not in tlb  # the oldest untouched entry
        assert all(pfn in tlb for pfn in range(1, 5))

    def test_invalidation_reopens_capacity_without_eviction(self, make_tlb):
        """A freed slot absorbs the next miss; LRU stays intact."""
        tlb, drive = make_tlb(num_pages=64, capacity=4)
        for pfn in range(4):
            drive.lookup(pfn)
        drive.invalidate(2)
        drive.lookup(9)  # takes the freed slot, evicts nobody
        assert tlb.capacity_evictions == 0
        assert tlb.resident == 4
        drive.lookup(10)  # now full again: evicts 0, the true LRU
        assert tlb.capacity_evictions == 1
        assert 0 not in tlb
        assert all(pfn in tlb for pfn in (1, 3, 9, 10))

    def test_eviction_order_after_flush_restarts_clean(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=2)
        drive.lookup(0)
        drive.lookup(1)
        tlb.flush_all()
        drive.lookup(5)
        drive.lookup(6)
        drive.lookup(7)  # evicts 5 — pre-flush history must not leak in
        assert 5 not in tlb
        assert 6 in tlb and 7 in tlb

    def test_eviction_storm_at_capacity_one(self, make_tlb):
        tlb, drive = make_tlb(num_pages=64, capacity=1)
        for pfn in range(10):
            drive.lookup(pfn)
        assert tlb.resident == 1
        assert 9 in tlb
        assert tlb.capacity_evictions == 9


class TestDirtyCaching:
    def test_dirty_not_cached_initially(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        assert drive.dirty_cached(0) is False

    def test_cache_dirty(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        drive.write(0)
        assert drive.dirty_cached(0) is True

    def test_cache_dirty_on_uncached_page_is_noop(self, tlb_cls):
        """A store's dirty flag is cached only in a resident translation:
        a budget interrupt that drops it (an epoch flush) leaves none."""
        tlb = tlb_cls(num_pages=8, capacity=4)
        drive = Driver(tlb, hardware=True)
        drive.mmu.on_new_dirty = lambda pfn: tlb.flush_all()
        drive.write(5)
        assert 5 not in tlb
        assert drive.dirty_cached(5) is False
        drive.write(5)  # shadow bit now set: no hook, the flag sticks
        assert drive.dirty_cached(5) is True

    def test_flush_clears_dirty_cache(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        drive.write(0)
        tlb.flush_all()
        assert drive.dirty_cached(0) is False

    def test_hit_dirty_only_counts_on_success(self, make_tlb):
        """A store through a resident translation counts one hit, whether
        it is cached clean (then dirtied) or already dirty."""
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        assert tlb.hits == 0
        drive.write(0)  # resident but clean: one hit, flag now cached
        assert tlb.hits == 1
        assert drive.dirty_cached(0) is True
        drive.write(0)  # the dirty hit
        assert tlb.hits == 2
        assert tlb.misses == 1


class TestInvalidation:
    def test_single_invalidation(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        drive.invalidate(0)
        assert 0 not in tlb
        assert tlb.single_invalidations == 1

    def test_invalidate_uncached_is_safe(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.invalidate(7)
        assert tlb.resident == 0

    def test_flush_all_resets_everything(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        for pfn in range(4):
            drive.lookup(pfn)
        tlb.flush_all()
        assert tlb.resident == 0
        assert tlb.flushes == 1
        for pfn in range(4):
            assert pfn not in tlb

    def test_reinsertion_after_flush_works(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(0)
        tlb.flush_all()
        assert drive.lookup(0) is False  # miss again
        assert drive.lookup(0) is True

    def test_invalidate_then_lookup_misses(self, make_tlb):
        tlb, drive = make_tlb(num_pages=8, capacity=4)
        drive.lookup(2)
        drive.invalidate(2)
        assert drive.lookup(2) is False

    def test_resident_count_accurate_after_mixed_ops(self, make_tlb):
        tlb, drive = make_tlb(num_pages=32, capacity=8)
        for pfn in range(6):
            drive.lookup(pfn)
        drive.invalidate(0)
        drive.invalidate(3)
        assert tlb.resident == 4
