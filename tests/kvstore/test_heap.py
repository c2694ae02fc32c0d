"""Unit tests for the persistent heap allocator."""

import pytest

from repro.kvstore.heap import OutOfHeapMemory, PersistentHeap, size_class
from tests.conftest import make_viyojit

PAGE = 4096


@pytest.fixture
def heap(sim):
    system = make_viyojit(sim, num_pages=256, budget=64)
    mapping = system.mmap(32 * PAGE)
    return PersistentHeap(system, mapping)


class TestSizeClass:
    def test_minimum(self):
        assert size_class(1) == 16
        assert size_class(16) == 16

    def test_powers_of_two(self):
        assert size_class(17) == 32
        assert size_class(1024) == 1024
        assert size_class(1025) == 2048

    def test_invalid(self):
        with pytest.raises(ValueError):
            size_class(0)
        with pytest.raises(ValueError):
            size_class(-5)

    def test_matches_doubling_loop_around_every_power_of_two(self):
        def doubling(size):
            cls = 16
            while cls < size:
                cls <<= 1
            return cls

        sizes = {1, 2}
        for exponent in range(1, 25):
            power = 1 << exponent
            sizes.update((power - 1, power, power + 1))
        for size in sorted(sizes):
            assert size_class(size) == doubling(size), size


class TestAlloc:
    def test_returns_absolute_addresses(self, heap):
        addr = heap.alloc(100)
        assert heap.mapping.base_addr <= addr < heap.mapping.base_addr + heap.capacity

    def test_allocations_disjoint(self, heap):
        first = heap.alloc(100)
        second = heap.alloc(100)
        assert abs(first - second) >= 128  # distinct 128B blocks

    def test_exhaustion(self, heap):
        with pytest.raises(OutOfHeapMemory):
            for _ in range(10_000):
                heap.alloc(PAGE)

    def test_stats(self, heap):
        heap.alloc(100)
        assert heap.stats.allocs == 1
        assert heap.stats.bytes_requested == 100
        assert heap.stats.bytes_allocated == 128

    def test_fragmentation(self, heap):
        heap.alloc(100)  # 128-byte class: 28 wasted
        assert heap.stats.fragmentation() == pytest.approx(28 / 128)

    def test_live_accounting(self, heap):
        addr = heap.alloc(100)
        assert heap.is_live(addr)
        assert heap.live_bytes == 128
        assert heap.block_size(addr) == 128


class TestFree:
    def test_free_then_realloc_reuses(self, heap):
        addr = heap.alloc(100)
        heap.free(addr)
        again = heap.alloc(90)  # same 128-byte class
        assert again == addr
        assert heap.stats.reuses == 1

    def test_free_different_class_not_reused(self, heap):
        addr = heap.alloc(100)   # 128
        heap.free(addr)
        other = heap.alloc(300)  # 512
        assert other != addr

    def test_double_free_rejected(self, heap):
        addr = heap.alloc(100)
        heap.free(addr)
        with pytest.raises(ValueError):
            heap.free(addr)

    def test_free_unallocated_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.free(12345)

    def test_block_size_of_freed_rejected(self, heap):
        addr = heap.alloc(64)
        heap.free(addr)
        with pytest.raises(ValueError):
            heap.block_size(addr)

    def test_used_bytes_high_water(self, heap):
        addr = heap.alloc(1000)
        used = heap.used_bytes
        heap.free(addr)
        assert heap.used_bytes == used  # high-water does not shrink
