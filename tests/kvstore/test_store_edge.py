"""Edge-case tests for the KV store: large values, page spanning, churn."""

import random

import pytest

from repro.kvstore.store import KVStore, LRU_OFFSET, RECORD_HEADER, fnv1a
from tests.conftest import make_baseline, make_viyojit

PAGE = 4096


def head_record(store, key):
    """The address of the record at the head of ``key``'s bucket chain."""
    link = store.buckets.addr(fnv1a(key) % store.num_buckets * 8)
    return int.from_bytes(store.system.read(link, 8), "little")


def build_store(sim, **kwargs):
    system = make_viyojit(sim, num_pages=1024, budget=256)
    defaults = dict(num_buckets=64, heap_bytes=256 * PAGE)
    defaults.update(kwargs)
    return KVStore(system, **defaults)


class TestLargeValues:
    def test_value_spanning_pages(self, sim):
        store = build_store(sim)
        value = bytes(range(256)) * 32  # 8 KiB: > one page
        store.put(b"big", value)
        assert store.get(b"big") == value

    def test_many_large_values(self, sim):
        store = build_store(sim)
        for i in range(20):
            store.put(b"big%d" % i, bytes([i]) * 6000)
        for i in range(20):
            assert store.get(b"big%d" % i) == bytes([i]) * 6000

    def test_grow_then_shrink_then_grow(self, sim):
        store = build_store(sim)
        store.put(b"k", b"a" * 10)
        store.put(b"k", b"b" * 3000)
        store.put(b"k", b"c" * 5)
        store.put(b"k", b"d" * 900)
        assert store.get(b"k") == b"d" * 900
        assert len(store) == 1


class TestChurn:
    def test_insert_delete_cycles_reuse_heap(self, sim):
        store = build_store(sim)
        for cycle in range(5):
            for i in range(50):
                store.put(b"c%d" % i, bytes([cycle]) * 100)
            for i in range(0, 50, 2):
                store.delete(b"c%d" % i)
        # Reuse keeps the heap bounded: high-water under 2x live data.
        assert store.heap.used_bytes < 50 * 128 * 3

    def test_interleaved_ops_consistency(self, sim):
        store = build_store(sim)
        rng = random.Random(9)
        model = {}
        for _ in range(500):
            key = b"k%d" % rng.randrange(60)
            action = rng.random()
            if action < 0.5:
                value = bytes([rng.randrange(256)]) * rng.randrange(1, 300)
                store.put(key, value)
                model[key] = value
            elif action < 0.75:
                assert store.get(key) == model.get(key)
            else:
                assert store.delete(key) == (key in model)
                model.pop(key, None)
        assert len(store) == len(model)
        assert dict(store.items()) == model


class TestLRUField:
    def test_lru_refresh_writes_record_page(self, sim):
        store = build_store(sim, lru_update_interval=1)
        store.put(b"k", b"v")
        record = head_record(store, b"k")
        version_before = int(
            store.system.region.page_version[store.system.region.page_of(record)]
        )
        store.get(b"k")
        version_after = int(
            store.system.region.page_version[store.system.region.page_of(record)]
        )
        assert version_after > version_before

    def test_interval_limits_refreshes(self, sim):
        store = build_store(sim, lru_update_interval=1000)
        store.put(b"k", b"v")
        record = head_record(store, b"k")
        pfn = store.system.region.page_of(record)
        before = int(store.system.region.page_version[pfn])
        for _ in range(20):
            store.get(b"k")
        after = int(store.system.region.page_version[pfn])
        assert after - before <= 1

    def test_lru_offset_within_header(self):
        assert LRU_OFFSET + 8 == RECORD_HEADER

    def test_interval_validation(self, sim):
        with pytest.raises(ValueError):
            build_store(sim, lru_update_interval=0)


class TestStatsAccounting:
    def test_hit_miss_counts(self, sim):
        store = build_store(sim)
        store.put(b"k", b"v")
        store.get(b"k")
        store.get(b"absent")
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_op_counts(self, sim):
        store = build_store(sim)
        store.put(b"k", b"v")          # insert
        store.put(b"k", b"w")          # update
        store.get(b"k")
        store.read_modify_write(b"k", lambda v: v)
        store.delete(b"k")
        assert store.stats.puts == 2
        assert store.stats.inserts == 1
        assert store.stats.gets == 1
        assert store.stats.rmws == 1
        assert store.stats.deletes == 1

    def test_base_cost_charged_per_op(self, sim):
        store = build_store(sim)
        before = sim.now
        store.get(b"missing")
        assert sim.now - before >= store.base_op_cost_ns


class TestOnBaseline:
    def test_full_workload_on_baseline_system(self, sim):
        system = make_baseline(sim, num_pages=1024)
        store = KVStore(system, num_buckets=32, heap_bytes=128 * PAGE)
        for i in range(50):
            store.put(b"k%d" % i, b"v%d" % i)
        assert dict(store.items()) == {
            b"k%d" % i: b"v%d" % i for i in range(50)
        }
