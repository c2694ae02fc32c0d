"""Unit tests for the Redis-like KV store."""

import weakref

import pytest

from repro.kvstore.store import KVStore, fnv1a
from tests.conftest import make_baseline, make_viyojit

PAGE = 4096


def build_store(sim, viyojit=True, **kwargs):
    if viyojit:
        system = make_viyojit(sim, num_pages=512, budget=128)
    else:
        system = make_baseline(sim, num_pages=512)
    defaults = dict(num_buckets=64, heap_bytes=64 * PAGE)
    defaults.update(kwargs)
    return KVStore(system, **defaults)


class TestFnv:
    def test_deterministic(self):
        assert fnv1a(b"hello") == fnv1a(b"hello")

    def test_spreads(self):
        hashes = {fnv1a(b"key%d" % i) % 64 for i in range(1000)}
        assert len(hashes) > 40  # most buckets hit

    def test_empty(self):
        assert fnv1a(b"") == 0xCBF29CE484222325


class TestPutGet:
    def test_get_missing(self, sim):
        store = build_store(sim)
        assert store.get(b"nope") is None
        assert store.stats.misses == 1

    def test_put_then_get(self, sim):
        store = build_store(sim)
        store.put(b"k", b"value")
        assert store.get(b"k") == b"value"
        assert len(store) == 1

    def test_update_in_place(self, sim):
        store = build_store(sim)
        store.put(b"k", b"aaaa")
        store.put(b"k", b"bbbb")
        assert store.get(b"k") == b"bbbb"
        assert store.stats.inplace_updates == 1
        assert len(store) == 1

    def test_update_with_relocation(self, sim):
        store = build_store(sim)
        store.put(b"k", b"small")
        store.put(b"k", b"x" * 500)  # outgrows the block
        assert store.get(b"k") == b"x" * 500
        assert store.stats.relocations == 1

    def test_shrinking_update(self, sim):
        store = build_store(sim)
        store.put(b"k", b"x" * 500)
        store.put(b"k", b"tiny")
        assert store.get(b"k") == b"tiny"

    def test_many_keys(self, sim):
        store = build_store(sim)
        for i in range(100):
            store.put(b"key%03d" % i, b"val%03d" % i)
        for i in range(100):
            assert store.get(b"key%03d" % i) == b"val%03d" % i
        assert len(store) == 100

    def test_collision_chains(self, sim):
        """With 2 buckets, everything chains; lookups must still work."""
        store = build_store(sim, num_buckets=2)
        for i in range(20):
            store.put(b"c%d" % i, b"v%d" % i)
        for i in range(20):
            assert store.get(b"c%d" % i) == b"v%d" % i
        assert store.stats.chain_steps > 20

    def test_empty_key_rejected(self, sim):
        store = build_store(sim)
        with pytest.raises(ValueError):
            store.put(b"", b"v")
        with pytest.raises(ValueError):
            store.get(b"")


class TestDelete:
    def test_delete_existing(self, sim):
        store = build_store(sim)
        store.put(b"k", b"v")
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert len(store) == 0

    def test_delete_missing(self, sim):
        store = build_store(sim)
        assert store.delete(b"k") is False

    def test_delete_middle_of_chain(self, sim):
        store = build_store(sim, num_buckets=1)
        for i in range(5):
            store.put(b"k%d" % i, b"v%d" % i)
        assert store.delete(b"k2")
        for i in (0, 1, 3, 4):
            assert store.get(b"k%d" % i) == b"v%d" % i

    def test_delete_frees_block(self, sim):
        store = build_store(sim)
        store.put(b"k", b"v")
        live_before = store.heap.live_bytes
        store.delete(b"k")
        assert store.heap.live_bytes < live_before


class TestReadModifyWrite:
    def test_rmw(self, sim):
        store = build_store(sim)
        store.put(b"k", b"abc")
        assert store.read_modify_write(b"k", lambda v: v.upper()) is True
        assert store.get(b"k") == b"ABC"

    def test_rmw_missing(self, sim):
        store = build_store(sim)
        assert store.read_modify_write(b"k", lambda v: v) is False


class TestMetadataChurn:
    def test_reads_dirty_metadata_pages(self, sim):
        """The paper's YCSB-C observation: read-only workloads still
        perform store instructions (Redis-internal metadata)."""
        store = build_store(sim)
        store.put(b"k", b"v")
        system = store.system
        dirty_before = system.stats.pages_dirtied
        for _ in range(50):
            store.get(b"k")
        # Metadata pages got dirtied; the record page did not need to.
        assert system.stats.pages_dirtied >= dirty_before

    def test_metadata_pool_bounded(self, sim):
        store = build_store(sim, metadata_pages=4)
        for i in range(200):
            store.get(b"missing%d" % i)
        meta_pfns = set(
            range(
                store.stats_region.base_page,
                store.stats_region.base_page + store.stats_region.num_pages,
            )
        )
        dirty_meta = meta_pfns & set(store.system.region._pages.keys())
        assert len(dirty_meta) <= 4 + 1


class TestNVMResidency:
    def test_items_walk_nvm(self, sim):
        store = build_store(sim)
        expected = {}
        for i in range(30):
            key, value = b"k%d" % i, b"v%d" % i
            store.put(key, value)
            expected[key] = value
        assert dict(store.items()) == expected

    def test_dump_from_reader_parses_live_image(self, sim):
        store = build_store(sim)
        for i in range(10):
            store.put(b"k%d" % i, b"v%d" % i)
        image = KVStore.dump_from_reader(
            store.system.region.read,
            store.header.base_addr,
            store.buckets.base_addr,
        )
        assert image == dict(store.items())

    def test_dump_rejects_garbage(self, sim):
        store = build_store(sim)
        with pytest.raises(ValueError, match="magic"):
            KVStore.dump_from_reader(
                store.system.region.read,
                store.heap_mapping.base_addr,  # not a header
                store.buckets.base_addr,
            )

    def test_store_on_baseline_system(self, sim):
        store = build_store(sim, viyojit=False)
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"


class TestLifetime:
    def test_dropped_store_is_freed_without_the_cycle_collector(self, sim):
        """The bound operations hold no reference back to their store."""
        store = build_store(sim)
        store.put(b"k", b"v")
        store.get(b"k")
        alive = weakref.ref(store)
        del store
        assert alive() is None
