"""The lane-bound store against the method-chain reference store.

:class:`repro.kvstore.store.KVStore` binds each operation as a closure
over the system's lane; ``tests/kvstore/reference_store.py`` keeps the
method chain over the validated ``system.read``/``system.write``.  Twin
``Viyojit`` systems at a dirty budget small enough to sync-evict run the
same drawn operations — inserts, in-place updates, size-class
relocations, page-spanning values, hits and misses, read-modify-writes,
deletes and, on an ordered store, scans — and must agree on every
return value and every simulated byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.kvstore.store import KVStore
from repro.sim.events import Simulation
from tests.conftest import make_viyojit, make_baseline
from tests.kvstore.reference_store import ReferenceKVStore

PAGE = 4096
KEYS = [b"k%d" % i for i in range(5)]

#: Small values share a size class, mid-size ones outgrow it (relocation)
#: and large ones span a page boundary.
sizes = st.one_of(
    st.integers(0, 40), st.integers(100, 600), st.integers(PAGE + 1, 9000)
)
keys = st.sampled_from(KEYS)
puts = st.tuples(st.just("put"), keys, sizes, st.integers(0, 255))
operations = st.lists(
    st.one_of(
        puts,
        puts,
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("rmw"), keys, sizes),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("scan"), keys, st.integers(0, 4)),
    ),
    min_size=10,
    max_size=40,
)


def build_twin(store_cls, ordered, lru_update_interval, num_buckets, budget):
    sim = Simulation()
    system = make_viyojit(sim, num_pages=256, budget=budget)
    store = store_cls(
        system,
        num_buckets=num_buckets,
        heap_bytes=64 * PAGE,
        metadata_pages=2,
        lru_update_interval=lru_update_interval,
        ordered=ordered,
    )
    return sim, store


def apply(store, op):
    """One drawn operation; returns its result or the exception's type."""
    kind, key, *args = op
    try:
        if kind == "put":
            size, fill = args
            return store.put(key, (bytes([fill, fill ^ 0x5A]) * size)[:size])
        if kind == "get":
            return store.get(key)
        if kind == "rmw":
            (size,) = args
            return store.read_modify_write(
                key, lambda value: (value[::-1] + b"r" * size)[:size]
            )
        if kind == "delete":
            return store.delete(key)
        return store.scan(key, args[0])
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def region_sha256(system) -> str:
    digest = hashlib.sha256()
    for pfn, version in system.region.touched_pages():
        digest.update(f"{pfn}:{version}:".encode())
        digest.update(system.region.page_bytes(pfn))
    return digest.hexdigest()


def snapshot(sim, store) -> dict:
    system = store.system
    return {
        "now": sim.now,
        "len": len(store),
        "kv": asdict(store.stats),
        "heap": asdict(store.heap.stats),
        "sync_evictions": system.stats.sync_evictions,
        "page_version": list(system.region.page_version),
        "region": region_sha256(system),
    }


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    ordered=st.booleans(),
    lru_update_interval=st.integers(1, 5),
    num_buckets=st.integers(1, 4),
    budget=st.integers(4, 8),
)
def test_store_matches_reference(
    ops, ordered, lru_update_interval, num_buckets, budget
):
    params = (ordered, lru_update_interval, num_buckets, budget)
    ref_sim, reference = build_twin(ReferenceKVStore, *params)
    sim, store = build_twin(KVStore, *params)
    assert snapshot(sim, store) == snapshot(ref_sim, reference)
    for op in ops:
        assert apply(store, op) == apply(reference, op), op
        assert sim.now == ref_sim.now, op
    assert snapshot(sim, store) == snapshot(ref_sim, reference)


def test_twins_sync_evict():
    """The property's budgets are small enough to force sync evictions."""
    ops = [("put", key, 3000, index) for index, key in enumerate(KEYS)]
    ops += [("get", key) for key in KEYS] + [("delete", KEYS[0])]
    ref_sim, reference = build_twin(ReferenceKVStore, True, 1, 2, 8)
    sim, store = build_twin(KVStore, True, 1, 2, 8)
    for op in ops:
        assert apply(store, op) == apply(reference, op)
    assert store.system.stats.sync_evictions > 0
    assert snapshot(sim, store) == snapshot(ref_sim, reference)


class TestRejectedScan:
    """A scan the store rejects leaves the clock and the stats alone."""

    def test_non_positive_count(self, sim):
        system = make_viyojit(sim, num_pages=512, budget=128)
        store = KVStore(system, num_buckets=16, heap_bytes=64 * PAGE, ordered=True)
        store.put(b"a", b"1")
        before, stats_before = sim.now, asdict(store.stats)
        for count in (0, -3):
            with pytest.raises(ValueError, match="count must be positive"):
                store.scan(b"a", count)
        assert sim.now == before
        assert asdict(store.stats) == stats_before
        assert store.scan(b"a", 1) == [(b"a", b"1")]

    def test_unordered_store(self, sim):
        system = make_baseline(sim, num_pages=512)
        store = KVStore(system, num_buckets=16, heap_bytes=64 * PAGE)
        before = sim.now
        with pytest.raises(RuntimeError, match="ordered store"):
            store.scan(b"a", 0)
        assert sim.now == before
        assert store.stats.scans == 0
