"""Fused batched operation paths for the KV store.

:func:`build_fast_ops` compiles a store's ``get``/``put``/
``read_modify_write`` into closures over the system's
:meth:`~repro.core.runtime.NVDRAMSystem.data_path` accessors.  Each
closure performs the *exact* sequence of NV-DRAM accesses its
:class:`KVStore` method performs — same reads, same writes, same order,
same store counters — with the Python dispatch overhead (method chains,
intermediate ``bytes`` copies, re-parsed headers) stripped out.  Fusing
is therefore wall-clock-only: every simulated quantity is byte-identical
to calling the store's methods one operation at a time, which
``tests/perf/test_batched_equivalence.py`` pins against the per-op
oracle in ``tests/bench/reference_runner.py``.

Two deliberate divergences, both invisible to the simulation:

* record headers are parsed straight out of the backing page buffer
  (``Struct.unpack_from``) instead of through an intermediate ``bytes``
  copy, and
* a read whose result the caller discards (the benchmark runner throws
  away ``get`` values) is *charged* but never materialized.

Ordered stores (the skip-list index) are not fused: scans need cross-key
bookkeeping these closures do not carry, so the batched session binds
the store's own methods for them.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple

from repro.kvstore.heap import size_class
from repro.kvstore.store import KVStore, LRU_OFFSET, RECORD_HEADER, _RECORD_FIELDS

_U64 = struct.Struct("<Q")


class FastOps(NamedTuple):
    """Fused operations bound to one store.

    ``get`` returns hit/miss instead of the value (charging the value
    read regardless, exactly like :meth:`KVStore.get`); ``rmw`` takes a
    ``make_value(old_len) -> bytes`` callback instead of a full mutator —
    the YCSB read-modify-write only needs the old value's length.
    """

    get: Callable[[bytes], bool]
    put: Callable[[bytes, bytes], None]
    rmw: Callable[[bytes, Callable[[int], bytes]], bool]


def build_fast_ops(store: KVStore) -> FastOps:
    """Compile the fused operation closures for ``store``.

    Every page touch goes through the system's lane
    (:meth:`~repro.core.runtime.NVDRAMSystem.data_path`), so a subclass
    that builds its own lane is honoured.  Fast and method calls may be
    freely interleaved on the same store: all mutable state (counters,
    caches, heap) is shared, not snapshotted.
    """
    if store.index is not None:
        raise ValueError(
            "fast ops do not support ordered stores (scans use KVStore.scan)"
        )
    system = store.system
    path = system.data_path()
    read_at = path.read_at
    write = path.write
    clock = system._clock
    events = system._events
    drain = system._drain
    base_cost = store.base_op_cost_ns
    stats = store.stats
    heap = store.heap
    heap_alloc = heap.alloc
    heap_free = heap.free
    block_size = heap.block_size
    bucket_cache = store._bucket_cache
    bucket_addr = store._bucket_addr
    metadata_addrs = store._metadata_addrs
    metadata_pages = store._metadata_pages
    opctr_addr = store._opctr_addr
    lru_interval = store._lru_update_interval
    count_addr = store.header.addr(16)
    unpack_header = _RECORD_FIELDS.unpack_from
    unpack_u64 = _U64.unpack_from

    # The operations below open-code KVStore._charge_base (the clock bump
    # of NVDRAMSystem.charge), _touch_metadata and _read_record_header.

    def find(key):
        # KVStore._find with headers parsed in place: one 8-byte pointer
        # read, then per step one 24-byte header read + one key read.
        link_addr = bucket_cache.get(key)
        if link_addr is None:
            link_addr = bucket_addr(key)  # hashes and memoizes
        buffer, offset = read_at(link_addr, 8)
        current = 0 if buffer is None else unpack_u64(buffer, offset)[0]
        while current:
            stats.chain_steps += 1
            buffer, offset = read_at(current, RECORD_HEADER)
            if buffer is None:
                next_addr = key_len = 0
            else:
                next_addr, key_len, _val_len = unpack_header(buffer, offset)
            buffer, offset = read_at(current + RECORD_HEADER, key_len)
            if buffer is None:
                matched = bytes(key_len) == key
            else:
                matched = buffer[offset : offset + key_len] == key
            if matched:
                return current, link_addr
            link_addr = current
            current = next_addr
        return None, link_addr

    def write_record(next_addr: int, key: bytes, value: bytes) -> int:
        record = heap_alloc(RECORD_HEADER + len(key) + len(value))
        blob = (
            next_addr.to_bytes(8, "little")
            + len(key).to_bytes(4, "little")
            + len(value).to_bytes(4, "little")
            + store._op_counter.to_bytes(8, "little")
            + key
            + value
        )
        write(record, blob)
        return record

    def update(record: int, link_addr: int, key: bytes, value: bytes) -> None:
        buffer, offset = read_at(record, RECORD_HEADER)
        if buffer is None:
            next_addr = key_len = 0
        else:
            next_addr, key_len, _old_len = unpack_header(buffer, offset)
        if size_class(RECORD_HEADER + key_len + len(value)) == block_size(record):
            write(record + 12, len(value).to_bytes(4, "little"))
            write(record + RECORD_HEADER + key_len, value)
            stats.inplace_updates += 1
            return
        new_record = write_record(next_addr, key, value)
        write(link_addr, new_record.to_bytes(8, "little"))
        heap_free(record)
        stats.relocations += 1

    def put(key: bytes, value: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        now = clock._now + base_cost
        clock._now = now
        if now >= events.next_due_at:
            drain()
        stats.puts += 1
        record, link_addr = find(key)
        if record is not None:
            update(record, link_addr, key, value)
        else:
            head_link = bucket_cache[key]  # memoized by find
            buffer, offset = read_at(head_link, 8)
            current_head = 0 if buffer is None else unpack_u64(buffer, offset)[0]
            new_record = write_record(current_head, key, value)
            write(head_link, new_record.to_bytes(8, "little"))
            store._record_count += 1
            stats.inserts += 1
            write(count_addr, store._record_count.to_bytes(8, "little"))
        counter = store._op_counter = store._op_counter + 1
        stamp = counter.to_bytes(8, "little")
        write(metadata_addrs[counter % metadata_pages], stamp)
        write(opctr_addr, stamp)

    def get(key: bytes) -> bool:
        if not key:
            raise ValueError("key must be non-empty")
        now = clock._now + base_cost
        clock._now = now
        if now >= events.next_due_at:
            drain()
        stats.gets += 1
        record, _link_addr = find(key)
        counter = store._op_counter = store._op_counter + 1
        stamp = counter.to_bytes(8, "little")
        write(metadata_addrs[counter % metadata_pages], stamp)
        write(opctr_addr, stamp)
        if record is None:
            stats.misses += 1
            return False
        stats.hits += 1
        if counter % lru_interval == 0:
            write(record + LRU_OFFSET, stamp)
        buffer, offset = read_at(record, RECORD_HEADER)
        if buffer is None:
            key_len = val_len = 0
        else:
            _next_addr, key_len, val_len = unpack_header(buffer, offset)
        read_at(record + RECORD_HEADER + key_len, val_len)  # value: charged,
        return True  # never copied — the caller discards it.

    def rmw(key: bytes, make_value: Callable[[int], bytes]) -> bool:
        if not key:
            raise ValueError("key must be non-empty")
        now = clock._now + base_cost
        clock._now = now
        if now >= events.next_due_at:
            drain()
        stats.rmws += 1
        record, link_addr = find(key)
        counter = store._op_counter = store._op_counter + 1
        stamp = counter.to_bytes(8, "little")
        write(metadata_addrs[counter % metadata_pages], stamp)
        write(opctr_addr, stamp)
        if record is None:
            stats.misses += 1
            return False
        stats.hits += 1
        buffer, offset = read_at(record, RECORD_HEADER)
        if buffer is None:
            key_len = val_len = 0
        else:
            _next_addr, key_len, val_len = unpack_header(buffer, offset)
        read_at(record + RECORD_HEADER + key_len, val_len)  # old value read
        update(record, link_addr, key, make_value(val_len))
        return True

    return FastOps(get=get, put=put, rmw=rmw)
