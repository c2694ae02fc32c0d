"""Reference oracle: the method-chain KV store, kept out of ``src/``.

This is :class:`repro.kvstore.store.KVStore` as it ran before its
operations became closures over the system's lane: every operation is a
chain of small methods (``_find``, ``_update``, ``_insert_new``,
``_write_record``, ``_touch_metadata``, ...) ending in the validated
``system.read``/``system.write``, and every header and value is read
into an intermediate ``bytes`` copy.  It lays out the same mappings in
the same order and shares only the heap, the skip-list index, the
stats dataclass and the layout constants with the store, which is what
makes it an oracle: ``tests/kvstore/test_store_oracle.py`` requires the
store to reproduce its return values and every simulated byte, and
``tests/bench/reference_runner.py`` (with the per-op shard worker of
``tests/cluster/reference_shard.py`` built on it) runs whole workloads
on it.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.runtime import NVDRAMSystem
from repro.kvstore.hashing import fnv1a
from repro.kvstore.heap import PersistentHeap, size_class
from repro.kvstore.sorted_index import SortedIndex
from repro.kvstore.store import LRU_OFFSET, MAGIC, RECORD_HEADER, KVStoreStats

_RECORD_FIELDS = struct.Struct("<QII")
NULL = 0


class ReferenceKVStore:
    """The per-method KV store: same layout, same accesses, no lane."""

    def __init__(
        self,
        system: NVDRAMSystem,
        num_buckets: int = 4096,
        heap_bytes: int = 16 * 1024 * 1024,
        base_op_cost_ns: int = 22_000,
        metadata_pages: int = 8,
        lru_update_interval: int = 5,
        ordered: bool = False,
    ) -> None:
        self.system = system
        self.num_buckets = int(num_buckets)
        self.base_op_cost_ns = int(base_op_cost_ns)
        page_size = system.region.page_size

        self.header = system.mmap(page_size)
        self.buckets = system.mmap(self.num_buckets * 8)
        self.stats_region = system.mmap(metadata_pages * page_size)
        self.heap_mapping = system.mmap(heap_bytes)
        self.heap = PersistentHeap(system, self.heap_mapping)
        self.stats = KVStoreStats()
        self._bucket_cache: Dict[bytes, int] = {}
        self._record_count = 0
        self._op_counter = 0
        self._metadata_pages = int(metadata_pages)
        self._lru_update_interval = int(lru_update_interval)
        self._metadata_addrs = [
            self.stats_region.addr(page * page_size)
            for page in range(self._metadata_pages)
        ]
        self._opctr_addr = self.header.addr(24)

        system.write(self.header.base_addr, MAGIC)
        system.write(self.header.addr(8), self.num_buckets.to_bytes(8, "little"))
        self.index: Optional[SortedIndex] = (
            SortedIndex(system, self.heap) if ordered else None
        )

    # -- low-level helpers ---------------------------------------------------

    def _bucket_addr(self, key: bytes) -> int:
        addr = self._bucket_cache.get(key)
        if addr is None:
            index = fnv1a(key) % self.num_buckets
            addr = self.buckets.addr(index * 8)
            self._bucket_cache[key] = addr
        return addr

    def _read_ptr(self, addr: int) -> int:
        return int.from_bytes(self.system.read(addr, 8), "little")

    def _write_ptr(self, addr: int, value: int) -> None:
        self.system.write(addr, value.to_bytes(8, "little"))

    def _read_record_header(self, addr: int) -> Tuple[int, int, int]:
        raw = self.system.read(addr, RECORD_HEADER)
        return _RECORD_FIELDS.unpack_from(raw)

    def _record_key(self, addr: int, key_len: int) -> bytes:
        return self.system.read(addr + RECORD_HEADER, key_len)

    def _record_value(self, addr: int, key_len: int, val_len: int) -> bytes:
        return self.system.read(addr + RECORD_HEADER + key_len, val_len)

    def _find(self, key: bytes) -> Tuple[Optional[int], int]:
        """Walk the chain: returns (record_addr, predecessor_link_addr)."""
        link_addr = self._bucket_addr(key)
        current = self._read_ptr(link_addr)
        while current != NULL:
            self.stats.chain_steps += 1
            next_addr, key_len, _val_len = self._read_record_header(current)
            if self._record_key(current, key_len) == key:
                return current, link_addr
            link_addr = current  # next pointer sits at record offset 0
            current = next_addr
        return None, link_addr

    def _touch_metadata(self) -> None:
        """One metadata store per op (Redis-internal bookkeeping analogue)."""
        counter = self._op_counter = self._op_counter + 1
        stamp = counter.to_bytes(8, "little")
        self.system.write(self._metadata_addrs[counter % self._metadata_pages], stamp)
        self.system.write(self._opctr_addr, stamp)

    def _charge_base(self) -> None:
        self.system.charge(self.base_op_cost_ns)

    # -- public operations ------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.puts += 1
        record, link_addr = self._find(key)
        if record is not None:
            self._update(record, link_addr, key, value)
        else:
            self._insert_new(key, value)
        self._touch_metadata()

    def _update(self, record: int, link_addr: int, key: bytes, value: bytes) -> None:
        next_addr, key_len, _old_len = self._read_record_header(record)
        needed = RECORD_HEADER + key_len + len(value)
        if size_class(needed) == self.heap.block_size(record):
            self.system.write(record + 12, len(value).to_bytes(4, "little"))
            self.system.write(record + RECORD_HEADER + key_len, value)
            self.stats.inplace_updates += 1
            return
        new_record = self._write_record(next_addr, key, value)
        self._write_ptr(link_addr, new_record)
        self.heap.free(record)
        self.stats.relocations += 1
        if self.index is not None:
            self.index.insert(key, new_record)

    def _insert_new(self, key: bytes, value: bytes) -> None:
        head_link = self._bucket_addr(key)
        current_head = self._read_ptr(head_link)
        record = self._write_record(current_head, key, value)
        self._write_ptr(head_link, record)
        self._record_count += 1
        self.stats.inserts += 1
        self.system.write(
            self.header.addr(16), self._record_count.to_bytes(8, "little")
        )
        if self.index is not None:
            self.index.insert(key, record)

    def _write_record(self, next_addr: int, key: bytes, value: bytes) -> int:
        record = self.heap.alloc(RECORD_HEADER + len(key) + len(value))
        blob = (
            next_addr.to_bytes(8, "little")
            + len(key).to_bytes(4, "little")
            + len(value).to_bytes(4, "little")
            + self._op_counter.to_bytes(8, "little")  # LRU clock
            + key
            + value
        )
        self.system.write(record, blob)
        return record

    def _maybe_refresh_lru(self, record: int) -> None:
        if self._op_counter % self._lru_update_interval == 0:
            self.system.write(
                record + LRU_OFFSET, self._op_counter.to_bytes(8, "little")
            )

    def get(self, key: bytes) -> Optional[bytes]:
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.gets += 1
        record, _link = self._find(key)
        self._touch_metadata()
        if record is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._maybe_refresh_lru(record)
        _next, key_len, val_len = self._read_record_header(record)
        return self._record_value(record, key_len, val_len)

    def delete(self, key: bytes) -> bool:
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.deletes += 1
        record, link_addr = self._find(key)
        self._touch_metadata()
        if record is None:
            return False
        next_addr, _key_len, _val_len = self._read_record_header(record)
        self._write_ptr(link_addr, next_addr)
        if self.index is not None:
            self.index.delete(key)
        self.heap.free(record)
        self._record_count -= 1
        self.system.write(
            self.header.addr(16), self._record_count.to_bytes(8, "little")
        )
        return True

    def read_modify_write(self, key: bytes, mutate: Callable[[bytes], bytes]) -> bool:
        if not key:
            raise ValueError("key must be non-empty")
        self._charge_base()
        self.stats.rmws += 1
        record, link_addr = self._find(key)
        self._touch_metadata()
        if record is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        _next, key_len, val_len = self._read_record_header(record)
        value = self._record_value(record, key_len, val_len)
        self._update(record, link_addr, key, mutate(value))
        return True

    def scan(self, start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
        """The method-chain scan, with ``count`` validated before the charge.

        The method chain this mirrors charged the base cost and counted
        the scan before the index rejected a non-positive ``count``; the
        oracle checks first, as ``KVStore.scan`` does, so a rejected scan
        leaves both stores unchanged.
        """
        if not start_key:
            raise ValueError("start_key must be non-empty")
        if self.index is None:
            raise RuntimeError(
                "scan requires an ordered store: build KVStore(ordered=True)"
            )
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        self._charge_base()
        self.stats.scans += 1
        results = []
        for key, record in self.index.scan(start_key, count):
            _next, key_len, val_len = self._read_record_header(record)
            results.append((key, self._record_value(record, key_len, val_len)))
        self.stats.scanned_records += len(results)
        self._touch_metadata()
        return results

    def __len__(self) -> int:
        return self._record_count
