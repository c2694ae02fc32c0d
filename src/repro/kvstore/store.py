"""Redis-like persistent KV store with all state in NV-DRAM.

On-NVM layout (all integers little-endian):

``header`` mapping (one page)
    ========  =====  =========================================
    offset    bytes  field
    ========  =====  =========================================
    0         8      magic ``b"VIYOKVS1"``
    8         8      number of buckets
    16        8      record count
    24        8      operation counter (metadata churn)
    ========  =====  =========================================

``buckets`` mapping
    ``num_buckets`` 8-byte absolute addresses of chain heads (0 = empty).

records (allocated from the :class:`repro.kvstore.heap.PersistentHeap`)
    ========  =====  =========================================
    offset    bytes  field
    ========  =====  =========================================
    0         8      next record address (0 = end of chain)
    8         4      key length
    12        4      value length
    16        8      LRU clock (Redis ``robj->lru`` analogue)
    24        klen   key bytes
    24+klen   vlen   value bytes
    ========  =====  =========================================

    Like Redis, a fraction of lookups refreshes the record's LRU clock —
    a *store to the record's page* performed by a logically read-only
    operation.  This is the mechanism behind the paper's YCSB-C result:
    a read-only workload still builds up a sizable dirty set, so small
    dirty budgets cost ~7% throughput, and the overhead disappears once
    the budget covers the read-metadata working set (Fig 7c).

``stats`` mapping
    A small pool of metadata pages written round-robin on *every*
    operation, standing in for Redis's internal bookkeeping stores.  This
    reproduces the paper's note that even the read-only YCSB-C workload
    performs store instructions for metadata, keeping a small set of pages
    perpetually dirty.

Because the layout is self-describing, :meth:`KVStore.dump_from_reader`
can parse a *recovered* memory image and return every key-value pair —
the crash tests' ground truth for durability.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.runtime import NVDRAMSystem
from repro.kvstore.hashing import fnv1a, fnv1a_rows
from repro.kvstore.heap import PersistentHeap, size_class

MAGIC = b"VIYOKVS1"
RECORD_HEADER = 24
LRU_OFFSET = 16

#: next-address (u64), key length (u32), value length (u32) — the first
#: 16 bytes of a record header, precompiled for the chain-walk hot path.
_RECORD_FIELDS = struct.Struct("<QII")
_U64 = struct.Struct("<Q")
NULL = 0

__all__ = ["KVStore", "KVStoreStats", "fnv1a", "MAGIC", "RECORD_HEADER"]


@dataclass
class KVStoreStats:
    """Operation counters for one store instance."""

    gets: int = 0
    puts: int = 0
    inserts: int = 0
    deletes: int = 0
    rmws: int = 0
    scans: int = 0
    scanned_records: int = 0
    hits: int = 0
    misses: int = 0
    chain_steps: int = 0
    inplace_updates: int = 0
    relocations: int = 0


class KVStore:
    """Hash-table KV store whose buckets, records and metadata are NVM-resident.

    Each operation — ``get`` (and ``lookup``, the same read without the
    value copy), ``put``, ``read_modify_write``, ``delete`` and ``scan``
    — is a closure bound once, at construction, over the system's lane
    (:meth:`~repro.core.runtime.NVDRAMSystem.data_path`), so a system
    that builds its own lane is honoured.  The NV-DRAM access sequence
    of each is pinned against the method-chain oracle
    ``tests/kvstore/reference_store.py``.  ``cache_buckets`` fills the
    operations' key-to-bucket memo for many keys in one hash pass.
    """

    lookup: Callable[[bytes], Optional[Tuple[Optional[bytes], int, int]]]
    get: Callable[[bytes], Optional[bytes]]
    put: Callable[[bytes, bytes], None]
    read_modify_write: Callable[[bytes, Callable[[bytes], bytes]], bool]
    delete: Callable[[bytes], bool]
    scan: Callable[[bytes, int], List[Tuple[bytes, bytes]]]
    cache_buckets: Callable[[Sequence[bytes]], None]
    _length: Callable[[], int]

    def __init__(
        self,
        system: NVDRAMSystem,
        num_buckets: int = 4096,
        heap_bytes: int = 16 * 1024 * 1024,
        base_op_cost_ns: int = 22_000,
        metadata_pages: int = 8,
        lru_update_interval: int = 5,
        ordered: bool = False,
        _create: bool = True,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive: {num_buckets}")
        if heap_bytes <= 0:
            raise ValueError(f"heap_bytes must be positive: {heap_bytes}")
        if base_op_cost_ns < 0:
            raise ValueError(f"base_op_cost_ns must be non-negative: {base_op_cost_ns}")
        if metadata_pages <= 0:
            raise ValueError(f"metadata_pages must be positive: {metadata_pages}")
        if lru_update_interval <= 0:
            raise ValueError(
                f"lru_update_interval must be positive: {lru_update_interval}"
            )
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

        if _create:
            system.write(self.header.base_addr, MAGIC)
            system.write(self.header.addr(8), self.num_buckets.to_bytes(8, "little"))

        # Optional ordered index (skip list) enabling YCSB-E scans — the
        # cross-key support the paper lists as future work.
        if ordered:
            from repro.kvstore.sorted_index import SortedIndex

            self.index: Optional["SortedIndex"] = SortedIndex(
                system, self.heap, create=_create
            )
        else:
            self.index = None

        record_count = op_counter = 0
        if not _create:
            record_count, op_counter = self._recover_state()
        self._bind_operations(
            int(metadata_pages), int(lru_update_interval), record_count, op_counter
        )

    @classmethod
    def recover(
        cls,
        system: NVDRAMSystem,
        num_buckets: int = 4096,
        heap_bytes: int = 16 * 1024 * 1024,
        **kwargs,
    ) -> "KVStore":
        """Re-open a store whose image already lives in the region.

        The layout is deterministic (construction order fixes every
        mapping's address), so re-creating the mappings with the same
        parameters lines them up with the recovered structures.  Allocator
        state and record counts are rebuilt by walking the on-NVM chains.
        """
        return cls(
            system, num_buckets=num_buckets, heap_bytes=heap_bytes,
            _create=False, **kwargs,
        )

    def _recover_state(self) -> Tuple[int, int]:
        """Rebuild in-DRAM bookkeeping from the recovered NVM image.

        Returns the record count and the op counter.
        """
        read = self.system.read
        if read(self.header.base_addr, 8) != MAGIC:
            raise ValueError("bad store magic: image is not a KVStore")
        stored_buckets = int.from_bytes(read(self.header.addr(8), 8), "little")
        if stored_buckets != self.num_buckets:
            raise ValueError(
                f"bucket-count mismatch: stored {stored_buckets}, "
                f"reopened with {self.num_buckets}"
            )
        count = 0
        for index in range(self.num_buckets):
            record = int.from_bytes(read(self.buckets.addr(index * 8), 8), "little")
            while record != NULL:
                next_addr, key_len, val_len = _RECORD_FIELDS.unpack_from(
                    read(record, RECORD_HEADER)
                )
                self.heap.adopt(record, RECORD_HEADER + key_len + val_len)
                count += 1
                record = next_addr
        if self.index is not None:
            self.index.recover_nodes()
        return count, int.from_bytes(read(self.header.addr(24), 8), "little")

    # -- the operations --------------------------------------------------------

    def _bind_operations(
        self,
        metadata_pages: int,
        lru_interval: int,
        record_count: int,
        op_counter: int,
    ) -> None:
        """Bind the public operations as closures over the system's lane.

        Every operation charges the base cost, walks the bucket chain and
        stamps the op counter into one metadata page and into the
        header (Redis-internal bookkeeping: even a read performs
        stores); what lies between is the operation's own.  The charge
        (the clock bump of :meth:`~repro.core.runtime.NVDRAMSystem.charge`),
        the stamp and the 24-byte header read are open-coded in each
        closure rather than called: at 10-20 us per operation, a Python
        call per step is a measurable share.

        The record count and the op counter live in this frame, not on
        the store: no closure refers back to the store, so a dropped
        store is freed at once rather than by the cycle collector.
        """
        system = self.system
        path = system.data_path()
        read_at = path.read_at
        write = path.write
        clock = system._clock
        events = system._events
        drain = system._drain
        base_cost = self.base_op_cost_ns
        stats = self.stats
        heap = self.heap
        heap_alloc = heap.alloc
        heap_free = heap.free
        block_size = heap.block_size
        index = self.index
        num_buckets = self.num_buckets
        buckets = self.buckets
        # key -> bucket link address; fnv1a is pure and the bucket layout
        # is fixed at construction, so memoizing is wall-clock-only.
        bucket_cache: Dict[bytes, int] = {}
        page_size = system.region.page_size
        # Fixed addresses touched on every operation, resolved once.
        metadata_addrs = [
            self.stats_region.addr(page * page_size)
            for page in range(metadata_pages)
        ]
        opctr_addr = self.header.addr(24)
        count_addr = self.header.addr(16)
        unpack_header = _RECORD_FIELDS.unpack_from
        unpack_u64 = _U64.unpack_from

        def find(key: bytes) -> Tuple[Optional[int], int]:
            """Walk the chain: returns (record_addr, predecessor_link_addr).

            One 8-byte pointer read, then per step one header read and
            one key read.  A never-written page reads as zeros
            (``buffer`` is ``None``).
            """
            link_addr = bucket_cache.get(key)
            if link_addr is None:
                link_addr = bucket_cache[key] = buckets.addr(
                    fnv1a(key) % num_buckets * 8
                )
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
                link_addr = current  # next pointer sits at record offset 0
                current = next_addr
            return None, link_addr

        def write_record(next_addr: int, key: bytes, value: bytes) -> int:
            record = heap_alloc(RECORD_HEADER + len(key) + len(value))
            write(
                record,
                next_addr.to_bytes(8, "little")
                + len(key).to_bytes(4, "little")
                + len(value).to_bytes(4, "little")
                + op_counter.to_bytes(8, "little")  # LRU clock
                + key
                + value,
            )
            return record

        def update(record: int, link_addr: int, key: bytes, value: bytes) -> None:
            """Rewrite a record's value: in place when it fits its block."""
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
            # Relocate: write the new record fully, then switch the link.
            new_record = write_record(next_addr, key, value)
            write(link_addr, new_record.to_bytes(8, "little"))
            heap_free(record)
            stats.relocations += 1
            if index is not None:
                index.insert(key, new_record)

        def put(key: bytes, value: bytes) -> None:
            """Insert or update ``key``.  Updates are in-place when they fit."""
            nonlocal record_count, op_counter
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
                record_count += 1
                stats.inserts += 1
                write(count_addr, record_count.to_bytes(8, "little"))
                if index is not None:
                    index.insert(key, new_record)
            counter = op_counter = op_counter + 1
            stamp = counter.to_bytes(8, "little")
            write(metadata_addrs[counter % metadata_pages], stamp)
            write(opctr_addr, stamp)

        def lookup(key: bytes) -> Optional[Tuple[Optional[bytes], int, int]]:
            """``get`` without the copy: where ``key``'s value lies.

            Performs every access ``get`` performs, the value read
            included, and returns ``(buffer, offset, length)`` of the
            value in its backing page (``buffer`` is ``None`` for a
            never-written page, which reads as zeros), or ``None`` on a
            miss.  A caller that discards values — the batched executor —
            skips the copy: a cold 976-byte value is a measurable share
            of a read.
            """
            nonlocal op_counter
            if not key:
                raise ValueError("key must be non-empty")
            now = clock._now + base_cost
            clock._now = now
            if now >= events.next_due_at:
                drain()
            stats.gets += 1
            record, _link_addr = find(key)
            counter = op_counter = op_counter + 1
            stamp = counter.to_bytes(8, "little")
            write(metadata_addrs[counter % metadata_pages], stamp)
            write(opctr_addr, stamp)
            if record is None:
                stats.misses += 1
                return None
            stats.hits += 1
            if counter % lru_interval == 0:
                write(record + LRU_OFFSET, stamp)
            buffer, offset = read_at(record, RECORD_HEADER)
            if buffer is None:
                key_len = val_len = 0
            else:
                _next_addr, key_len, val_len = unpack_header(buffer, offset)
            buffer, offset = read_at(record + RECORD_HEADER + key_len, val_len)
            return buffer, offset, val_len

        def get(key: bytes) -> Optional[bytes]:
            """Look up ``key``; even misses perform a metadata store.

            Like Redis, a hit on every ``lru_update_interval``-th
            operation refreshes the record's LRU clock — a store
            performed by a read, the metadata stores the paper calls out
            for read-only YCSB-C.
            """
            found = lookup(key)
            if found is None:
                return None
            buffer, offset, val_len = found
            if buffer is None:
                return bytes(val_len)
            return bytes(buffer[offset : offset + val_len])

        def read_modify_write(
            key: bytes, mutate: Callable[[bytes], bytes]
        ) -> bool:
            """YCSB-F's op: read the value, transform it, write it back."""
            nonlocal op_counter
            if not key:
                raise ValueError("key must be non-empty")
            now = clock._now + base_cost
            clock._now = now
            if now >= events.next_due_at:
                drain()
            stats.rmws += 1
            record, link_addr = find(key)
            counter = op_counter = op_counter + 1
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
            buffer, offset = read_at(record + RECORD_HEADER + key_len, val_len)
            value = (
                bytes(val_len)
                if buffer is None
                else bytes(buffer[offset : offset + val_len])
            )
            update(record, link_addr, key, mutate(value))
            return True

        def delete(key: bytes) -> bool:
            """Remove ``key``; returns True when it existed."""
            nonlocal record_count, op_counter
            if not key:
                raise ValueError("key must be non-empty")
            now = clock._now + base_cost
            clock._now = now
            if now >= events.next_due_at:
                drain()
            stats.deletes += 1
            record, link_addr = find(key)
            counter = op_counter = op_counter + 1
            stamp = counter.to_bytes(8, "little")
            write(metadata_addrs[counter % metadata_pages], stamp)
            write(opctr_addr, stamp)
            if record is None:
                return False
            buffer, offset = read_at(record, RECORD_HEADER)
            next_addr = 0 if buffer is None else unpack_u64(buffer, offset)[0]
            write(link_addr, next_addr.to_bytes(8, "little"))
            if index is not None:
                index.delete(key)
            heap_free(record)
            record_count -= 1
            write(count_addr, record_count.to_bytes(8, "little"))
            return True

        def scan(start_key: bytes, count: int) -> List[Tuple[bytes, bytes]]:
            """YCSB-E's operation: up to ``count`` pairs with key >= start_key.

            Requires ``ordered=True`` at construction (the skip-list
            index); the hash-only store raises, exactly like the paper's
            Redis did.  A rejected scan charges and counts nothing.
            """
            nonlocal op_counter
            if not start_key:
                raise ValueError("start_key must be non-empty")
            if index is None:
                raise RuntimeError(
                    "scan requires an ordered store: build KVStore(ordered=True)"
                )
            if count <= 0:
                raise ValueError(f"count must be positive: {count}")
            now = clock._now + base_cost
            clock._now = now
            if now >= events.next_due_at:
                drain()
            stats.scans += 1
            results = []
            for key, record in index.scan(start_key, count):
                buffer, offset = read_at(record, RECORD_HEADER)
                if buffer is None:
                    key_len = val_len = 0
                else:
                    _next_addr, key_len, val_len = unpack_header(buffer, offset)
                buffer, offset = read_at(record + RECORD_HEADER + key_len, val_len)
                results.append(
                    (
                        key,
                        bytes(val_len)
                        if buffer is None
                        else bytes(buffer[offset : offset + val_len]),
                    )
                )
            stats.scanned_records += len(results)
            counter = op_counter = op_counter + 1
            stamp = counter.to_bytes(8, "little")
            write(metadata_addrs[counter % metadata_pages], stamp)
            write(opctr_addr, stamp)
            return results

        def cache_buckets(keys: Sequence[bytes]) -> None:
            """Memoize the bucket link address of every uncached key.

            One :func:`fnv1a_rows` pass per key width instead of one
            scalar ``fnv1a`` per key in ``find``; the addresses are the
            ones ``find`` would compute, so this is wall-clock-only.
            """
            by_width: Dict[int, List[bytes]] = {}
            for key in keys:
                if key not in bucket_cache:
                    by_width.setdefault(len(key), []).append(key)
            for width, group in by_width.items():
                rows = np.frombuffer(b"".join(group), dtype=np.uint8)
                hashes = fnv1a_rows(rows.reshape(len(group), width))
                slots = (hashes % np.uint64(num_buckets)).tolist()
                for key, slot in zip(group, slots):
                    bucket_cache[key] = buckets.addr(slot * 8)

        def length() -> int:
            return record_count

        self._length = length
        self.cache_buckets = cache_buckets
        self.lookup = lookup
        self.get = get
        self.put = put
        self.read_modify_write = read_modify_write
        self.delete = delete
        self.scan = scan

    def __len__(self) -> int:
        return self._length()

    # -- recovery-side parsing -----------------------------------------------

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Iterate all pairs by walking the NVM structures (not the cache)."""
        reader = self.system.read
        yield from _walk(reader, self.header.base_addr, self.buckets.base_addr)

    @staticmethod
    def dump_from_reader(
        read: Callable[[int, int], bytes],
        header_addr: int,
        buckets_addr: int,
    ) -> Dict[bytes, bytes]:
        """Parse a (possibly recovered) memory image into a key-value dict.

        ``read(addr, size)`` is any byte source: the live system, a
        recovered region, or backing-store contents.  Raises ``ValueError``
        when the header magic is missing (image corrupt or not a store).
        """
        return dict(_walk(read, header_addr, buckets_addr))


def _walk(
    read: Callable[[int, int], bytes], header_addr: int, buckets_addr: int
) -> Iterator[Tuple[bytes, bytes]]:
    magic = read(header_addr, 8)
    if magic != MAGIC:
        raise ValueError(f"bad store magic: {magic!r}")
    num_buckets = int.from_bytes(read(header_addr + 8, 8), "little")
    for index in range(num_buckets):
        current = int.from_bytes(read(buckets_addr + index * 8, 8), "little")
        while current != NULL:
            header = read(current, RECORD_HEADER)
            next_addr = int.from_bytes(header[0:8], "little")
            key_len = int.from_bytes(header[8:12], "little")
            val_len = int.from_bytes(header[12:16], "little")
            key = read(current + RECORD_HEADER, key_len)
            value = read(current + RECORD_HEADER + key_len, val_len)
            yield key, value
            current = next_addr
