"""Redis-like persistent key-value store over NV-DRAM.

The paper's evaluation modifies Redis to keep key-value pairs *and* the
associated metadata in a non-volatile heap (Intel PMEM library) backed by
emulated NV-DRAM.  This package is the analogous store for the simulated
substrate:

:class:`PersistentHeap`
    Size-class allocator carving records out of an NV-DRAM mapping.
:class:`KVStore`
    Hash-table store whose buckets, records and statistics all live in
    NV-DRAM.  Every operation — including pure reads — performs at least
    one NV-DRAM store (statistics/metadata updates), reproducing the
    paper's observation that even read-only YCSB-C dirties pages through
    Redis-internal metadata writes.

The on-NVM layout is self-describing: :meth:`KVStore.dump_from_reader`
parses every key-value pair out of raw region bytes, which is how the
crash tests prove end-to-end durability rather than trusting in-DRAM
state, and :meth:`KVStore.recover` re-opens a store over a recovered
image, rebuilding its allocator state and record count from the chains.
"""

from repro.kvstore.hashing import fnv1a
from repro.kvstore.heap import HeapStats, OutOfHeapMemory, PersistentHeap
from repro.kvstore.sorted_index import SortedIndex, walk_sorted
from repro.kvstore.store import KVStore, KVStoreStats

__all__ = [
    "PersistentHeap",
    "HeapStats",
    "OutOfHeapMemory",
    "KVStore",
    "KVStoreStats",
    "SortedIndex",
    "walk_sorted",
    "fnv1a",
]
