"""Size-class allocator over an NV-DRAM mapping.

Records for the KV store are carved out of one large mapping obtained from
an :class:`repro.core.NVDRAMSystem`.  Allocation sizes are rounded up to
power-of-two size classes (16 B minimum), and freed blocks go on per-class
free lists for reuse — the behaviour that makes hot keys keep landing on
the same NV-DRAM pages, which is exactly the locality Viyojit exploits.

Free-list metadata lives in ordinary Python state.  The durable on-NVM
structures (bucket array and record chains, see
:mod:`repro.kvstore.store`) are self-describing, so allocator state is
reconstructible after a crash by walking reachable records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.runtime import Mapping, NVDRAMSystem

MIN_CLASS = 16


class OutOfHeapMemory(Exception):
    """Raised when the heap cannot satisfy an allocation."""


@dataclass
class HeapStats:
    """Allocator counters."""

    allocs: int = 0
    frees: int = 0
    bytes_requested: int = 0
    bytes_allocated: int = 0
    reuses: int = 0
    free_bytes_by_class: Dict[int, int] = field(default_factory=dict)

    def fragmentation(self) -> float:
        """Internal fragmentation: wasted / allocated bytes."""
        if self.bytes_allocated == 0:
            return 0.0
        return 1.0 - self.bytes_requested / self.bytes_allocated


def size_class(size: int) -> int:
    """Smallest power-of-two class >= ``size`` (minimum 16 bytes)."""
    if size <= 0:
        raise ValueError(f"size must be positive: {size}")
    return MIN_CLASS if size <= MIN_CLASS else 1 << (size - 1).bit_length()


class PersistentHeap:
    """Bump-plus-free-list allocator inside one NV-DRAM mapping."""

    def __init__(self, system: NVDRAMSystem, mapping: Mapping) -> None:
        self.system = system
        self.mapping = mapping
        # Absolute address 0 encodes NULL in the on-NVM structures (hash
        # chains, skip-list links); when the mapping starts at region
        # address 0, burn the first block so no allocation is ever 0.
        self._cursor = MIN_CLASS if mapping.base_addr == 0 else 0
        self._free_lists: Dict[int, List[int]] = {}
        self._live: Dict[int, int] = {}  # addr -> size class (guards frees)
        self.stats = HeapStats()

    @property
    def capacity(self) -> int:
        return self.mapping.size

    @property
    def used_bytes(self) -> int:
        """High-water bytes carved from the mapping."""
        return self._cursor

    @property
    def live_bytes(self) -> int:
        """Bytes in currently-allocated blocks."""
        return sum(self._live.values())

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns an absolute region address."""
        cls = size_class(size)
        free = self._free_lists.get(cls)
        if free:
            rel = free.pop()
            self.stats.reuses += 1
        else:
            if self._cursor + cls > self.mapping.size:
                raise OutOfHeapMemory(
                    f"heap exhausted: need {cls} bytes, "
                    f"{self.mapping.size - self._cursor} left"
                )
            rel = self._cursor
            self._cursor += cls
        addr = self.mapping.base_addr + rel
        self._live[addr] = cls
        self.stats.allocs += 1
        self.stats.bytes_requested += size
        self.stats.bytes_allocated += cls
        return addr

    def adopt(self, addr: int, size: int) -> None:
        """Register a pre-existing block during recovery.

        After a restart, allocator state is rebuilt by walking the
        reachable on-NVM structures and adopting each block.  The store
        maintains the invariant that a live block's class always equals
        ``size_class(its current contents)`` (shrinking updates relocate),
        so the class computed here matches the original allocation.
        """
        cls = size_class(size)
        rel = addr - self.mapping.base_addr
        if rel < 0 or rel + cls > self.mapping.size:
            raise ValueError(f"block [{addr}, +{cls}) outside the heap mapping")
        if addr in self._live:
            raise ValueError(f"address {addr} already live")
        self._live[addr] = cls
        if rel + cls > self._cursor:
            self._cursor = rel + cls

    def free(self, addr: int) -> None:
        """Return a block to its size class's free list."""
        cls = self._live.pop(addr, None)
        if cls is None:
            raise ValueError(f"free of unallocated address {addr}")
        rel = addr - self.mapping.base_addr
        self._free_lists.setdefault(cls, []).append(rel)
        self.stats.frees += 1
        self.stats.free_bytes_by_class[cls] = (
            self.stats.free_bytes_by_class.get(cls, 0) + cls
        )

    def is_live(self, addr: int) -> bool:
        return addr in self._live

    def block_size(self, addr: int) -> int:
        """Size class of a live block."""
        cls = self._live.get(addr)
        if cls is None:
            raise ValueError(f"address {addr} is not a live block")
        return cls
