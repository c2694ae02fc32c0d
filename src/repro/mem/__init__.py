"""Simulated x86-64 memory-management substrate.

Viyojit (ISCA '17, section 5) is implemented with software manipulation of
x86-64 page tables: write-protect bits to trap first writes, hardware dirty
bits read and cleared by epoch scans, and TLB flushes/invalidations to keep
those bits coherent.  Running on real page tables is impossible from pure
Python, so this package provides a functional simulation of exactly the
machinery Viyojit consumes:

:class:`PageTable`
    Per-page present / write-protect / dirty / shadow-dirty bits backed by
    numpy arrays, with vectorized dirty-bit scans (the paper's page-table
    walks).
:class:`TLB`
    A capacity-bounded translation cache that *caches dirty state*: after a
    page's dirty bit is cached, later writes skip the page-table update.
    This is the exact mechanism behind the paper's finding (section 6.3)
    that skipping TLB flushes yields stale dirty bits and halves
    throughput.
:class:`MMU`
    Ties the two together: an int write probe returns a store's
    nanosecond cost, or encodes a write-protection fault as a negative
    cost, mirroring the trap/TLB-miss overheads the paper measures.
:class:`HardwareAssistedMMU`
    The section 5.4 alternative: the MMU itself counts dirty pages and
    hands each new one to the OS's budget interrupt, removing
    per-first-write traps.
:class:`NVDRAMRegion`
    Byte-addressable region of real page contents (so crash/recovery tests
    can verify data, not just bookkeeping).
"""

from repro.mem.machine import MachineModel
from repro.mem.mmu import HardwareAssistedMMU, MMU
from repro.mem.nvdram import NVDRAMRegion
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB

__all__ = [
    "MachineModel",
    "PageTable",
    "TLB",
    "MMU",
    "HardwareAssistedMMU",
    "NVDRAMRegion",
]
