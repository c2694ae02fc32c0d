"""Simulated page table for one NV-DRAM region.

Stores the architectural bits Viyojit manipulates — write-protect, dirty,
and the section 5.4 shadow-dirty bit — one byte per page frame.  Each
column is a ``bytearray`` (0 or 1 per page) that the MMU's per-access
paths index as plain Python ints, and is exposed under its public name
as a zero-copy numpy bool view of the same bytes, so the epoch scan
("page table walk" in the paper) stays a vectorized read-and-clear over
the dirty column.
"""

from __future__ import annotations

import numpy as np


class PageTable:
    """Architectural per-page state for a region of ``num_pages`` pages.

    The real kernel module in the paper flips PTE bits with locked RMW
    instructions; the analogous operations here are plain byte writes.
    Cost accounting lives in :class:`repro.mem.mmu.MMU` and the Viyojit
    runtime, not here — the page table is pure state.

    Per-page bit writes on the access path (a store's dirty and
    shadow-dirty bits, a protection toggle) are made by the MMU on the
    byte columns directly; the methods here are the bulk operations, the
    OS-side clears and the read-only accessors.

    ``write_protected``/``dirty``/``shadow_dirty`` are bool views over
    ``_wp_bits``/``_dirty_bits``/``_shadow_bits``: a write through either
    name is visible through the other.  Both are ``repro.mem``-private
    (lint rule L1).
    """

    def __init__(self, num_pages: int) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        self.num_pages = int(num_pages)
        self._wp_bits = bytearray(b"\x01") * self.num_pages
        self._dirty_bits = bytearray(self.num_pages)
        # Section 5.4: a shadow dirty bit the hardware would set alongside
        # the dirty bit, so the OS can clear the architectural bit for
        # recency tracking without losing dirty-page information.
        self._shadow_bits = bytearray(self.num_pages)
        self.write_protected = np.frombuffer(self._wp_bits, dtype=bool)
        self.dirty = np.frombuffer(self._dirty_bits, dtype=bool)
        self.shadow_dirty = np.frombuffer(self._shadow_bits, dtype=bool)
        self.walks = 0
        # Cached popcounts of the two dirty columns, maintained by the
        # mutators below so hot-path callers never pay an O(num_pages)
        # reduction.  Invariant (hypothesis-tested):
        # _dirty_count == count_nonzero(dirty), likewise for shadow.
        self._dirty_count = 0
        self._shadow_count = 0

    def _check(self, pfn: int) -> None:
        if not 0 <= pfn < self.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {self.num_pages})")

    # -- write protection ------------------------------------------------

    def is_write_protected(self, pfn: int) -> bool:
        self._check(pfn)
        return bool(self._wp_bits[pfn])

    def unprotect(self, pfn: int) -> None:
        """Clear the write-protect bit (step 8 of the paper's Fig 6)."""
        self._check(pfn)
        self._wp_bits[pfn] = 0

    def protect_all(self) -> None:
        """Write-protect every page — Viyojit startup (Fig 6 step 1)."""
        self.write_protected[:] = True

    def unprotect_all(self) -> None:
        """Clear every write-protect bit — baseline / hardware-mode startup."""
        self.write_protected[:] = False

    def protected_count(self) -> int:
        return int(self.write_protected.sum())

    # -- dirty bits ------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Pages with the architectural dirty bit set, in O(1)."""
        return self._dirty_count

    @property
    def shadow_dirty_count(self) -> int:
        """Pages with the shadow dirty bit set (section 5.4), in O(1)."""
        return self._shadow_count

    def is_dirty(self, pfn: int) -> bool:
        self._check(pfn)
        return bool(self._dirty_bits[pfn])

    def is_shadow_dirty(self, pfn: int) -> bool:
        self._check(pfn)
        return bool(self._shadow_bits[pfn])

    def scan_and_clear_dirty(self) -> np.ndarray:
        """One epoch-boundary page-table walk.

        Returns the page frame numbers whose dirty bit was set, and clears
        every dirty bit — exactly the paper's epoch mechanism (section 5.2).
        The shadow bit is left alone; it belongs to the dirty-set tracker.
        """
        self.walks += 1
        updated = np.flatnonzero(self.dirty)
        self.dirty[:] = False
        self._dirty_count = 0
        return updated

    def clear_shadow(self, pfn: int) -> None:
        self._check(pfn)
        if self._shadow_bits[pfn]:
            self._shadow_bits[pfn] = 0
            self._shadow_count -= 1
