"""Persistent page-granular image of an NV-DRAM region.

A page is *clean* when the backing store holds its latest version and
*dirty* otherwise.  Viyojit's durability guarantee is precisely that the
set of pages whose latest version is missing here never exceeds the dirty
budget — so every durability proof in the test suite is a comparison
between :class:`repro.mem.NVDRAMRegion` versions and this store.

A clean page is one immutable ``bytes`` object shared by the region and
this store: the flusher persists the snapshot that
``NVDRAMRegion.freeze`` installed as the region's image, and
:meth:`BackingStore.persist`'s ``bytes(data)`` keeps that same object.
Host memory therefore holds one image per touched page plus one per
dirty page, not two per flushed page.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class BackingStore:
    """Durable copies of pages, keyed by page frame number."""

    def __init__(self, num_pages: int, page_size: int = 4096) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive: {page_size}")
        self.num_pages = int(num_pages)
        self.page_size = int(page_size)
        self._pages: Dict[int, Tuple[bytes, int]] = {}

    def _check(self, pfn: int) -> None:
        if not 0 <= pfn < self.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {self.num_pages})")

    def persist(self, pfn: int, data: bytes, version: int) -> None:
        """Record that ``version`` of page ``pfn`` reached durable media.

        Versions never regress: a stale flush racing a newer one must not
        overwrite newer durable data (the ordering of section 5.1).
        """
        if not 0 <= pfn < self.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {self.num_pages})")
        if len(data) != self.page_size:
            raise ValueError(f"expected {self.page_size} bytes, got {len(data)}")
        if version < 0:
            raise ValueError(f"version must be non-negative: {version}")
        existing = self._pages.get(pfn)
        if existing is not None and existing[1] > version:
            return
        self._pages[pfn] = (bytes(data), version)  # no copy of a frozen page

    def read(self, pfn: int) -> Optional[bytes]:
        """Durable contents of ``pfn``, or ``None`` if never persisted."""
        self._check(pfn)
        entry = self._pages.get(pfn)
        return entry[0] if entry is not None else None

    def version(self, pfn: int) -> int:
        """Durable version of ``pfn`` (0 when never persisted)."""
        self._check(pfn)
        entry = self._pages.get(pfn)
        return entry[1] if entry is not None else 0

    def holds_version(self, pfn: int, version: int) -> bool:
        """Does durable media hold at least ``version`` of ``pfn``?"""
        self._check(pfn)
        if version == 0:
            # Version 0 means the page was never written; an all-zero page
            # is implicitly durable (it can be reconstructed for free).
            return True
        return self.version(pfn) >= version

    def persisted_count(self) -> int:
        return len(self._pages)
