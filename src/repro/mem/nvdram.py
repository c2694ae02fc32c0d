"""Byte-addressable NV-DRAM region with real page contents.

The region stores actual bytes (lazily-allocated 4 KiB pages) so the crash
simulator can verify *data* durability — that recovery reproduces the last
written contents — rather than merely checking bookkeeping counters.

A page's image is a ``bytearray`` while it may take stores and an
immutable ``bytes`` once flushed.  :meth:`NVDRAMRegion.freeze` is the
flush's snapshot (section 5.1: protect, then copy): it installs the copy
as the region's image and the flusher hands that same object to the
backing store, so a clean page is one object shared by the region and the
store, not two copies.  The next store thaws the page with one copy.  The
type enforces the split: a store that skips the thaw raises ``TypeError``
rather than changing a durable image.

A monotonically increasing per-page version number accompanies the bytes;
the backing store records which version of each page it holds, which is
how tests prove the write-protect-before-flush ordering of section 5.1
prevents lost updates.  Versions are a list of Python ints: every store
bumps one and every flush reads one, so a numpy scalar touch per access
would cost more than the list lookup.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple


class NVDRAMRegion:
    """A contiguous region of ``num_pages`` pages of ``page_size`` bytes."""

    def __init__(self, num_pages: int, page_size: int = 4096) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(f"page_size must be a positive power of two: {page_size}")
        self.num_pages = int(num_pages)
        self.page_size = int(page_size)
        self.size = self.num_pages * self.page_size
        # pfn -> image: ``bytearray`` while writable, ``bytes`` once frozen.
        self._pages: Dict[int, bytearray | bytes] = {}
        self.page_version: List[int] = [0] * self.num_pages

    # -- address helpers ---------------------------------------------------

    def page_of(self, addr: int) -> int:
        """Page frame number containing byte address ``addr``."""
        if not 0 <= addr < self.size:
            raise IndexError(f"address {addr} out of range [0, {self.size})")
        return addr // self.page_size

    def pages_of_range(self, addr: int, length: int) -> range:
        """Page frame numbers overlapped by ``[addr, addr + length)``."""
        if length < 0:
            raise ValueError(f"length must be non-negative: {length}")
        if length == 0:
            return range(0)
        last = addr + length - 1
        return range(self.page_of(addr), self.page_of(last) + 1)

    def _check_pfn(self, pfn: int) -> None:
        if not 0 <= pfn < self.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {self.num_pages})")

    def _page(self, pfn: int) -> bytearray:
        """The writable image of ``pfn``: allocated if absent, thawed if frozen."""
        page = self._pages.get(pfn)
        if isinstance(page, bytearray):
            return page
        thawed = bytearray(self.page_size) if page is None else bytearray(page)
        self._pages[pfn] = thawed
        return thawed

    # -- data access (bookkeeping only; MMU charges happen elsewhere) ------

    def read(self, addr: int, length: int) -> bytes:
        """Read ``length`` bytes at ``addr`` (may span pages)."""
        if length < 0:
            raise ValueError(f"length must be non-negative: {length}")
        if addr < 0 or addr + length > self.size:
            raise IndexError(f"read [{addr}, {addr + length}) out of range")
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining > 0:
            pfn = cursor // self.page_size
            offset = cursor % self.page_size
            take = min(remaining, self.page_size - offset)
            page = self._pages.get(pfn)
            if page is None:
                out += bytes(take)
            else:
                out += page[offset : offset + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr``, bumping versions of touched pages."""
        if addr < 0 or addr + len(data) > self.size:
            raise IndexError(f"write [{addr}, {addr + len(data)}) out of range")
        cursor = addr
        view = memoryview(data)
        while view.nbytes > 0:
            pfn = cursor // self.page_size
            offset = cursor % self.page_size
            take = min(view.nbytes, self.page_size - offset)
            page = self._page(pfn)
            page[offset : offset + take] = view[:take]
            self.page_version[pfn] += 1
            cursor += take
            view = view[take:]

    def page_bytes(self, pfn: int) -> bytes:
        """The current contents of one page; the region is left as it was."""
        self._check_pfn(pfn)
        page = self._pages.get(pfn)
        return bytes(page) if page is not None else bytes(self.page_size)

    def freeze(self, pfn: int) -> bytes:
        """Snapshot one page for a flush and make the snapshot its image.

        Copies a writable page once, as :meth:`page_bytes` would, and
        installs the ``bytes`` in its place; a frozen page is returned as
        is.  A never-written page stays absent and reads as zeros.
        """
        self._check_pfn(pfn)
        page = self._pages.get(pfn)
        if page is None:
            return bytes(self.page_size)
        frozen = self._pages[pfn] = bytes(page)
        return frozen

    def load_page(self, pfn: int, data: bytes, version: int) -> None:
        """Install page contents during recovery (crash simulator).

        The page is installed frozen: a recovered page is clean, so it
        shares its durable image like any flushed page.
        """
        self._check_pfn(pfn)
        if len(data) != self.page_size:
            raise ValueError(f"expected {self.page_size} bytes, got {len(data)}")
        if version < 0:
            raise ValueError(f"version must be non-negative: {version}")
        self._pages[pfn] = bytes(data)
        self.page_version[pfn] = int(version)

    def touched_pages(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(pfn, version)`` for pages that have ever been written."""
        for pfn in sorted(self._pages):
            yield pfn, self.page_version[pfn]
