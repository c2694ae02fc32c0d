"""Reference oracle: the method-call MMU, kept out of ``src/``.

These are the TLB, page-table and region methods and the object-returning
MMU accesses (``read_access``/``write_access``) as they ran before the
self-contained int probes of :mod:`repro.mem.mmu` became the only access
form.  Each TLB, page-table and region step is one small function over a
system's own :class:`~repro.mem.tlb.TLB`,
:class:`~repro.mem.page_table.PageTable` and
:class:`~repro.mem.nvdram.NVDRAMRegion` state, and :class:`ReferenceMMU`
composes them.  They share no code with the probes, which is what makes
them an oracle: ``tests/mem/test_mmu.py`` requires the probes to leave
exactly the state these leave, step for step, and
``tests/perf/test_sim_invisibility.py`` runs whole systems on a
:class:`ReferenceMMU`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mem.machine import MachineModel
from repro.mem.nvdram import NVDRAMRegion
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.obs.events import WriteFault
from repro.obs.tracer import NULL_TRACER, Tracer

# -- TLB -----------------------------------------------------------------


def tlb_lookup(tlb: TLB, pfn: int) -> bool:
    """Touch ``pfn``; return True on hit, inserting it clean on a miss."""
    if not 0 <= pfn < tlb.num_pages:
        raise IndexError(f"page frame {pfn} out of range [0, {tlb.num_pages})")
    if pfn in tlb._entries:
        tlb._entries.move_to_end(pfn)
        tlb.hits += 1
        return True
    tlb.misses += 1
    while len(tlb._entries) >= tlb.capacity:
        tlb._entries.popitem(last=False)
        tlb.capacity_evictions += 1
    tlb._entries[pfn] = False
    return False


def tlb_hit_dirty(tlb: TLB, pfn: int) -> bool:
    """Touch and count ``pfn`` only if resident with its dirty flag set.

    A clean or absent entry is left untouched and uncounted, so the
    caller's :func:`tlb_lookup` counts the access exactly once.
    """
    if tlb._entries.get(pfn, False):
        tlb._entries.move_to_end(pfn)
        tlb.hits += 1
        return True
    return False


def tlb_dirty_cached(tlb: TLB, pfn: int) -> bool:
    """Is the cached translation marked dirty?  (Absent reads as clean.)"""
    return tlb._entries.get(pfn, False)


def tlb_cache_dirty(tlb: TLB, pfn: int) -> None:
    """Record that the cached translation has seen a write (if resident)."""
    if pfn in tlb._entries:
        tlb._entries[pfn] = True


def tlb_invalidate(tlb: TLB, pfn: int) -> None:
    """Single-page shootdown (``invlpg``) after a PTE change."""
    tlb._entries.pop(pfn, None)
    tlb.single_invalidations += 1


# -- page table ----------------------------------------------------------


def _check_pfn(table: PageTable, pfn: int) -> None:
    if not 0 <= pfn < table.num_pages:
        raise IndexError(f"page frame {pfn} out of range [0, {table.num_pages})")


def pt_protect(table: PageTable, pfn: int) -> None:
    """Set the write-protect bit (Fig 6 step 1 / step 6)."""
    _check_pfn(table, pfn)
    table._wp_bits[pfn] = 1


def pt_unprotect(table: PageTable, pfn: int) -> None:
    """Clear the write-protect bit (Fig 6 step 8)."""
    _check_pfn(table, pfn)
    table._wp_bits[pfn] = 0


def pt_set_dirty(table: PageTable, pfn: int) -> None:
    """The hardware's PTE update on a write through a clean translation."""
    _check_pfn(table, pfn)
    if not table._dirty_bits[pfn]:
        table._dirty_bits[pfn] = 1
        table._dirty_count += 1
    if not table._shadow_bits[pfn]:
        table._shadow_bits[pfn] = 1
        table._shadow_count += 1


# -- region --------------------------------------------------------------


def _check_slice(region: NVDRAMRegion, pfn: int, offset: int, length: int) -> None:
    if not 0 <= pfn < region.num_pages:
        raise IndexError(f"page frame {pfn} out of range [0, {region.num_pages})")
    if offset < 0 or length < 0 or offset + length > region.page_size:
        raise IndexError(
            f"slice [{offset}, {offset + length}) out of page of size "
            f"{region.page_size}"
        )


def read_page_slice(region: NVDRAMRegion, pfn: int, offset: int, length: int) -> bytes:
    """Bytes within one page; a never-written page reads as zeros."""
    _check_slice(region, pfn, offset, length)
    page = region._pages.get(pfn)
    if page is None:
        return bytes(length)
    return bytes(memoryview(page)[offset : offset + length])


def write_page_slice(region: NVDRAMRegion, pfn: int, offset: int, data) -> None:
    """Store bytes within one page (thawing a frozen image), bump its version."""
    _check_slice(region, pfn, offset, len(data))
    page = region._pages.get(pfn)
    if not isinstance(page, bytearray):
        page = bytearray(region.page_size) if page is None else bytearray(page)
        region._pages[pfn] = page
    page[offset : offset + len(data)] = data
    region.page_version[pfn] += 1


# -- the MMU -------------------------------------------------------------


@dataclass(slots=True)
class AccessOutcome:
    """One access: its hardware cost, and whether it faulted or dirtied.

    ``newly_dirtied`` is True when the store set the PTE dirty bit (the
    first write through a clean translation since the last scan).
    """

    cost_ns: int
    faulted: bool = False
    newly_dirtied: bool = False


class ReferenceMMU:
    """The software MMU, or with ``hardware=True`` the section 5.4 MMU.

    Acts on the ``page_table``/``tlb`` pair it is given (a system's own,
    when it stands in for the system's MMU) through the functions above.
    Counters, ``tracer``, ``on_new_dirty`` and ``dirty_counter`` mean
    what they mean on :class:`repro.mem.mmu.MMU` and
    :class:`repro.mem.mmu.HardwareAssistedMMU`.  Only the hardware MMU
    has ``page_cleaned``: the flusher calls it when present.
    """

    tracer: Tracer = NULL_TRACER
    on_new_dirty: Optional[Callable[[int], None]] = None

    def __init__(
        self,
        page_table: PageTable,
        tlb: TLB,
        machine: MachineModel,
        hardware: bool = False,
    ) -> None:
        if page_table.num_pages != tlb.num_pages:
            raise ValueError(
                f"page table covers {page_table.num_pages} pages "
                f"but TLB covers {tlb.num_pages}"
            )
        self.page_table = page_table
        self.tlb = tlb
        self.machine = machine
        self.hardware = hardware
        self.read_accesses = 0
        self.write_accesses = 0
        self.faults = 0
        self.dirty_counter = 0
        if hardware:
            self.page_cleaned = self._page_cleaned

    def _translate_cost(self, pfn: int) -> int:
        cost = self.machine.dram_access_cost_ns
        if not tlb_lookup(self.tlb, pfn):
            cost += self.machine.tlb_miss_cost_ns
        return cost

    def read_access(self, pfn: int) -> AccessOutcome:
        """A load: never faults."""
        self.read_accesses += 1
        return AccessOutcome(cost_ns=self._translate_cost(pfn))

    def write_access(self, pfn: int) -> AccessOutcome:
        """A store: faults on a write-protected page.

        Through a translation cached dirty, the store touches no bit.
        Otherwise, past the protection check, it sets the PTE dirty and
        shadow bits and caches the dirty flag.  The hardware MMU also
        counts the page's 0→1 shadow transition, firing ``on_new_dirty``
        before the bits commit.
        """
        self.write_accesses += 1
        if tlb_hit_dirty(self.tlb, pfn):
            return AccessOutcome(cost_ns=self.machine.dram_access_cost_ns)
        cost = self._translate_cost(pfn)
        if self.page_table.is_write_protected(pfn):
            self.faults += 1
            if self.tracer.enabled:
                self.tracer.emit(WriteFault(t=self.tracer.now(), pfn=pfn))
            return AccessOutcome(cost_ns=cost, faulted=True)
        if tlb_dirty_cached(self.tlb, pfn):
            return AccessOutcome(cost_ns=cost)
        first_time_dirty = (
            self.hardware and not self.page_table.is_shadow_dirty(pfn)
        )
        if first_time_dirty and self.on_new_dirty is not None:
            self.on_new_dirty(pfn)
        pt_set_dirty(self.page_table, pfn)
        tlb_cache_dirty(self.tlb, pfn)
        if first_time_dirty:
            self.dirty_counter += 1
        return AccessOutcome(cost_ns=cost, newly_dirtied=True)

    def write_probe(self, pfn: int) -> int:
        """:meth:`write_access` in the probe's int encoding."""
        outcome = self.write_access(pfn)
        return -outcome.cost_ns - 1 if outcome.faulted else outcome.cost_ns

    def protect_page(self, pfn: int) -> int:
        pt_protect(self.page_table, pfn)
        tlb_invalidate(self.tlb, pfn)
        return self.machine.pte_update_cost_ns

    def unprotect_page(self, pfn: int) -> int:
        pt_unprotect(self.page_table, pfn)
        tlb_invalidate(self.tlb, pfn)
        return self.machine.pte_update_cost_ns

    def unprotect_all(self) -> None:
        self.page_table.unprotect_all()

    def release_protection(self, pfn: int) -> None:
        pt_unprotect(self.page_table, pfn)

    def epoch_scan(self, flush_tlb: bool = True):
        cost = 0
        if flush_tlb:
            self.tlb.flush_all()
            cost += self.machine.tlb_flush_cost(self.page_table.num_pages)
        updated = self.page_table.scan_and_clear_dirty()
        cost += self.machine.scan_cost(self.page_table.num_pages)
        return updated, cost

    def _page_cleaned(self, pfn: int) -> None:
        if self.page_table.is_shadow_dirty(pfn):
            self.page_table.clear_shadow(pfn)
            self.dirty_counter -= 1
