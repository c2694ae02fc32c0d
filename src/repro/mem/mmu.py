"""Simulated MMU: translation, protection faults, dirty-bit side effects.

The MMU is the boundary between the application's loads/stores and the
Viyojit runtime.  A store is one int probe, :meth:`MMU.write_probe`: it
returns the access's cost, or ``-cost - 1`` when the store hit a
write-protected page.  The caller (the Viyojit runtime, playing the role
of the paper's interrupt handler) then resolves the fault and probes
again, exactly as the hardware retries the instruction after the handler
returns (Fig 6, steps 2-8).  A load is :meth:`MMU.read_cost` and never
faults.

Costs returned are in nanoseconds and cover only the hardware-visible part
of each access (DRAM access, TLB miss walk).  Trap entry/exit and PTE
manipulation costs are charged by the runtime because the baseline
full-battery system never pays them.

Every probe and PTE toggle is self-contained: it reads and writes the
TLB's LRU map and the page table's byte columns directly, so an access is
one frame.  The method-call forms they replace live on as the test
oracle ``tests/mem/reference_mmu.py``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mem.machine import MachineModel
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.obs.events import WriteFault
from repro.obs.tracer import NULL_TRACER, Tracer


class MMU:
    """Software-managed MMU over one page table + TLB pair."""

    #: Observability hook; the runtime swaps in a recording tracer.  The
    #: MMU is the emitter for :class:`WriteFault` because it is the
    #: architectural fault point — one site covers both the software and
    #: the hardware-assisted variants.
    tracer: Tracer = NULL_TRACER

    def __init__(self, page_table: PageTable, tlb: TLB, machine: MachineModel) -> None:
        if page_table.num_pages != tlb.num_pages:
            raise ValueError(
                f"page table covers {page_table.num_pages} pages "
                f"but TLB covers {tlb.num_pages}"
            )
        self.page_table = page_table
        self.tlb = tlb
        self.machine = machine
        self.read_accesses = 0
        self.write_accesses = 0
        self.faults = 0
        # The TLB's LRU map is one dict for the TLB's lifetime (flushes and
        # shootdowns mutate it in place), so the probes bind it once.
        self._tlb_entries = tlb._entries
        self._dram_cost_ns = machine.dram_access_cost_ns
        self._walk_cost_ns = machine.dram_access_cost_ns + machine.tlb_miss_cost_ns

    def read_cost(self, pfn: int) -> int:
        """A load: never faults (Viyojit never read-protects pages).

        Touches and counts a TLB hit; on a miss, counts it, evicts the
        LRU entry at capacity and inserts the translation clean.  Returns
        the cost: one DRAM access, plus the walk on a miss.
        """
        self.read_accesses += 1
        tlb = self.tlb
        entries = self._tlb_entries
        if pfn in entries:
            entries.move_to_end(pfn)
            tlb.hits += 1
            return self._dram_cost_ns
        if not 0 <= pfn < tlb.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {tlb.num_pages})")
        tlb.misses += 1
        while len(entries) >= tlb.capacity:
            entries.popitem(last=False)
            tlb.capacity_evictions += 1
        entries[pfn] = False
        return self._walk_cost_ns

    def write_probe(self, pfn: int) -> int:
        """A store: faults when the page is write-protected.

        Returns ``cost_ns`` (>= 0) when the store succeeded, or
        ``-cost_ns - 1`` when it faulted (counted and traced as a
        :class:`WriteFault`; no PTE bit changes).

        A translation cached *dirty* implies the page is unprotected
        (protection toggles always shoot the entry down) and its PTE
        dirty bit set, so such a store is one DRAM access with no side
        effects.  Otherwise the translation is looked up as in
        :meth:`read_cost`; past the protection check it is resident and
        clean, so the store sets the PTE's dirty and shadow-dirty bits
        and caches the dirty flag.  Later stores through the same cached
        translation leave the PTE untouched — the stale-dirty-bit
        mechanism of section 6.3.
        """
        self.write_accesses += 1
        tlb = self.tlb
        entries = self._tlb_entries
        cached = entries.get(pfn)
        if cached is not None:
            entries.move_to_end(pfn)
            tlb.hits += 1
            if cached:
                return self._dram_cost_ns
            cost = self._dram_cost_ns
        else:
            if not 0 <= pfn < tlb.num_pages:
                raise IndexError(
                    f"page frame {pfn} out of range [0, {tlb.num_pages})"
                )
            tlb.misses += 1
            while len(entries) >= tlb.capacity:
                entries.popitem(last=False)
                tlb.capacity_evictions += 1
            entries[pfn] = False
            cost = self._walk_cost_ns
        page_table = self.page_table
        if page_table._wp_bits[pfn]:
            self.faults += 1
            if self.tracer.enabled:
                self.tracer.emit(WriteFault(t=self.tracer.now(), pfn=pfn))
            return -cost - 1
        dirty_bits = page_table._dirty_bits
        if not dirty_bits[pfn]:
            dirty_bits[pfn] = 1
            page_table._dirty_count += 1
        shadow_bits = page_table._shadow_bits
        if not shadow_bits[pfn]:
            shadow_bits[pfn] = 1
            page_table._shadow_count += 1
        entries[pfn] = True
        return cost

    # -- runtime-side PTE manipulation (the paper's kernel module) --------

    def protect_page(self, pfn: int) -> int:
        """Set write-protect + shoot down the translation; returns cost."""
        page_table = self.page_table
        if not 0 <= pfn < page_table.num_pages:
            raise IndexError(
                f"page frame {pfn} out of range [0, {page_table.num_pages})"
            )
        page_table._wp_bits[pfn] = 1
        self._tlb_entries.pop(pfn, None)
        self.tlb.single_invalidations += 1
        return self.machine.pte_update_cost_ns

    def unprotect_page(self, pfn: int) -> int:
        """Clear write-protect + shoot down the translation; returns cost."""
        page_table = self.page_table
        if not 0 <= pfn < page_table.num_pages:
            raise IndexError(
                f"page frame {pfn} out of range [0, {page_table.num_pages})"
            )
        page_table._wp_bits[pfn] = 0
        self._tlb_entries.pop(pfn, None)
        self.tlb.single_invalidations += 1
        return self.machine.pte_update_cost_ns

    def unprotect_all(self) -> None:
        """Clear every write-protect bit without charging costs.

        Setup-time only (baseline start, hardware-tracking start): this
        models boot-time page-table initialisation, not a runtime PTE
        toggle, so no shootdown or PTE-update cost accrues.
        """
        self.page_table.unprotect_all()

    def release_protection(self, pfn: int) -> None:
        """Clear one page's write-protect bit without a shootdown charge.

        The hardware-tracking mmap path: pages become writable as part of
        allocation bookkeeping (stores never trap for tracking in that
        mode), so neither an ``invlpg`` nor a PTE-update cost is paid.
        """
        self.page_table.unprotect(pfn)

    def epoch_scan(self, flush_tlb: bool = True):
        """One epoch boundary: optional TLB flush, then walk + clear dirty bits.

        Returns ``(updated_pfns, cost_ns)``.  With ``flush_tlb=False`` the
        scan reads stale bits — pages whose translations sit in the TLB
        with a cached dirty flag never re-mark their PTEs (the ablation the
        paper reports in section 6.3).
        """
        cost = 0
        if flush_tlb:
            self.tlb.flush_all()
            cost += self.machine.tlb_flush_cost(self.page_table.num_pages)
        updated = self.page_table.scan_and_clear_dirty()
        cost += self.machine.scan_cost(self.page_table.num_pages)
        return updated, cost


class HardwareAssistedMMU(MMU):
    """The section 5.4 MMU: hardware-counted dirty pages, no write traps.

    The MMU checks the shadow dirty bit before setting it and counts 0→1
    transitions in :attr:`dirty_counter`; the OS hears about each one
    through :attr:`on_new_dirty` before the store retires, which is where
    the runtime enforces the budget (its budget interrupt).  First writes
    therefore cost nothing extra; only budget interrupts pay the trap
    cost (charged by the runtime in the hook).

    The shadow dirty bit (set alongside the dirty bit, cleared only by the
    OS) lets the recency scan clear architectural dirty bits without losing
    track of which pages are in the dirty set.
    """

    #: Fired *before* a 0->1 shadow-dirty transition commits, so the OS
    #: can make room under the budget before the store retires.  The
    #: runtime points this at its eviction path.
    on_new_dirty: Optional[Callable[[int], None]] = None

    def __init__(self, page_table: PageTable, tlb: TLB, machine: MachineModel) -> None:
        super().__init__(page_table, tlb, machine)
        self.dirty_counter = 0

    def write_probe(self, pfn: int) -> int:
        """:meth:`MMU.write_probe` plus the hardware dirty counter.

        Stores only fault on pages the flusher write-protected mid-IO;
        dirty tracking itself never traps.  The lookup, the dirty-hit
        shortcut and the protection check are the base probe's: a store
        through a translation cached dirty touches no bit and fires no
        hook.  On a first write since the page
        was last cleaned, :attr:`on_new_dirty` runs *before* the dirty and
        shadow bits commit and the counter moves after them.  The hook may
        run simulation events, so the dirty flag is cached only if the
        translation is still resident when it returns.

        The base probe is not shared: it is the benchmarked hot path, and
        this one is off it.
        """
        self.write_accesses += 1
        tlb = self.tlb
        entries = self._tlb_entries
        cached = entries.get(pfn)
        if cached is not None:
            entries.move_to_end(pfn)
            tlb.hits += 1
            if cached:
                return self._dram_cost_ns
            cost = self._dram_cost_ns
        else:
            if not 0 <= pfn < tlb.num_pages:
                raise IndexError(
                    f"page frame {pfn} out of range [0, {tlb.num_pages})"
                )
            tlb.misses += 1
            while len(entries) >= tlb.capacity:
                entries.popitem(last=False)
                tlb.capacity_evictions += 1
            entries[pfn] = False
            cost = self._walk_cost_ns
        page_table = self.page_table
        if page_table._wp_bits[pfn]:
            self.faults += 1
            if self.tracer.enabled:
                self.tracer.emit(WriteFault(t=self.tracer.now(), pfn=pfn))
            return -cost - 1
        shadow_bits = page_table._shadow_bits
        first_time_dirty = not shadow_bits[pfn]
        if first_time_dirty and self.on_new_dirty is not None:
            self.on_new_dirty(pfn)
        dirty_bits = page_table._dirty_bits
        if not dirty_bits[pfn]:
            dirty_bits[pfn] = 1
            page_table._dirty_count += 1
        if not shadow_bits[pfn]:
            shadow_bits[pfn] = 1
            page_table._shadow_count += 1
        if pfn in entries:
            entries[pfn] = True
        if first_time_dirty:
            self.dirty_counter += 1
        return cost

    def page_cleaned(self, pfn: int) -> None:
        """OS notification that a page was flushed: decrement the counter."""
        if self.page_table.is_shadow_dirty(pfn):
            self.page_table.clear_shadow(pfn)
            self.dirty_counter -= 1
