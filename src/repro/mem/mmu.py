"""Simulated MMU: translation, protection faults, dirty-bit side effects.

The MMU is the boundary between the application's loads/stores and the
Viyojit runtime.  A write to a write-protected page produces a *faulted*
outcome; the caller (the Viyojit runtime, playing the role of the paper's
interrupt handler) resolves the fault and retries, exactly as the hardware
retries the instruction after the handler returns (Fig 6, steps 2-8).

Costs returned are in nanoseconds and cover only the hardware-visible part
of each access (DRAM access, TLB miss walk).  Trap entry/exit and PTE
manipulation costs are charged by the runtime because the baseline
full-battery system never pays them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.mem.machine import MachineModel
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.obs.events import WriteFault
from repro.obs.tracer import NULL_TRACER, Tracer


class WriteProtectionFault(Exception):
    """Raised when a write hits a protected page and no handler is set."""

    def __init__(self, pfn: int) -> None:
        super().__init__(f"write-protection fault on page {pfn}")
        self.pfn = pfn


@dataclass(slots=True)
class AccessOutcome:
    """Result of one page access through the MMU.

    Attributes
    ----------
    cost_ns:
        Hardware time for the access (DRAM + TLB-walk charges).
    faulted:
        True when a write hit a write-protected page.  The access did not
        complete; the caller must resolve the fault and retry.
    newly_dirtied:
        True when this write set the page's PTE dirty bit (i.e. it was the
        first write through a clean translation since the last scan).
    """

    cost_ns: int
    faulted: bool = False
    newly_dirtied: bool = False


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

    def _translate_cost(self, pfn: int) -> int:
        hit = self.tlb.lookup(pfn)
        cost = self.machine.dram_access_cost_ns
        if not hit:
            cost += self.machine.tlb_miss_cost_ns
        return cost

    def read_access(self, pfn: int) -> AccessOutcome:
        """A load: never faults (Viyojit never read-protects pages)."""
        self.read_accesses += 1
        return AccessOutcome(cost_ns=self._translate_cost(pfn))

    def read_cost(self, pfn: int) -> int:
        """Hot-path form of :meth:`read_access`: just the cost, no outcome.

        Self-contained: the :meth:`TLB.lookup` it performs (touch and
        count a hit; count a miss, evict LRU, insert clean) is inline, so
        a load is one frame.  Counters and residency are identical.
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

    def write_access(self, pfn: int) -> AccessOutcome:
        """A store: faults when the page is write-protected.

        On a successful store through a translation whose cached dirty flag
        is clear, the PTE dirty bit is set and the flag cached — later
        stores through the same cached translation leave the PTE untouched
        (the stale-dirty-bit mechanism of section 6.3).

        Fast path: a resident translation whose cached dirty flag is set
        implies the page is unprotected (protection toggles always shoot
        the entry down) and its PTE dirty bit is already set, so the
        store needs no protection check and no PTE side effects.
        """
        self.write_accesses += 1
        if self.tlb.hit_dirty(pfn):
            return AccessOutcome(cost_ns=self.machine.dram_access_cost_ns)
        cost = self._translate_cost(pfn)
        if self.page_table.is_write_protected(pfn):
            self.faults += 1
            if self.tracer.enabled:
                self.tracer.emit(WriteFault(t=self.tracer.now(), pfn=pfn))
            return AccessOutcome(cost_ns=cost, faulted=True)
        newly_dirtied = False
        if not self.tlb.dirty_cached(pfn):
            self.page_table.set_dirty(pfn)
            self.tlb.cache_dirty(pfn)
            newly_dirtied = True
        return AccessOutcome(cost_ns=cost, faulted=False, newly_dirtied=newly_dirtied)

    def write_probe(self, pfn: int) -> int:
        """Hot-path form of :meth:`write_access`: an int, no outcome object.

        Returns ``cost_ns`` (>= 0) when the store succeeded, or
        ``-cost_ns - 1`` when it faulted.  Accounting, tracing, and PTE
        side effects are identical to :meth:`write_access`; only the
        per-store allocation is gone.

        Self-contained like :meth:`read_cost`: one TLB dict probe tells
        a dirty hit, a clean hit and a miss apart, and the protection
        check and the ``PageTable.set_dirty`` bit updates are inline.
        Past the protection check the translation is always resident and
        clean (a dirty hit returned early), so the store always marks the
        PTE and caches the dirty flag.
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

    # ``protect_page``/``unprotect_page`` are self-contained like the
    # probes: ``PageTable.protect``/``unprotect`` (bounds check, bit
    # write) and ``TLB.invalidate`` (shootdown, counter) are inline, so a
    # toggle is one frame.  Bits, residency and counters are identical.

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

    The MMU checks the dirty bit before setting it and increments a
    hardware counter on 0→1 transitions; when the counter reaches the
    OS-programmed threshold it raises an interrupt instead of trapping
    every first write.  First writes therefore cost nothing extra; only
    threshold crossings pay the trap cost (charged by the runtime when the
    callback fires).

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
        self.interrupt_threshold: Optional[int] = None
        self.on_threshold: Optional[Callable[[int], None]] = None
        self.interrupts_raised = 0

    def set_threshold(self, threshold: Optional[int], callback: Optional[Callable[[int], None]]) -> None:
        """Program the dirty-count threshold and its interrupt handler."""
        if threshold is not None and threshold < 0:
            raise ValueError(f"threshold must be non-negative: {threshold}")
        self.interrupt_threshold = threshold
        self.on_threshold = callback

    def write_access(self, pfn: int) -> AccessOutcome:
        """A store: counts 0→1 shadow-dirty transitions in hardware.

        Stores only fault on pages the flusher write-protected mid-IO;
        dirty tracking itself never traps.  The budget is enforced via the
        ``on_new_dirty`` hook (which the runtime points at its eviction
        path) and, optionally, the programmed threshold interrupt.

        Same cached-dirty fast path as :meth:`MMU.write_access`: a dirty
        resident translation implies unprotected + PTE already dirty, so
        neither the counter nor the hooks can fire.
        """
        self.write_accesses += 1
        if self.tlb.hit_dirty(pfn):
            return AccessOutcome(cost_ns=self.machine.dram_access_cost_ns)
        cost = self._translate_cost(pfn)
        if self.page_table.is_write_protected(pfn):
            self.faults += 1
            if self.tracer.enabled:
                self.tracer.emit(WriteFault(t=self.tracer.now(), pfn=pfn))
            return AccessOutcome(cost_ns=cost, faulted=True)
        newly_dirtied = False
        if not self.tlb.dirty_cached(pfn):
            first_time_dirty = not self.page_table.is_shadow_dirty(pfn)
            if first_time_dirty and self.on_new_dirty is not None:
                self.on_new_dirty(pfn)
            self.page_table.set_dirty(pfn)
            self.tlb.cache_dirty(pfn)
            newly_dirtied = True
            if first_time_dirty:
                self.dirty_counter += 1
                if (
                    self.interrupt_threshold is not None
                    and self.dirty_counter >= self.interrupt_threshold
                    and self.on_threshold is not None
                ):
                    self.interrupts_raised += 1
                    self.on_threshold(pfn)
        return AccessOutcome(cost_ns=cost, faulted=False, newly_dirtied=newly_dirtied)

    def write_probe(self, pfn: int) -> int:
        """:meth:`write_access` in the probe's int encoding.

        The counter and the ``on_new_dirty``/threshold hooks fire exactly
        as in :meth:`write_access` (the base class's inlined probe has no
        place for them); this MMU is off the benchmarked paths, so the
        outcome allocation is kept.
        """
        outcome = self.write_access(pfn)
        return -outcome.cost_ns - 1 if outcome.faulted else outcome.cost_ns

    def page_cleaned(self, pfn: int) -> None:
        """OS notification that a page was flushed: decrement the counter."""
        if self.page_table.is_shadow_dirty(pfn):
            self.page_table.clear_shadow(pfn)
            self.dirty_counter -= 1
