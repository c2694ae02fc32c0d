"""Capacity-bounded LRU TLB that caches write-protect and dirty state.

Two properties of real x86 TLBs matter to Viyojit and are modelled
faithfully here:

1. **Protection changes need invalidations.**  After the kernel module
   flips a page's write-protect bit, the stale translation must be shot
   down or the MMU keeps honouring the old permission.  Viyojit charges an
   ``invlpg`` per protection toggle.

2. **Dirty bits are cached.**  The CPU updates the in-memory PTE dirty bit
   only on the first write through a translation whose cached dirty flag is
   clear; subsequent writes are invisible to the page table.  Since the
   epoch scan *clears* PTE dirty bits, a page whose translation stays in
   the TLB with a set cached-dirty flag never re-marks its PTE.

Replacement is LRU, as in real TLBs — and the policy is load-bearing for
the section 6.3 ablation: under LRU, *hot* pages stay resident (their
re-writes invisible to the page table) while *cold* pages get evicted and
re-mark their PTEs on the next touch.  Skipping the epoch TLB flush
therefore makes hot pages look cold and cold pages look warm, inverting
the least-recently-updated victim ranking exactly as the paper describes
("may result in flushing frequently updated pages (as opposed to least
updated ones)"), which is why the no-flush ablation collapses throughput
at small budgets.

The TLB is state plus counters.  Lookups, dirty-flag caching and
single-page shootdowns are performed on ``_entries`` by the MMU's probes
and PTE toggles (:mod:`repro.mem.mmu`) and by the data-path lane's
open-coded hits; only the full flush is a method here.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.events import TLBFlush
from repro.obs.tracer import NULL_TRACER, Tracer


class TLB:
    """Translation cache for one region: ``capacity`` entries, LRU eviction."""

    #: Observability hook; the runtime swaps in a recording tracer.
    tracer: Tracer = NULL_TRACER

    def __init__(self, num_pages: int, capacity: int = 1536) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.num_pages = int(num_pages)
        self.capacity = int(capacity)
        # pfn -> cached dirty flag, in LRU order (oldest first).
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.single_invalidations = 0
        self.capacity_evictions = 0

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._entries

    @property
    def resident(self) -> int:
        """Number of live cached translations."""
        return len(self._entries)

    def flush_all(self) -> None:
        """Full flush — required before each epoch scan for fresh dirty bits."""
        if self.tracer.enabled:
            self.tracer.emit(
                TLBFlush(t=self.tracer.now(), entries=len(self._entries))
            )
        self._entries.clear()
        self.flushes += 1
