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

    def lookup(self, pfn: int) -> bool:
        """Touch ``pfn``; return True on hit, inserting on miss."""
        if not 0 <= pfn < self.num_pages:
            raise IndexError(f"page frame {pfn} out of range [0, {self.num_pages})")
        if pfn in self._entries:
            self._entries.move_to_end(pfn)
            self.hits += 1
            return True
        self.misses += 1
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.capacity_evictions += 1
        self._entries[pfn] = False
        return False

    # ``lookup`` inserts on miss, so probing it speculatively would perturb
    # residency.  ``hit_dirty`` touches-and-counts *only* on success and
    # leaves the TLB (and its counters) untouched on failure, so the
    # caller's fallback counts the miss exactly once.  The data-path lane
    # (``NVDRAMSystem.data_path``) and ``MMU.read_cost``/``write_probe``
    # open-code the same checks against ``_entries``.

    def hit_dirty(self, pfn: int) -> bool:
        """Touch ``pfn`` only if resident *with the cached dirty flag set*.

        A hit-but-clean entry is left untouched (not even counted): the
        caller's fallback path will perform the one canonical lookup.
        """
        if self._entries.get(pfn, False):
            self._entries.move_to_end(pfn)
            self.hits += 1
            return True
        return False

    # -- dirty-state caching ----------------------------------------------

    def dirty_cached(self, pfn: int) -> bool:
        """Is the cached translation already marked dirty?

        When True, a write through this translation does *not* update the
        in-memory PTE dirty bit.
        """
        return self._entries.get(pfn, False)

    def cache_dirty(self, pfn: int) -> None:
        """Record that the cached translation has seen a write."""
        if pfn in self._entries:
            self._entries[pfn] = True

    # -- invalidation ------------------------------------------------------

    def invalidate(self, pfn: int) -> None:
        """Single-page shootdown (``invlpg``) after a PTE change.

        ``MMU.protect_page``/``unprotect_page`` open-code this shootdown.
        """
        self._entries.pop(pfn, None)
        self.single_invalidations += 1

    def flush_all(self) -> None:
        """Full flush — required before each epoch scan for fresh dirty bits."""
        if self.tracer.enabled:
            self.tracer.emit(
                TLBFlush(t=self.tracer.now(), entries=len(self._entries))
            )
        self._entries.clear()
        self.flushes += 1
