"""Page flush engine: protect, write out, mark clean on completion.

Implements the ordering that section 5.1 argues is essential for
correctness: the target page is write-protected *before* its contents are
written to secondary storage.  If a concurrent write lands while the IO is
in flight it traps, and the fault handler waits for the flush to complete
before re-dirtying the page — so the durable copy always corresponds to a
page state that really existed, and marking the page clean at completion
never loses an update.

Both flush flavours go through :meth:`Flusher.issue`:

* proactive flushes (epoch-driven, background),
* synchronous evictions (fault handler at the budget).

The page stays in the dirty set (and thus keeps consuming battery budget)
until the SSD acknowledges the write.

Submission failures (the fault injector's :class:`~repro.storage.ssd.
SSDFaultError`) are absorbed by bounded exponential retry-with-backoff:
attempt *i* re-submits ``retry_backoff_ns * 2**(i-1)`` virtual ns later,
charging the backoff to the issuing thread.  When the retry budget is
exhausted the page's protection is rolled back (it stays dirty and
writable) and a typed :class:`FlushFailure` surfaces to the caller — the
device outage is reported, never silently swallowed mid-eviction.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Tuple

from repro.core.dirty_tracker import DirtyTracker
from repro.core.stats import ViyojitStats
from repro.mem.mmu import MMU
from repro.mem.nvdram import NVDRAMRegion
from repro.obs.events import FlushComplete
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from repro.storage.ssd import SSD, SSDFaultError


class FlushFailure(RuntimeError):
    """Every submission attempt for one page flush failed.

    Raised by :meth:`Flusher.issue` after ``1 + max_retries`` rejected
    submissions.  The page is left dirty and writable (its protection is
    rolled back), so the system remains consistent: the flush simply did
    not happen, and the caller decides whether to pick another victim,
    propagate, or shut down.
    """

    def __init__(self, pfn: int, attempts: int, last_error: SSDFaultError) -> None:
        super().__init__(
            f"flush of page {pfn} failed after {attempts} submission "
            f"attempt(s): {last_error}"
        )
        self.pfn = pfn
        self.attempts = attempts
        self.last_error = last_error


class Flusher:
    """Issues page write-outs and applies their completions.

    The per-flush collaborators are bound once at construction.  An
    issue calls the page snapshot, the SSD submission and the event push
    once each, and a completion calls ``BackingStore.persist`` once; the
    tracker removal is open-coded.  The SSD's fault hook is still read on
    every submission (inside ``submit_write``), because the fault
    injector attaches and detaches it while the system runs.
    """

    def __init__(
        self,
        sim: Simulation,
        mmu: MMU,
        region: NVDRAMRegion,
        ssd: SSD,
        backing: BackingStore,
        tracker: DirtyTracker,
        stats: ViyojitStats,
        max_outstanding: int = 16,
        on_cleaned=None,
        reducer=None,
        tracer: Tracer = NULL_TRACER,
        max_retries: int = 4,
        retry_backoff_ns: int = 50_000,
    ) -> None:
        self.sim = sim
        self.mmu = mmu
        self.region = region
        self.ssd = ssd
        self.backing = backing
        self.tracker = tracker
        self.stats = stats
        self.max_outstanding = int(max_outstanding)
        self.on_cleaned = on_cleaned  # callback(pfn) after a flush lands
        # Optional compression/dedup stage in front of the SSD (section 7).
        self.reducer = reducer
        # Optional hook: bytes to write for a page (sub-page tracking
        # flushes only a page's dirty blocks; default = the whole page).
        self.flush_bytes_of = None
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative: {max_retries}")
        if retry_backoff_ns < 0:
            raise ValueError(
                f"retry_backoff_ns must be non-negative: {retry_backoff_ns}"
            )
        self.max_retries = int(max_retries)
        self.retry_backoff_ns = int(retry_backoff_ns)
        self.retries = 0        # submissions re-attempted after a fault
        self.retry_failures = 0  # FlushFailures surfaced (retry exhaustion)
        self._inflight: Dict[int, int] = {}  # pfn -> completion time (ns)
        self.tracer = tracer
        self._flush_latency = (
            tracer.metrics.histogram("flush_latency_ns") if tracer.enabled else None
        )
        # Hot-path bindings (see the class docstring).
        self._dirty = tracker._dirty
        self._clock = sim.clock
        self._schedule = sim.events.schedule
        self._protect_page = mmu.protect_page
        # Section 5.4's MMU counts dirty pages in hardware and must hear
        # about every completed flush; the software MMU has no such hook.
        self._page_cleaned = getattr(mmu, "page_cleaned", None)
        self._freeze = region.freeze
        self._page_version = region.page_version
        self._page_size = region.page_size
        self._submit_write = ssd.submit_write
        self._persist = backing.persist

    @property
    def outstanding(self) -> int:
        return len(self._inflight)

    def is_inflight(self, pfn: int) -> bool:
        return pfn in self._inflight

    def completion_time(self, pfn: int) -> Optional[int]:
        return self._inflight.get(pfn)

    def earliest_completion(self) -> Optional[int]:
        if not self._inflight:
            return None
        return min(self._inflight.values())

    def has_slot(self) -> bool:
        return len(self._inflight) < self.max_outstanding

    def issue(self, pfn: int, nbytes: Optional[int] = None) -> int:
        """Start flushing ``pfn``; returns the CPU cost (ns) of issuing.

        Sequence (section 5.1): write-protect the page (so concurrent
        writes trap instead of racing the IO), snapshot its contents and
        version, submit the SSD write, and schedule the completion that
        will persist the snapshot and drop the page from the dirty set.
        The snapshot is ``NVDRAMRegion.freeze``: one ``bytes`` object that
        is the region's image until the next store and the backing
        store's once persisted.

        ``nbytes`` sizes the SSD IO (defaults to ``flush_bytes_of(pfn)``
        when that hook is set, else the whole page); the durable snapshot
        is always the full page image.
        """
        inflight = self._inflight
        if pfn in inflight:
            raise RuntimeError(f"page {pfn} is already being flushed")
        if pfn not in self._dirty:
            raise RuntimeError(f"page {pfn} is not dirty; nothing to flush")
        if len(inflight) >= self.max_outstanding:
            raise RuntimeError(
                f"flush queue full ({self.max_outstanding} outstanding)"
            )
        page_size = self._page_size
        if nbytes is None:
            if self.flush_bytes_of is not None:
                nbytes = self.flush_bytes_of(pfn)
            else:
                nbytes = page_size
        if not 0 < nbytes <= page_size:
            raise ValueError(f"flush size {nbytes} outside (0, {page_size}]")
        cost = self._protect_page(pfn)
        stats = self.stats
        stats.pte_update_time_ns += cost
        data = self._freeze(pfn)
        version = self._page_version[pfn]
        physical = nbytes
        if self.reducer is not None:
            reduced = self.reducer.process(data[:nbytes])
            physical = max(1, reduced.physical_bytes)
            cost += reduced.cpu_cost_ns
        issued_at = self._clock._now
        try:
            completion = self._submit_write(issued_at, physical)
        except SSDFaultError as exc:
            completion, backoff_ns = self._resubmit(pfn, issued_at, physical, exc)
            cost += backoff_ns
        inflight[pfn] = completion
        stats.pages_flushed += 1
        stats.bytes_flushed += nbytes
        self._schedule(
            completion,
            partial(self._complete, pfn, data, version, issued_at, completion),
        )
        return cost

    def _complete(
        self, pfn: int, data: bytes, version: int, issued_at: int, completion: int
    ) -> None:
        """The flush of ``pfn`` landed: persist the snapshot, clean the page.

        ``DirtyTracker.remove`` (a ``discard``) is open-coded.
        """
        self._persist(pfn, data, version)
        self._dirty.discard(pfn)
        del self._inflight[pfn]
        self.stats.flush_completions += 1
        if self.tracer.enabled:
            latency = completion - issued_at
            self.tracer.emit(FlushComplete(t=completion, pfn=pfn, latency_ns=latency))
            self._flush_latency.observe(latency)
        if self._page_cleaned is not None:
            self._page_cleaned(pfn)
        if self.on_cleaned is not None:
            self.on_cleaned(pfn)

    def _resubmit(
        self, pfn: int, issued_at: int, physical: int, error: SSDFaultError
    ) -> Tuple[int, int]:
        """Retry a rejected submission of ``physical`` bytes with backoff.

        Called after the first attempt failed with ``error``.  Returns
        ``(completion_ns, backoff_ns)`` where ``backoff_ns`` is the total
        virtual time the issuing thread spent backing off.  After
        ``max_retries`` further rejections, rolls the page's protection
        back and raises :class:`FlushFailure`.
        """
        backoff_ns = 0
        attempt = 1
        while attempt <= self.max_retries:
            self.retries += 1
            backoff_ns += self.retry_backoff_ns * (2 ** (attempt - 1))
            attempt += 1
            try:
                return self.ssd.submit_write(issued_at + backoff_ns, physical), backoff_ns
            except SSDFaultError as exc:
                error = exc
        self.retry_failures += 1
        # Roll back the protect-before-copy step: the flush never
        # happened, so the page stays dirty *and* writable instead of
        # wedging behind a protection it will never be released from.
        self.mmu.unprotect_page(pfn)
        raise FlushFailure(pfn, attempt, error) from error
