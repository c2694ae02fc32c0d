"""The Viyojit runtime: mmap-like API + the Fig 6 fault-handler flow.

This module is the paper's primary contribution.  One :class:`Viyojit`
instance manages one NV-DRAM region under a dirty budget:

1. At startup every page is write-protected (Fig 6, step 1).
2. A store to a protected page faults (step 2/3).  The handler waits out
   any in-flight flush of that page, makes room if the dirty set is at the
   budget by synchronously evicting the least-recently-updated page
   (steps 5-7), then unprotects the page and adds it to the dirty set
   (steps 4/8).  The MMU retries the store, which now succeeds.
3. Every ``epoch_ns`` of virtual time, the runtime flushes the TLB, walks
   the page table reading+clearing dirty bits, folds the result into the
   per-page update history, updates the EWMA dirty-page pressure, and
   proactively flushes cold dirty pages whenever the dirty count exceeds
   ``budget - pressure`` (sections 5.2-5.3).

:class:`FullBatteryNVDRAM` is the evaluation baseline: same region, same
MMU costs, but no protection, tracking, or flushing — it assumes a battery
sized for the whole region.

:class:`HardwareViyojit` is the section 5.4 variant: a hardware dirty-page
counter removes per-first-write traps; budget enforcement happens in the
budget interrupt the MMU raises on each new dirty page.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance only
    from repro.power.battery import Battery
    from repro.power.power_model import PowerModel

from repro.core.config import ViyojitConfig, require_page_count
from repro.core.dirty_tracker import DirtyTracker
from repro.core.flusher import Flusher, FlushFailure
from repro.core.history import UpdateHistory
from repro.core.pressure import PressureEstimator
from repro.core.sanitizer import SimulationSanitizer
from repro.core.stats import ViyojitStats
from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU, HardwareAssistedMMU
from repro.mem.nvdram import NVDRAMRegion
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.obs.events import BudgetWait, EpochScan, ProactiveFlush, SyncEviction
from repro.obs.metrics import EpochPoint
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from repro.storage.ssd import SSD


@dataclass
class Mapping:
    """A contiguous allocation returned by :meth:`NVDRAMSystem.mmap`."""

    base_addr: int
    size: int
    base_page: int
    num_pages: int
    active: bool = True

    def addr(self, offset: int) -> int:
        """Absolute region address of ``offset`` within the mapping."""
        if not 0 <= offset < self.size:
            raise IndexError(f"offset {offset} out of mapping of size {self.size}")
        return self.base_addr + offset


class OutOfNVDRAM(Exception):
    """Raised when an mmap request cannot be satisfied."""


class NVDRAMSystem:
    """Shared plumbing: region + MMU + allocator + data-path charging.

    Subclasses define the write fault policy.  All methods that touch data
    advance the simulation clock by the hardware costs of the touches, so
    callers measure operation latency as a clock delta.
    """

    #: The single-page load/store closures (see :meth:`data_path`).
    _lane: "DataPath"

    def __init__(
        self,
        sim: Simulation,
        num_pages: int,
        machine: Optional[MachineModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.machine = machine if machine is not None else MachineModel()
        # Observability: the no-op NULL_TRACER by default, so every
        # instrumentation site reduces to one falsy branch.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(sim.clock)
        self.region = NVDRAMRegion(num_pages, self.machine.page_size)
        self.page_table = PageTable(num_pages)
        self.tlb = TLB(num_pages, self.machine.tlb_entries)
        self.tlb.tracer = self.tracer
        self.mmu = self._build_mmu()
        self.mmu.tracer = self.tracer
        self._next_page = 0
        self._free_chunks: List[Tuple[int, int]] = []  # (base_page, num_pages)
        self._started = False
        # Hot-path aliases: the simulation, clock, and machine model are
        # fixed for the system's lifetime, so the data path resolves them
        # once instead of chasing attribute chains per page access.
        self._clock = sim.clock
        self._events = sim.events
        self._drain = sim.drain_due
        self._page_size = self.region.page_size
        self._region_bytes = self.region.size
        self._write_probe = self.mmu.write_probe

    def _build_mmu(self) -> MMU:
        return MMU(self.page_table, self.tlb, self.machine)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Prepare the region for use.  Subclasses set protection policy."""
        self._lane = self._build_lane()
        self._started = True

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("call start() before using the region")

    # -- allocation (the mmap-like API of section 4.3) ---------------------

    def mmap(self, size: int) -> Mapping:
        """Allocate ``size`` bytes of NV-DRAM (rounded up to whole pages)."""
        self._require_started()
        if size <= 0:
            raise ValueError(f"size must be positive: {size}")
        pages_needed = -(-size // self.region.page_size)
        base_page = self._allocate_pages(pages_needed)
        mapping = Mapping(
            base_addr=base_page * self.region.page_size,
            size=size,
            base_page=base_page,
            num_pages=pages_needed,
        )
        self._on_mmap(mapping)
        return mapping

    def _allocate_pages(self, pages_needed: int) -> int:
        """First-fit over the (sorted, coalesced) free list, then the tail."""
        for index, (base, count) in enumerate(self._free_chunks):
            if count >= pages_needed:
                if count == pages_needed:
                    self._free_chunks.pop(index)
                else:
                    self._free_chunks[index] = (base + pages_needed, count - pages_needed)
                return base
        if self._next_page + pages_needed > self.region.num_pages:
            tail_pages = self.region.num_pages - self._next_page
            chunk_pages = sum(count for _base, count in self._free_chunks)
            largest_chunk = max(
                (count for _base, count in self._free_chunks), default=0
            )
            raise OutOfNVDRAM(
                f"need {pages_needed} contiguous pages, but the largest "
                f"free extent is {max(tail_pages, largest_chunk)} pages "
                f"({tail_pages} tail + {chunk_pages} across "
                f"{len(self._free_chunks)} free chunk(s), "
                f"{tail_pages + chunk_pages} free in total)"
            )
        base = self._next_page
        self._next_page += pages_needed
        return base

    def munmap(self, mapping: Mapping) -> None:
        """Release a mapping.  Dirty pages are flushed first (durability)."""
        self._require_started()
        if not mapping.active:
            raise ValueError("mapping already unmapped")
        self._on_munmap(mapping)
        mapping.active = False
        self._free_pages(mapping.base_page, mapping.num_pages)

    def _free_pages(self, base: int, count: int) -> None:
        """Return ``[base, base + count)`` to the free list, coalescing.

        The free list is kept sorted by base page with no two chunks
        adjacent, so adjacent frees merge into extents that can satisfy
        larger mmaps (long-running mmap/munmap cycles must not fragment
        the region into unusably small chunks).  A chunk that ends at the
        allocation frontier is absorbed back into the untouched tail.
        """
        chunks = self._free_chunks
        index = bisect.bisect_left(chunks, (base, count))
        # Merge with the left neighbour when it ends exactly at ``base``.
        if index > 0 and chunks[index - 1][0] + chunks[index - 1][1] == base:
            index -= 1
            prev_base, prev_count = chunks.pop(index)
            base, count = prev_base, prev_count + count
        # Merge with right neighbours starting exactly at our end.
        while index < len(chunks) and chunks[index][0] == base + count:
            count += chunks.pop(index)[1]
        if base + count == self._next_page:
            # The freed extent touches the allocation frontier: give it
            # back to the tail so a full-region mmap can succeed again.
            self._next_page = base
        else:
            chunks.insert(index, (base, count))

    def _on_mmap(self, mapping: Mapping) -> None:
        """Subclass hook: set initial protection for new pages."""

    def _on_munmap(self, mapping: Mapping) -> None:
        """Subclass hook: drain dirty state before release."""

    # -- data path ----------------------------------------------------------

    def charge(self, cost_ns: int) -> None:
        """Charge CPU time to the app thread (advances the clock).

        Clients (e.g. the KV store) use this for work that happens outside
        the memory system — command parsing, hashing, allocator logic.
        """
        if cost_ns < 0:
            raise ValueError(f"cost must be non-negative: {cost_ns}")
        self._advance(cost_ns)

    def _advance(self, cost_ns: int) -> None:
        # ``drain_due`` is a no-op while the clock sits below the queue's
        # next-due lower bound; skipping the call is interleaving-neutral.
        # The clock bump is open-coded: every internal caller passes a
        # non-negative machine-model cost, so ``SimClock.advance``'s
        # validation would be pure per-access overhead here.
        clock = self._clock
        now = clock._now + cost_ns
        clock._now = now
        if now >= self._events.next_due_at:
            self.sim.drain_due()

    def _touch_write(self, pfn: int) -> None:
        """Resolve protection for a store to ``pfn``.

        On the successful (final) access the clock is advanced WITHOUT
        draining events: the caller must apply the store to the region
        before any event may run, or a flush scheduled in between could
        snapshot the page pre-store and mark it clean while the new data
        never reaches durable media.  Callers follow the pattern::

            self._touch_write(pfn)
            self.region.write(...)   # atomic with the access
            self.sim.drain_due()

        The lane's store (:meth:`data_path`) open-codes this pattern.
        """
        cost = self._write_probe(pfn)
        if cost < 0:
            cost = self._resolve_fault(pfn, cost)
        self._clock._now += cost

    def _resolve_fault(self, pfn: int, cost: int) -> int:
        """Handle a store to ``pfn`` whose probe faulted (``cost < 0``).

        A runtime that write-protects pages charges the faulted probe (as
        :meth:`_advance` would), runs its handler and retries the store
        (the instruction restart) until a probe succeeds, and returns
        that probe's cost, not yet charged: the caller charges it and
        applies the store before any event may run (see
        :meth:`_touch_write`).  Without a battery-backed dirty budget no
        page is ever protected, so here a fault is a bug.
        """
        raise AssertionError(
            f"baseline NV-DRAM should never fault (page {pfn})"
        )

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes, charging MMU costs for each page touched.

        Validation and the multi-page walk only: each page's slice is one
        single-page load through the lane (:meth:`data_path`), in address
        order.
        """
        if not self._started:
            self._require_started()
        if size <= 0 or addr < 0 or addr + size > self._region_bytes:
            # Empty or out of range: no page is touched; the region returns
            # b"" or raises the canonical exception.
            self.region.pages_of_range(addr, size)
            return self.region.read(addr, size)
        read_at = self._lane.read_at
        page_size = self._page_size
        end = addr + size
        chunks = []
        while addr < end:
            take = min(end - addr, page_size - addr % page_size)
            buffer, offset = read_at(addr, take)
            chunks.append(
                bytes(take) if buffer is None else buffer[offset : offset + take]
            )
            addr += take
        return b"".join(chunks)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data``, faulting (and resolving) per protected page.

        Validation and the multi-page walk only: each page's slice is one
        single-page store through the lane (:meth:`data_path`), which
        applies it immediately after its access resolves, so no
        background flush can interleave between "page became writable and
        dirty" and "the bytes actually landed".
        """
        if not self._started:
            self._require_started()
        if not data:
            return
        size = len(data)
        if addr < 0 or addr + size > self._region_bytes:
            self.region.page_of(addr if addr < 0 else self._region_bytes)  # raises
        store = self._lane.write
        page_size = self._page_size
        view = memoryview(data)
        done = 0
        while done < size:
            take = min(size - done, page_size - (addr + done) % page_size)
            store(addr + done, view[done : done + take])
            done += take

    # -- the lane: single-page loads and stores ------------------------------

    def run_ops(self, writes, addrs, payloads, verify: bool = True) -> None:
        """Apply a batch of operations: one loop over the lane's closures.

        ``writes``/``addrs``/``payloads`` are parallel sequences: for a
        write, ``payload`` is the bytes to store; for a read, the expected
        read-back bytes (the durability oracle, compared unless ``verify``
        is false).  Each element is exactly one :meth:`write` or
        :meth:`read` — same probes, same clock charges, same drain points
        — so batching is wall-clock-only.
        """
        if not self._started:
            self._require_started()
        store = self._lane.write
        read_at = self._lane.read_at
        for is_write, addr, payload in zip(writes, addrs, payloads):
            if is_write:
                store(addr, payload)
                continue
            size = len(payload)
            buffer, offset = read_at(addr, size)
            if verify and payload != (
                bytes(size) if buffer is None else buffer[offset : offset + size]
            ):
                raise AssertionError(f"read-back mismatch at address {addr}")

    def data_path(self) -> "DataPath":
        """The lane: the only implementation of a single-page load/store.

        Built once, by :meth:`start`.  :meth:`read`, :meth:`write`,
        :meth:`run_ops` and the KV store's operations (bound over this
        lane when a :class:`~repro.kvstore.store.KVStore` is built) all
        run their page touches through these closures.
        """
        self._require_started()
        return self._lane

    def _build_lane(self) -> "DataPath":
        """The lane's closures, over attributes resolved once.

        A TLB hit is open-coded: a resident translation costs one DRAM
        access for a load, and so does a store through a translation
        cached *dirty* — that flag implies the page is unprotected and its
        PTE dirty bit set, because protection toggles always shoot the
        entry down.  Anything else is one call into the MMU
        (``read_cost``/``write_probe``), which counts the miss, inserts
        the entry and sets the PTE bits; a faulted store enters
        :meth:`_resolve_fault`.  Empty, page-spanning and out-of-range
        requests go to :meth:`read`/:meth:`write`, whose walk sends each
        page's slice back here.
        """
        region_bytes = self._region_bytes
        page_size = self._page_size
        mmu = self.mmu
        tlb = self.tlb
        entries = tlb._entries
        touch = entries.move_to_end
        read_cost = mmu.read_cost
        probe = self._write_probe
        resolve_fault = self._resolve_fault
        clock = self._clock
        events = self._events
        drain = self._drain
        dram_cost = self.machine.dram_access_cost_ns
        pages = self.region._pages
        page_version = self.region.page_version
        slow_read = self.read
        slow_write = self.write

        def write(addr: int, data: bytes) -> None:
            size = len(data)
            pfn = addr // page_size
            offset = addr - pfn * page_size
            if (
                size == 0
                or addr < 0
                or offset + size > page_size
                or addr + size > region_bytes
            ):
                slow_write(addr, data)
                return
            if entries.get(pfn):
                touch(pfn)
                tlb.hits += 1
                mmu.write_accesses += 1
                clock._now += dram_cost
            else:
                cost = probe(pfn)
                if cost < 0:
                    cost = resolve_fault(pfn, cost)
                clock._now += cost
            # The bytes land before any event may run (see _touch_write).
            # An absent page is allocated and a frozen (flushed) one thawed
            # with one copy (see NVDRAMRegion._page).
            page = pages.get(pfn)
            if page.__class__ is not bytearray:
                page = pages[pfn] = (
                    bytearray(page_size) if page is None else bytearray(page)
                )
            page[offset : offset + size] = data
            page_version[pfn] += 1
            if clock._now >= events.next_due_at:
                drain()

        def read_at(addr: int, size: int):
            """Charge a read; return ``(buffer, offset)`` without copying.

            ``buffer`` is the backing page (``None`` for a never-written
            page, which reads as zeros) and ``offset`` the position of the
            requested bytes within it.  Requests that are not one in-range
            page are served by :meth:`NVDRAMSystem.read` and returned as
            ``(bytes, 0)``.
            """
            pfn = addr // page_size
            offset = addr - pfn * page_size
            if (
                size <= 0
                or addr < 0
                or offset + size > page_size
                or addr + size > region_bytes
            ):
                return slow_read(addr, size), 0
            if pfn in entries:
                touch(pfn)
                tlb.hits += 1
                mmu.read_accesses += 1
                now = clock._now + dram_cost
            else:
                now = clock._now + read_cost(pfn)
            clock._now = now
            if now >= events.next_due_at:
                drain()
            return pages.get(pfn), offset

        return DataPath(write=write, read_at=read_at)


class DataPath:
    """The lane's closures, from :meth:`NVDRAMSystem.data_path`."""

    __slots__ = ("write", "read_at")

    def __init__(self, write, read_at) -> None:
        self.write = write
        self.read_at = read_at


class FullBatteryNVDRAM(NVDRAMSystem):
    """The baseline: conventional NV-DRAM with a battery for the whole region.

    No write protection, no tracking, no flushing — every page may be
    dirty because the battery can flush them all.  Pays only raw DRAM/TLB
    costs, which is what the paper's "NV-DRAM" baseline curves measure.
    """

    #: Declares the full-battery durability assumption explicitly so the
    #: crash simulator's recovery walk (repro.core.crash) may take the
    #: whole-region path without a backing store.  Any runtime *without*
    #: this marker must expose a backing store or the simulator refuses
    #: to verify it (fail loudly, never silently skip).
    assumes_full_battery = True

    def start(self) -> None:
        self.mmu.unprotect_all()
        super().start()

    def dirty_pages(self):
        """Every ever-written page is potentially dirty in the baseline."""
        return {pfn for pfn, _version in self.region.touched_pages()}


class Viyojit(NVDRAMSystem):
    """Dirty-budget-bounded NV-DRAM (the paper's system)."""

    #: Consecutive :class:`FlushFailure`s tolerated inside one eviction
    #: loop (each already represents an exhausted retry budget) before
    #: the outage is re-raised to the application.
    max_eviction_flush_failures = 3

    def __init__(
        self,
        sim: Simulation,
        num_pages: int,
        config: ViyojitConfig,
        ssd: Optional[SSD] = None,
        backing: Optional[BackingStore] = None,
        machine: Optional[MachineModel] = None,
        reducer=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(sim, num_pages, machine, tracer=tracer)
        if config.dirty_budget_pages > num_pages:
            raise ValueError(
                f"dirty budget of {config.dirty_budget_pages} pages exceeds "
                f"region of {num_pages} pages — use the full-battery baseline"
            )
        self.config = config
        self.ssd = ssd if ssd is not None else SSD()
        self.ssd.tracer = self.tracer
        self.backing = (
            backing
            if backing is not None
            else BackingStore(num_pages, self.machine.page_size)
        )
        self.stats = ViyojitStats()
        self.tracker = DirtyTracker(config.dirty_budget_pages)
        self.history = UpdateHistory(num_pages, config.history_epochs)
        self.pressure = PressureEstimator(config.pressure_alpha)
        from repro.core.policies import VictimPolicy, make_policy

        self.policy = make_policy(
            config.victim_policy, history=self.history, seed=config.policy_seed
        )
        self.flusher = Flusher(
            sim=sim,
            mmu=self.mmu,
            region=self.region,
            ssd=self.ssd,
            backing=self.backing,
            tracker=self.tracker,
            stats=self.stats,
            max_outstanding=config.max_outstanding_io,
            on_cleaned=self._on_flush_cleaned,
            reducer=reducer,
            tracer=self.tracer,
            max_retries=config.max_flush_retries,
            retry_backoff_ns=config.flush_retry_backoff_ns,
        )
        #: FlushFailures absorbed by the eviction loops (victim rotated).
        self.eviction_flush_failures = 0
        # The last victim ranking and how far into it we have consumed.
        self._victim_queue: List[int] = []
        self._victim_cursor = 0
        self._victim_want = max(config.max_outstanding_io * 4, 64)
        # Fault-lane bindings: the tracker's set and the flusher's
        # in-flight dict are the membership truth, and policy hooks the
        # base class defines as no-ops (LRU's ``note_dirtied``, ...) are
        # skipped instead of called per page.
        self._dirty = self.tracker._dirty
        self._inflight = self.flusher._inflight
        self._max_outstanding = self.flusher.max_outstanding
        self._issue = self.flusher.issue
        self._unprotect_page = self.mmu.unprotect_page
        self._trap_cost_ns = self.machine.trap_cost_ns
        policy_type = type(self.policy)
        self._note_dirtied = (
            None
            if policy_type.note_dirtied is VictimPolicy.note_dirtied
            else self.policy.note_dirtied
        )
        self._note_cleaned = (
            None
            if policy_type.note_cleaned is VictimPolicy.note_cleaned
            else self.policy.note_cleaned
        )
        # Runtime invariant checker (repro.core.sanitizer): pure reads at each
        # hook, so arming it cannot perturb the simulation.
        self.sanitizer: Optional[SimulationSanitizer] = (
            SimulationSanitizer(self) if config.sanitize else None
        )
        # Current proactive trigger (recomputed each epoch).  The copier
        # is a continuous background thread in the paper, not an
        # epoch-tick activity: completions refill the IO pipe immediately
        # whenever the dirty count still exceeds the threshold.
        self._proactive_threshold = config.dirty_budget_pages
        # Metric instruments, bound once so the hot path pays a plain
        # attribute access (None when the tracer is the no-op default).
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            self._h_fault = metrics.histogram("fault_handler_ns")
            self._h_blocked = metrics.histogram("blocked_ns")
        else:
            self._h_fault = None
            self._h_blocked = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fig 6 step 1: write-protect everything, start the epoch timer."""
        self.page_table.protect_all()
        self.tlb.flush_all()
        super().start()
        self.sim.schedule_after(self.config.epoch_ns, self._on_epoch)

    def _on_mmap(self, mapping: Mapping) -> None:
        # Freshly (re)allocated pages must trap on first write.
        for pfn in range(mapping.base_page, mapping.base_page + mapping.num_pages):
            if not self.page_table.is_write_protected(pfn):
                cost = self.mmu.protect_page(pfn)
                self._advance(cost)

    def _on_munmap(self, mapping: Mapping) -> None:
        # Flush the mapping's dirty pages so released NV-DRAM is durable.
        for pfn in range(mapping.base_page, mapping.base_page + mapping.num_pages):
            if self.flusher.is_inflight(pfn):
                self._wait_until(self.flusher.completion_time(pfn))
            elif pfn in self.tracker:
                while not self.flusher.has_slot():
                    self._wait_until(self.flusher.earliest_completion())
                cost = self.flusher.issue(pfn)
                self._advance(cost)
                self._wait_until(self.flusher.completion_time(pfn) or self.sim.now)

    # -- fault handling (Fig 6 steps 3-8) -------------------------------------

    def _wait_until(self, when_ns: Optional[int]) -> None:
        if when_ns is None or when_ns <= self.sim.now:
            self.sim.drain_due()
            return
        before = self.sim.now
        self.sim.run_until(when_ns)
        blocked = self.sim.now - before
        self.stats.blocked_time_ns += blocked
        if self._h_blocked is not None and blocked > 0:
            self._h_blocked.observe(blocked)

    def _resolve_fault(self, pfn: int, cost: int) -> int:
        """Fig 6 steps 3-8: the fault handler, inside the retry loop.

        Each pass charges the faulted probe (as :meth:`_advance` would),
        takes the trap, waits out an in-flight flush of the page, makes
        room at the budget, unprotects the page and adds it to the dirty
        set (:meth:`_admit_dirty`), then retries the store.  Returns the
        successful probe's cost, not yet charged (see
        :meth:`_touch_write`).
        """
        clock = self._clock
        events = self._events
        drain = self._drain
        stats = self.stats
        dirty = self._dirty
        inflight = self._inflight
        tracker = self.tracker
        trap_cost = self._trap_cost_ns
        while cost < 0:
            now = clock._now - cost - 1
            clock._now = now
            if now >= events.next_due_at:
                drain()
            entered_at = now = clock._now
            stats.write_faults += 1
            stats.trap_time_ns += trap_cost
            now += trap_cost
            clock._now = now
            if now >= events.next_due_at:
                drain()

            # A write landed on a page whose flush is in flight: wait for
            # the IO so the durable copy is a state that really existed,
            # then re-dirty the page through the normal path (section 5.1).
            if pfn in inflight:
                stats.inflight_waits += 1
                self._wait_until(inflight[pfn])

            # Make room: at the budget, the least-recently-updated dirty
            # page is synchronously written out before this page may be
            # dirtied.
            if len(dirty) >= tracker.budget_pages:
                self._make_room()

            cost = self._unprotect_page(pfn)
            stats.pte_update_time_ns += cost
            now = clock._now + cost
            clock._now = now
            if now >= events.next_due_at:
                drain()
            self._admit_dirty(pfn)
            if self._h_fault is not None:
                self._h_fault.observe(clock._now - entered_at)
            cost = self._write_probe(pfn)
        return cost

    def _admit_dirty(self, pfn: int) -> None:
        """Fig 6 steps 4-8: make room at the budget, then dirty ``pfn``.

        The one dirtying step, shared by both fault handlers and the
        hardware budget interrupt.  Its callers have just advanced the
        clock, and the events that drained may have shrunk the budget (a
        battery-degradation step) since any room they made, so the
        budget is checked here, right before the insert.  Then come the
        sanitizer's and the victim policy's hooks, ``pages_dirtied``, and
        the dirty level's peak and sample.  ``DirtyTracker.add`` (with
        its budget check, the durability guarantee: it must never fire
        in a correct runtime) and ``ViyojitStats.record_dirty_level`` are
        open-coded, so dirtying a page is one frame.
        """
        dirty = self._dirty
        tracker = self.tracker
        count = len(dirty)
        if count >= tracker.budget_pages:
            self._make_room()
            count = len(dirty)
        if pfn not in dirty:
            if count >= tracker.budget_pages:
                raise RuntimeError(
                    f"dirty budget violated: adding page {pfn} would "
                    f"make {count + 1} dirty pages against a budget of "
                    f"{tracker.budget_pages}"
                )
            dirty.add(pfn)
            count += 1
            tracker.epoch_new_dirty += 1
            tracker.total_dirtied += 1
        if self.sanitizer is not None:
            self.sanitizer.after_dirtied(pfn)
        if self._note_dirtied is not None:
            self._note_dirtied(pfn)
        stats = self.stats
        stats.pages_dirtied += 1
        if count > stats.peak_dirty_pages:
            stats.peak_dirty_pages = count
        ticks = stats._sample_ticks
        stats._sample_ticks = ticks + 1
        if ticks % stats._sample_stride == 0:
            stats._keep_sample(count)

    def _make_room(self) -> None:
        """Evict synchronously until the dirty set is under budget.

        Fig 6 steps 5-7, shared by the software fault handler and the
        hardware budget interrupt.  A victim whose flush fails even after
        the flusher's bounded retries (an injected device outage) is
        rotated out for another victim; after
        :attr:`max_eviction_flush_failures` consecutive exhaustions the
        :class:`FlushFailure` propagates to the application.
        """
        consecutive_failures = 0
        dirty = self._dirty
        inflight = self._inflight
        tracker = self.tracker
        while len(dirty) >= tracker.budget_pages:
            victim = self._next_victim()
            if victim is None:
                # Every dirty page is already in flight; the budget frees
                # up as soon as the earliest IO completes.
                self.stats.budget_waits += 1
                wait_from = self.sim.now
                self._wait_until(self.flusher.earliest_completion())
                if self.tracer.enabled:
                    self.tracer.emit(
                        BudgetWait(t=wait_from, wait_ns=self.sim.now - wait_from)
                    )
                continue
            if len(inflight) >= self._max_outstanding:
                self._wait_until(self.flusher.earliest_completion())
                continue
            try:
                issue_cost = self._issue(victim)
            except FlushFailure:
                self.eviction_flush_failures += 1
                consecutive_failures += 1
                if consecutive_failures >= self.max_eviction_flush_failures:
                    raise
                continue
            consecutive_failures = 0
            self._advance(issue_cost)
            self.stats.sync_evictions += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    SyncEviction(t=self.sim.now, pfn=victim, dirty=len(dirty))
                )
            self._wait_until(inflight.get(victim))

    # -- victim selection ------------------------------------------------------

    def _rebuild_victim_queue(self) -> None:
        """Rank the current candidates: dirty pages not already in flight."""
        dirty = self._dirty
        inflight = self._inflight
        candidates: Collection[int]
        if self.policy.order_insensitive:
            # Set algebra in C; valid only because the policy's ranking
            # is a pure function of the candidate set, not of its order.
            candidates = dirty.difference(inflight)
        else:
            candidates = [pfn for pfn in dirty if pfn not in inflight]
        self._victim_queue = self.policy.rank(candidates, self._victim_want)
        self._victim_cursor = 0

    def _next_victim(self) -> Optional[int]:
        """The next ranked page still dirty and not in flight, if any.

        The ranking is consumed through a cursor and re-taken only when
        it runs dry; entries that were cleaned or went in flight since
        the ranking are skipped.
        """
        dirty = self._dirty
        inflight = self._inflight
        rebuilt = False
        while True:
            queue = self._victim_queue
            cursor = self._victim_cursor
            end = len(queue)
            while cursor < end:
                pfn = queue[cursor]
                cursor += 1
                if pfn in dirty and pfn not in inflight:
                    self._victim_cursor = cursor
                    return pfn
            self._victim_cursor = cursor
            if rebuilt:
                return None
            self._rebuild_victim_queue()
            rebuilt = True

    # -- the epoch timer (sections 5.2 and 5.3) ---------------------------------

    def _on_epoch(self) -> None:
        updated, scan_cost = self.mmu.epoch_scan(
            flush_tlb=self.config.flush_tlb_on_scan
        )
        self.sim.clock.advance(scan_cost)
        self.stats.epoch_scan_time_ns += scan_cost
        if self.sanitizer is not None:
            self.sanitizer.after_epoch_scan()
        self.policy.note_scan(updated, self.history.epoch)
        self.history.record_scan(updated)
        new_dirty = self.tracker.roll_epoch()
        self.pressure.observe(new_dirty)
        self._rebuild_victim_queue()
        if self.config.proactive:
            self._proactive_flush()
        self.stats.epochs += 1
        self.stats.record_dirty_level(self.tracker.count)
        if self.tracer.enabled:
            self._note_epoch(len(updated), new_dirty)
        self.sim.schedule_after(self.config.epoch_ns, self._on_epoch)

    def _note_epoch(self, updated: int, new_dirty: int) -> None:
        """Emit the epoch's trace event, gauges, and timeline point."""
        if not self.tracer.enabled:
            return
        t = self.sim.now
        dirty = self.tracker.count
        pressure = self.pressure.pressure
        threshold = self._proactive_threshold
        self.tracer.emit(
            EpochScan(
                t=t,
                epoch=self.stats.epochs,
                updated=updated,
                new_dirty=new_dirty,
                dirty=dirty,
                pressure=pressure,
                threshold=threshold,
            )
        )
        metrics = self.tracer.metrics
        metrics.gauge("dirty_pages").set(dirty)
        metrics.gauge("pressure").set(pressure)
        metrics.gauge("flush_threshold").set(threshold)
        metrics.timeline.record(
            EpochPoint(
                epoch=self.stats.epochs,
                t=t,
                dirty=dirty,
                new_dirty=new_dirty,
                pressure=pressure,
                threshold=threshold,
                outstanding=self.flusher.outstanding,
            )
        )

    def _proactive_flush(self) -> None:
        self._proactive_threshold = self.pressure.threshold(
            self.tracker.budget_pages
        )
        excess = (
            self.tracker.count
            - self.flusher.outstanding
            - self._proactive_threshold
        )
        while excess > 0 and self.flusher.has_slot():
            victim = self._next_victim()
            if victim is None:
                break
            issue_cost = self.flusher.issue(victim)
            self.sim.clock.advance(issue_cost)
            self.stats.proactive_flushes += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    ProactiveFlush(
                        t=self.sim.now,
                        pfn=victim,
                        dirty=self.tracker.count,
                        threshold=self._proactive_threshold,
                    )
                )
            excess -= 1

    def _on_flush_cleaned(self, pfn: int) -> None:
        """Flush completion: check the page is durable, free the
        policy's record, then let the background copier refill the pipe
        (:meth:`_refill_after_flush`)."""
        if self.sanitizer is not None:
            self.sanitizer.after_flush_complete(pfn)
        if self._note_cleaned is not None:
            self._note_cleaned(pfn)
        if self.config.proactive and self._started:
            self._refill_after_flush()

    def _refill_after_flush(self) -> None:
        """Issue one more proactive flush if the dirty count is still
        above the trigger threshold and an IO slot is free.

        The background copier keeps issuing while the dirty count sits
        above the threshold, so its drain rate is bounded by the SSD,
        not by the epoch tick frequency.
        """
        outstanding = len(self._inflight)
        if (
            len(self._dirty) - outstanding > self._proactive_threshold
            and outstanding < self._max_outstanding
        ):
            victim = self._next_victim()
            if victim is not None:
                # Issue costs are non-negative machine charges; the clock
                # bump is open-coded like the rest of the fault lane.
                self._clock._now += self._issue(victim)
                self.stats.proactive_flushes += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        ProactiveFlush(
                            t=self.sim.now,
                            pfn=victim,
                            dirty=len(self._dirty),
                            threshold=self._proactive_threshold,
                        )
                    )

    # -- durability interface ----------------------------------------------------

    @property
    def dirty_count(self) -> int:
        return self.tracker.count

    @property
    def dirty_budget_pages(self) -> int:
        """The budget currently in force (initially ``config``'s value).

        Mutable at runtime via :meth:`set_dirty_budget` — section 8's
        battery-degradation handling and section 6.3's battery
        ballooning both re-tune the budget while the system runs.
        """
        return self.tracker.budget_pages

    def set_dirty_budget(self, pages: int) -> None:
        """Apply a new dirty budget: the one budget-change step.

        Section 8's battery-degradation response and section 6.3's
        ballooning both change the budget through here.  Growing takes
        effect at once.  Shrinking lowers the bound for new dirtyings at
        once, and on a started system flushes cold pages until the dirty
        count fits before returning — so when the call returns, the
        battery that sized ``pages`` covers every dirty page, and budget
        taken from this system may be handed to another.  The sanitizer
        learns of the change after that drain.
        """
        pages = require_page_count(pages, "budget")
        if pages <= 0:
            raise ValueError(f"budget must be positive: {pages}")
        if pages > self.region.num_pages:
            raise ValueError(
                f"budget of {pages} pages exceeds region of "
                f"{self.region.num_pages} pages"
            )
        self.tracker.budget_pages = pages
        if self._started and self.tracker.count > pages:
            self._drain_to_budget()
        if self.sanitizer is not None:
            self.sanitizer.note_budget_change(self.tracker.budget_pages)

    def retune_for_battery(
        self, power_model: "PowerModel", battery: "Battery"
    ) -> int:
        """Section 8: graceful budget shrink after battery capacity loss.

        Applies, through :meth:`set_dirty_budget` (which drains any
        excess at SSD speed), the dirty budget the (possibly degraded)
        ``battery`` can flush.  The budget never drops below one page (a
        dead battery cannot make the budget zero; Viyojit degrades to a
        tiny budget instead of disabling NV-DRAM) and never exceeds the
        region.  Returns the budget now in force.
        """
        derived = power_model.dirty_budget_pages(battery, self.region.page_size)
        applied = max(1, min(derived, self.region.num_pages))
        self.set_dirty_budget(applied)
        return applied

    def _drain_to_budget(self) -> None:
        """Flush cold pages until the dirty count fits the current budget."""
        while self.tracker.count > self.tracker.budget_pages:
            victim = self._next_victim()
            if victim is None or not self.flusher.has_slot():
                earliest = self.flusher.earliest_completion()
                if earliest is None:
                    break
                self._wait_until(earliest)
                continue
            cost = self.flusher.issue(victim)
            self._advance(cost)
        # Wait out the in-flight tail.
        while self.tracker.count > self.tracker.budget_pages:
            earliest = self.flusher.earliest_completion()
            if earliest is None:
                break
            self._wait_until(earliest)

    def dirty_pages(self):
        """Pages whose durable copy is stale right now."""
        return self.tracker.snapshot()

    def dirty_bytes(self) -> int:
        return self.tracker.count * self.region.page_size

    def drain(self) -> None:
        """Flush every dirty page and wait (controlled shutdown, section 8)."""
        self._require_started()
        while self.tracker.count or self.flusher.outstanding:
            while self.flusher.has_slot():
                victim = self._next_victim()
                if victim is None:
                    break
                cost = self.flusher.issue(victim)
                self._advance(cost)
            earliest = self.flusher.earliest_completion()
            if earliest is None:
                break
            self._wait_until(earliest)


class HardwareViyojit(Viyojit):
    """Section 5.4: MMU-offloaded dirty counting.

    Pages are never write-protected for tracking; the MMU counts dirty-bit
    0->1 transitions in hardware (shadow dirty bits preserve membership
    across recency scans).  First writes cost nothing extra — only the
    budget interrupt pays a trap, which is why the paper expects this
    design to eradicate the tail-latency overheads.
    """

    def _build_mmu(self) -> MMU:
        mmu = HardwareAssistedMMU(self.page_table, self.tlb, self.machine)
        mmu.on_new_dirty = self._on_hardware_new_dirty
        return mmu

    def start(self) -> None:
        super().start()
        # No software write protection in this mode: stores never trap.
        self.mmu.unprotect_all()
        self.tlb.flush_all()

    def _on_mmap(self, mapping: Mapping) -> None:
        for pfn in range(mapping.base_page, mapping.base_page + mapping.num_pages):
            self.mmu.release_protection(pfn)

    def _resolve_fault(self, pfn: int, cost: int) -> int:
        """The fault handler, inside the retry loop.

        Stores fault here only on pages the flusher protected mid-IO.
        Each pass charges the faulted probe, takes the trap, waits out
        the in-flight flush, unprotects the page, makes room and dirties
        it, then retries the store.  Returns the successful probe's cost,
        not yet charged (see :meth:`_touch_write`).
        """
        trap_cost = self._trap_cost_ns
        stats = self.stats
        while cost < 0:
            self._advance(-cost - 1)
            entered_at = self.sim.now
            stats.write_faults += 1
            stats.trap_time_ns += trap_cost
            self._advance(trap_cost)
            if pfn in self._inflight:
                stats.inflight_waits += 1
                self._wait_until(self._inflight[pfn])
            cost = self._unprotect_page(pfn)
            stats.pte_update_time_ns += cost
            self._advance(cost)
            self._admit_dirty(pfn)
            if self._h_fault is not None:
                self._h_fault.observe(self.sim.now - entered_at)
            cost = self._write_probe(pfn)
        return cost

    def _on_hardware_new_dirty(self, pfn: int) -> None:
        """Hardware counted a 0->1 dirty transition: sync the OS dirty set.

        At the budget, the hardware raises the budget interrupt (one trap
        charge) and the OS evicts before the store retires.
        """
        if pfn in self.tracker:
            return
        if self.tracker.at_budget:
            # The budget interrupt is the only trap this mode ever pays;
            # the room is made by the dirtying step.
            self.stats.trap_time_ns += self.machine.trap_cost_ns
            self._advance(self.machine.trap_cost_ns)
        self._admit_dirty(pfn)
