"""Fine-grained (sub-page) dirty tracking — the section 7 extension.

The paper: *"Viyojit can also perform dirty tracking and limiting at a
finer byte-level granularity using Mondrian Memory Protection, using the
same dirty budgeting mechanism ... This would not only enable better
utilization of provisioned battery capacity but also reduce the write
traffic to secondary storage."*

This module implements that extension against the simulated substrate.
Mondrian Memory Protection's word-granularity permissions are modelled at
a configurable *block* size (default 256 B):

* :class:`BlockTracker` keeps a per-page bitmap of dirty blocks and an
  exact count of dirty *bytes*; the budget is enforced in bytes, so a
  4 KiB battery allowance can hold 16 distinct 256 B dirtyings instead of
  one page.
* :class:`FineGrainViyojit` plugs the tracker into the ordinary runtime:
  page-level protection still provides the trap (Mondrian would trap at
  block granularity; the trap cost is the same), the write path reports
  the exact byte range written, and evictions flush only a page's dirty
  blocks — so SSD write traffic shrinks by the ratio of block dirt to
  page dirt.

The invariant matches the page-level system's, restated in bytes: the
battery must cover ``dirty_bytes`` at all times.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.config import ViyojitConfig
from repro.core.runtime import DataPath, Viyojit
from repro.mem.machine import MachineModel
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from repro.storage.ssd import SSD


class BlockTracker:
    """Per-page dirty-block bitmaps with an exact dirty-byte count."""

    def __init__(self, page_size: int, block_size: int, budget_bytes: int) -> None:
        if block_size <= 0 or page_size % block_size:
            raise ValueError(
                f"block_size {block_size} must divide page_size {page_size}"
            )
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive: {budget_bytes}")
        self.page_size = int(page_size)
        self.block_size = int(block_size)
        self.blocks_per_page = page_size // block_size
        self.budget_bytes = int(budget_bytes)
        self._bitmaps: Dict[int, int] = {}  # pfn -> dirty-block bitmap
        self.dirty_bytes = 0
        self.epoch_new_bytes = 0  # pressure input, reset per epoch

    def _range_mask(self, start: int, length: int) -> int:
        first = start // self.block_size
        last = (start + length - 1) // self.block_size
        return ((1 << (last - first + 1)) - 1) << first

    def would_add(self, pfn: int, start: int, length: int) -> int:
        """Bytes of *new* dirt a write of [start, start+length) creates."""
        if length <= 0:
            return 0
        mask = self._range_mask(start, length)
        new_blocks = mask & ~self._bitmaps.get(pfn, 0)
        return bin(new_blocks).count("1") * self.block_size

    def mark_range(self, pfn: int, start: int, length: int) -> int:
        """Mark a write's blocks dirty; returns newly-dirtied bytes.

        Raises if the addition would exceed the byte budget — callers
        must have made room first (the durability guarantee, in bytes).
        """
        added = self.would_add(pfn, start, length)
        if added == 0:
            return 0
        if self.dirty_bytes + added > self.budget_bytes:
            raise RuntimeError(
                f"dirty-byte budget violated: {self.dirty_bytes} + {added} "
                f"> {self.budget_bytes}"
            )
        self._bitmaps[pfn] = self._bitmaps.get(pfn, 0) | self._range_mask(
            start, length
        )
        self.dirty_bytes += added
        self.epoch_new_bytes += added
        return added

    def roll_epoch(self) -> int:
        """Return and reset the epoch's new-dirty-byte counter."""
        count = self.epoch_new_bytes
        self.epoch_new_bytes = 0
        return count

    def page_dirty_bytes(self, pfn: int) -> int:
        return bin(self._bitmaps.get(pfn, 0)).count("1") * self.block_size

    def clean_page(self, pfn: int) -> int:
        """A page's flush completed: free its blocks; returns bytes freed."""
        freed = self.page_dirty_bytes(pfn)
        self._bitmaps.pop(pfn, None)
        self.dirty_bytes -= freed
        return freed

    def dirty_pages(self) -> Set[int]:
        return set(self._bitmaps)

    @property
    def slack_bytes(self) -> int:
        return self.budget_bytes - self.dirty_bytes


class FineGrainViyojit(Viyojit):
    """Viyojit with Mondrian-style sub-page dirty accounting.

    The budget (``config.dirty_budget_pages`` x page size, in bytes) is
    charged per dirty *block* rather than per dirty page.  Page-level
    write protection still provides trapping and flush ordering; the
    page-level tracker continues to mirror dirty-page membership (a page
    is dirty iff it has at least one dirty block), so all of the parent
    runtime's machinery — victim selection, pressure, proactive flushing,
    crash simulation — keeps working.

    Evictions write out only the victim page's dirty blocks, which is the
    SSD-traffic saving the paper predicts.
    """

    def __init__(
        self,
        sim: Simulation,
        num_pages: int,
        config: ViyojitConfig,
        block_size: int = 256,
        ssd: Optional[SSD] = None,
        backing: Optional[BackingStore] = None,
        machine: Optional[MachineModel] = None,
        reducer=None,
    ) -> None:
        super().__init__(sim, num_pages, config, ssd=ssd, backing=backing,
                         machine=machine, reducer=reducer)
        page_size = self.region.page_size
        self.blocks = BlockTracker(
            page_size=page_size,
            block_size=block_size,
            budget_bytes=config.dirty_budget_pages * page_size,
        )
        # The *byte* budget is the binding constraint in this mode; the
        # page tracker keeps membership (and the fault handler's eviction
        # machinery) but must not veto at a page count — many partially
        # dirty pages can coexist within the same battery allowance.
        self.tracker.budget_pages = num_pages
        # Byte-denominated pressure drives the background copier (the
        # parent's page-count trigger never fires against the relaxed
        # page budget above).
        from repro.core.pressure import PressureEstimator

        self.byte_pressure = PressureEstimator(config.pressure_alpha)
        self._byte_threshold = self.blocks.budget_bytes
        self._inflight_flush_bytes: dict = {}
        # Evictions and proactive flushes write only a page's dirty blocks.
        self.flusher.flush_bytes_of = self._flush_bytes_of
        # The flusher frees block accounting when a page's flush lands.
        original_on_cleaned = self.flusher.on_cleaned

        def on_cleaned(pfn: int) -> None:
            self.blocks.clean_page(pfn)
            self._inflight_flush_bytes.pop(pfn, None)
            if original_on_cleaned is not None:
                original_on_cleaned(pfn)

        self.flusher.on_cleaned = on_cleaned

    def _flush_bytes_of(self, pfn: int) -> int:
        nbytes = max(self.blocks.page_dirty_bytes(pfn), self.blocks.block_size)
        self._inflight_flush_bytes[pfn] = nbytes
        return nbytes

    def _inflight_bytes(self) -> int:
        return sum(self._inflight_flush_bytes.values())

    # -- byte-denominated background copier (overrides the page-count one) --

    def _proactive_flush(self) -> None:
        self.byte_pressure.observe(self.blocks.roll_epoch())
        self._byte_threshold = max(
            0,
            self.blocks.budget_bytes - int(round(self.byte_pressure.pressure)),
        )
        excess = (
            self.blocks.dirty_bytes
            - self._inflight_bytes()
            - self._byte_threshold
        )
        while excess > 0 and self.flusher.has_slot():
            victim = self._next_victim()
            if victim is None:
                break
            freed = max(
                self.blocks.page_dirty_bytes(victim), self.blocks.block_size
            )
            issue_cost = self.flusher.issue(victim)
            self.sim.clock.advance(issue_cost)
            self.stats.proactive_flushes += 1
            excess -= freed

    def _refill_after_flush(self) -> None:
        if (
            self.blocks.dirty_bytes - self._inflight_bytes()
            > self._byte_threshold
            and self.flusher.has_slot()
        ):
            victim = self._next_victim()
            if victim is not None:
                issue_cost = self.flusher.issue(victim)
                self.sim.clock.advance(issue_cost)
                self.stats.proactive_flushes += 1

    def _build_lane(self) -> DataPath:
        # Every store needs block accounting and may need byte-budget room,
        # even through a translation cached dirty, so the lane's store is
        # this class's ``write``; loads share the page-granular lane.
        lane = super()._build_lane()
        lane.write = self.write
        return lane

    def write(self, addr: int, data: bytes) -> None:
        """Store with block-granular dirty accounting.

        For each page the write touches: make room in the *byte* budget
        (evicting coldest pages' dirty blocks), resolve page protection,
        then atomically mark the blocks and apply the bytes before any
        background event can run (same ordering discipline as the
        page-granular path — see ``NVDRAMSystem._touch_write``).
        """
        self._require_started()
        if not data:
            return
        cursor = addr
        view = memoryview(data)
        while view.nbytes > 0:
            pfn = self.region.page_of(cursor)
            offset = cursor % self.region.page_size
            take = min(view.nbytes, self.region.page_size - offset)
            while True:
                while self.blocks.would_add(pfn, offset, take) > self.blocks.slack_bytes:
                    self._evict_for_bytes()
                self._touch_write(pfn)
                # The touch may have waited out an in-flight flush of this
                # very page (resetting its bitmap, growing `needed`), so
                # recheck; if room vanished, evict and re-resolve — the
                # eviction wait may re-protect this page, hence the loop.
                if self.blocks.would_add(pfn, offset, take) <= self.blocks.slack_bytes:
                    break
                self.sim.drain_due()
            self.blocks.mark_range(pfn, offset, take)
            self.region.write(cursor, bytes(view[:take]))
            self.sim.drain_due()
            cursor += take
            view = view[take:]

    def _evict_for_bytes(self) -> None:
        """Synchronously flush one victim page's dirty blocks."""
        victim = self._next_victim()
        if victim is None:
            self.stats.budget_waits += 1
            self._wait_until(self.flusher.earliest_completion())
            return
        if not self.flusher.has_slot():
            self._wait_until(self.flusher.earliest_completion())
            return
        cost = self.flusher.issue(victim)
        self._advance(cost)
        self.stats.sync_evictions += 1
        self._wait_until(self.flusher.completion_time(victim))

    def dirty_bytes(self) -> int:  # overrides the page-granular estimate
        return self.blocks.dirty_bytes

    @property
    def dirty_block_bytes(self) -> int:
        return self.blocks.dirty_bytes
