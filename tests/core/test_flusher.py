"""Unit tests for the flush engine: ordering, completion, guards."""

import pytest

from repro.core.dirty_tracker import DirtyTracker
from repro.core.flusher import Flusher
from repro.core.stats import ViyojitStats
from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU
from repro.mem.nvdram import NVDRAMRegion
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.sim.events import Simulation
from repro.storage.backing_store import BackingStore
from repro.storage.ssd import SSD


def build(num_pages=16, budget=8, max_outstanding=4):
    sim = Simulation()
    machine = MachineModel()
    region = NVDRAMRegion(num_pages, machine.page_size)
    table = PageTable(num_pages)
    table.write_protected[:] = False
    mmu = MMU(table, TLB(num_pages, machine.tlb_entries), machine)
    tracker = DirtyTracker(budget)
    flusher = Flusher(
        sim=sim,
        mmu=mmu,
        region=region,
        ssd=SSD(),
        backing=BackingStore(num_pages, machine.page_size),
        tracker=tracker,
        stats=ViyojitStats(),
        max_outstanding=max_outstanding,
    )
    return sim, region, tracker, flusher


class TestIssue:
    def test_issue_protects_page_first(self):
        sim, region, tracker, flusher = build()
        region.write(0, b"data")
        tracker.add(0)
        flusher.issue(0)
        assert flusher.mmu.page_table.is_write_protected(0)

    def test_issue_returns_cpu_cost(self):
        sim, region, tracker, flusher = build()
        region.write(0, b"data")
        tracker.add(0)
        cost = flusher.issue(0)
        assert cost == flusher.mmu.machine.pte_update_cost_ns

    def test_page_stays_dirty_until_completion(self):
        """In-flight pages still consume battery budget."""
        sim, region, tracker, flusher = build()
        region.write(0, b"data")
        tracker.add(0)
        flusher.issue(0)
        assert 0 in tracker
        assert flusher.is_inflight(0)

    def test_completion_persists_and_cleans(self):
        sim, region, tracker, flusher = build()
        region.write(0, b"data")
        tracker.add(0)
        flusher.issue(0)
        sim.run_until(flusher.completion_time(0))
        assert 0 not in tracker
        assert not flusher.is_inflight(0)
        assert flusher.backing.read(0)[:4] == b"data"
        assert flusher.backing.version(0) == 1

    def test_snapshot_taken_at_issue_time(self):
        """The durable copy is the protect-time contents (section 5.1).

        A write after issue would fault in the full runtime; here we poke
        the region directly to prove the flusher captured a snapshot.
        """
        sim, region, tracker, flusher = build()
        region.write(0, b"old!")
        tracker.add(0)
        flusher.issue(0)
        region.write(0, b"new!")  # bypasses MMU: simulates the race
        sim.run_until(flusher.completion_time(0))
        assert flusher.backing.read(0)[:4] == b"old!"
        # But the version recorded matches the snapshot, so the newer
        # region version is correctly seen as not-yet-durable.
        assert flusher.backing.version(0) < region.page_version[0]


class TestGuards:
    def test_double_issue_rejected(self):
        sim, region, tracker, flusher = build()
        region.write(0, b"x")
        tracker.add(0)
        flusher.issue(0)
        with pytest.raises(RuntimeError, match="already being flushed"):
            flusher.issue(0)

    def test_clean_page_rejected(self):
        sim, region, tracker, flusher = build()
        with pytest.raises(RuntimeError, match="not dirty"):
            flusher.issue(0)

    def test_queue_limit_enforced(self):
        sim, region, tracker, flusher = build(max_outstanding=2)
        for pfn in range(3):
            region.write(pfn * 4096, b"x")
            tracker.add(pfn)
        flusher.issue(0)
        flusher.issue(1)
        assert not flusher.has_slot()
        with pytest.raises(RuntimeError, match="queue full"):
            flusher.issue(2)

    def test_earliest_completion(self):
        sim, region, tracker, flusher = build()
        assert flusher.earliest_completion() is None
        region.write(0, b"x")
        tracker.add(0)
        flusher.issue(0)
        assert flusher.earliest_completion() == flusher.completion_time(0)

    def test_outstanding_count(self):
        sim, region, tracker, flusher = build()
        for pfn in range(2):
            region.write(pfn * 4096, b"x")
            tracker.add(pfn)
            flusher.issue(pfn)
        assert flusher.outstanding == 2
        sim.run_until(max(flusher.completion_time(0), flusher.completion_time(1)))
        assert flusher.outstanding == 0


class TestCompletionAndSubmission:
    def test_newer_durable_version_is_kept(self):
        """A completion never regresses the durable copy of a page."""
        sim, region, tracker, flusher = build()
        flusher.backing.persist(0, b"n" * 4096, 5)
        region.write(0, b"data")
        tracker.add(0)
        flusher.issue(0)
        sim.run_until(flusher.completion_time(0))
        assert flusher.backing.read(0) == b"n" * 4096
        assert flusher.backing.version(0) == 5
        assert 0 not in tracker

    def test_hook_attached_after_construction_is_consulted(self):
        """The hook is read per issue: attaching one later takes effect."""
        sim, region, tracker, flusher = build()
        seen = []
        region.write(0, b"x")
        tracker.add(0)
        flusher.issue(0)
        flusher.ssd.fault_hook = lambda op, now, size: seen.append(op) or 7
        region.write(4096, b"x")
        tracker.add(1)
        flusher.issue(1)
        assert seen == ["write"]
        assert flusher.completion_time(1) == flusher.completion_time(0) + 7
