"""Unit tests for exact dirty-set tracking."""

import re

import numpy as np
import pytest

from repro.core.dirty_tracker import DirtyTracker


class TestBasics:
    def test_empty(self):
        tracker = DirtyTracker(budget_pages=4)
        assert tracker.count == 0
        assert len(tracker) == 0
        assert not tracker.at_budget
        assert tracker.slack == 4

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            DirtyTracker(0)

    @pytest.mark.parametrize("budget", [0.5, 4.0, True])
    def test_budget_must_be_whole_pages(self, budget):
        with pytest.raises(ValueError, match=re.escape(repr(budget))):
            DirtyTracker(budget)

    def test_numpy_integer_budget_accepted(self):
        tracker = DirtyTracker(np.int32(4))
        assert tracker.budget_pages == 4 and type(tracker.budget_pages) is int

    def test_add_and_contains(self):
        tracker = DirtyTracker(4)
        tracker.add(7)
        assert 7 in tracker
        assert tracker.count == 1

    def test_add_is_idempotent(self):
        tracker = DirtyTracker(4)
        tracker.add(7)
        tracker.add(7)
        assert tracker.count == 1
        assert tracker.total_dirtied == 1

    def test_remove(self):
        tracker = DirtyTracker(4)
        tracker.add(7)
        tracker.remove(7)
        assert 7 not in tracker
        assert tracker.count == 0

    def test_remove_absent_is_safe(self):
        tracker = DirtyTracker(4)
        tracker.remove(99)
        assert tracker.count == 0

    def test_iteration(self):
        tracker = DirtyTracker(4)
        for pfn in (1, 2, 3):
            tracker.add(pfn)
        assert sorted(tracker) == [1, 2, 3]


class TestBudgetGuarantee:
    def test_at_budget(self):
        tracker = DirtyTracker(2)
        tracker.add(0)
        assert not tracker.at_budget
        tracker.add(1)
        assert tracker.at_budget
        assert tracker.slack == 0

    def test_exceeding_budget_raises(self):
        """This assertion IS the durability guarantee."""
        tracker = DirtyTracker(2)
        tracker.add(0)
        tracker.add(1)
        with pytest.raises(RuntimeError, match="dirty budget violated"):
            tracker.add(2)

    def test_room_after_removal(self):
        tracker = DirtyTracker(2)
        tracker.add(0)
        tracker.add(1)
        tracker.remove(0)
        tracker.add(2)  # does not raise
        assert tracker.count == 2

    def test_readding_at_budget_allowed(self):
        """A page already in the set can be 're-added' at the budget."""
        tracker = DirtyTracker(2)
        tracker.add(0)
        tracker.add(1)
        tracker.add(1)  # no-op, no violation
        assert tracker.count == 2


class TestEpochCounter:
    def test_counts_new_dirty_per_epoch(self):
        tracker = DirtyTracker(8)
        tracker.add(0)
        tracker.add(1)
        assert tracker.roll_epoch() == 2
        assert tracker.roll_epoch() == 0
        tracker.add(2)
        assert tracker.roll_epoch() == 1

    def test_readds_not_counted(self):
        tracker = DirtyTracker(8)
        tracker.add(0)
        tracker.add(0)
        assert tracker.roll_epoch() == 1

    def test_snapshot_is_a_copy(self):
        tracker = DirtyTracker(8)
        tracker.add(0)
        snap = tracker.snapshot()
        snap.add(99)
        assert 99 not in tracker
