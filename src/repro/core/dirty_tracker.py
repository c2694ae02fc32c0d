"""Exact dirty-set tracking (section 4.1).

The paper's durability argument hinges on a *synchronous* view of exactly
which pages are dirty: a counter incremented when a page is dirtied (first
write) and decremented when its copy reaches persistent storage, plus the
list of dirty page addresses.  Periodic sampling cannot give the hard
guarantee — the count could overshoot between samples — so the tracker is
updated inline from the fault handler and flush-completion path.

A page stays in the dirty set while its flush is in flight: until the SSD
acknowledges the write, the durable copy is stale and the battery must
still cover the page.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.core.config import require_page_count


class DirtyTracker:
    """Running count + addresses of dirty NV-DRAM pages."""

    def __init__(self, budget_pages: int) -> None:
        budget_pages = require_page_count(budget_pages, "budget_pages")
        if budget_pages <= 0:
            raise ValueError(f"budget_pages must be positive: {budget_pages}")
        self.budget_pages = budget_pages
        # The membership truth.  ``add``/``remove`` are the canonical
        # updates; the runtime's dirtying step (``Viyojit._admit_dirty``)
        # and the flusher's completion open-code them (same budget check,
        # same counters).
        self._dirty: Set[int] = set()
        self.epoch_new_dirty = 0  # new dirty pages this epoch (pressure input)
        self.total_dirtied = 0

    def __len__(self) -> int:
        return len(self._dirty)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self._dirty

    def __iter__(self) -> Iterator[int]:
        return iter(self._dirty)

    @property
    def count(self) -> int:
        return len(self._dirty)

    @property
    def at_budget(self) -> bool:
        return len(self._dirty) >= self.budget_pages

    @property
    def slack(self) -> int:
        """How many more pages may be dirtied before hitting the budget."""
        return self.budget_pages - len(self._dirty)

    def add(self, pfn: int) -> None:
        """Record that ``pfn`` was dirtied (fault handler, Fig 6 step 4/8).

        Raises if the addition would exceed the budget — the caller must
        have made room first.  This assertion *is* the durability
        guarantee; it must never fire in a correct runtime.
        """
        if pfn in self._dirty:
            return
        if len(self._dirty) >= self.budget_pages:
            raise RuntimeError(
                f"dirty budget violated: adding page {pfn} would make "
                f"{len(self._dirty) + 1} dirty pages against a budget of "
                f"{self.budget_pages}"
            )
        self._dirty.add(pfn)
        self.epoch_new_dirty += 1
        self.total_dirtied += 1

    def remove(self, pfn: int) -> None:
        """Record that ``pfn``'s latest contents reached durable media.

        The flusher's completion open-codes this ``discard``.
        """
        self._dirty.discard(pfn)

    def snapshot(self) -> Set[int]:
        """Copy of the current dirty set (crash simulation)."""
        return set(self._dirty)

    def roll_epoch(self) -> int:
        """Return and reset the epoch's new-dirty counter."""
        count = self.epoch_new_dirty
        self.epoch_new_dirty = 0
        return count
