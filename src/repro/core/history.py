"""Least-recently-updated victim selection (section 5.2).

At every epoch boundary Viyojit walks the page table, reads and clears the
dirty bits, and shifts each page's update history: bit *i* of the history
word says whether the page was updated *i* epochs ago.  The paper keeps
the last 64 epochs, which fits one uint64 per page.

Victims for copying out are the *least recently updated* pages — the
write-only analogue of LRU.  Pages are ordered by the epoch of their most
recent observed update (older first); ties break toward pages updated in
fewer of the remembered epochs (lower popcount), i.e. less write-popular
pages go first.

A page whose most recent update has scrolled *out* of the remembered
window is indistinguishable from a never-updated page as far as the
hardware history goes, and the ranking treats it exactly so: ranking by
raw absolute epochs would let an update from hundreds of epochs ago
outrank a genuinely-never-updated page forever, inverting coldness among
long-idle pages.

The window is kept as the last ``history_epochs`` scans' updated-page
arrays rather than as one shifted word per page: a page's bit leaves the
window exactly ``history_epochs`` scans after the scan that set it, so
each scan adjusts only the pages it added and the pages whose oldest
update just fell out.  The per-page update *count* and the packed
ranking key are maintained the same way, so an epoch costs O(pages
updated) instead of O(region), and victim ranking — which runs at every
epoch boundary and whenever the fault path's victim queue runs dry —
only gathers precomputed keys.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Deque, List, Union

import numpy as np


def _popcount(values: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (vectorized, no Python loop)."""
    view = values.view(np.uint8).reshape(values.shape + (8,))
    return np.unpackbits(view, axis=-1).sum(axis=-1)


class UpdateHistory:
    """Per-page update recency over a sliding window of epochs."""

    def __init__(self, num_pages: int, history_epochs: int = 64) -> None:
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive: {num_pages}")
        if not 1 <= history_epochs <= 64:
            raise ValueError(f"history_epochs must be in [1, 64]: {history_epochs}")
        self.num_pages = int(num_pages)
        self.history_epochs = int(history_epochs)
        # Updated pages of each remembered scan, oldest first.
        self._window: Deque[np.ndarray] = deque()
        # Epoch of the most recent observed update; -1 = never observed.
        self._last_update = np.full(self.num_pages, -1, dtype=np.int64)
        # In how many of the remembered scans each page was updated.
        self._counts = np.zeros(self.num_pages, dtype=np.int64)
        # Packed ``(last, counts, pfn)`` ranking key per page (see
        # :meth:`coldest`); a never-updated page's key is its number.
        self._keys = np.arange(self.num_pages, dtype=np.int64)
        self.epoch = 0

    def record_scan(self, updated_pfns: np.ndarray) -> None:
        """Fold one epoch's dirty-bit scan results into the history.

        ``updated_pfns`` are the pages whose dirty bit was set during the
        epoch that just ended (the output of
        :meth:`repro.mem.PageTable.scan_and_clear_dirty`).
        """
        # The packed key must stay below 2**63; only reachable after
        # ~2**56 epochs, so fail loudly rather than wrap silently.
        if (self.epoch + 2) * 65 * self.num_pages >= 2**63:
            raise OverflowError(
                f"update history exhausted its epoch range at epoch {self.epoch}"
            )
        updated = np.array(updated_pfns, dtype=np.int64)
        window = self._window
        if len(window) == self.history_epochs:
            # This scan shifts the oldest remembered epoch out.
            dropped = window.popleft()
            if len(dropped):
                self._counts[dropped] -= 1
                self._repack(dropped)
        window.append(updated)
        if len(updated):
            self._last_update[updated] = self.epoch
            self._counts[updated] += 1
            self._repack(updated)
        self.epoch += 1

    def _repack(self, pfns: np.ndarray) -> None:
        """Recompute the ranking keys of ``pfns`` after their history moved."""
        last, counts = self._ranking_keys(pfns)
        self._keys[pfns] = ((last + 1) * 65 + counts) * self.num_pages + pfns

    def last_update_epoch(self, pfn: int) -> int:
        """Epoch of the page's most recent observed update (-1 = never)."""
        return int(self._last_update[pfn])

    def update_count(self, pfn: int) -> int:
        """In how many of the remembered epochs was the page updated?"""
        return int(self._counts[pfn])

    @staticmethod
    def _as_pfn_array(candidates: Union[np.ndarray, Collection[int]]) -> np.ndarray:
        if isinstance(candidates, np.ndarray):
            return candidates.astype(np.int64, copy=False)
        return np.fromiter(candidates, dtype=np.int64, count=len(candidates))

    def _ranking_keys(self, pfns: np.ndarray):
        """``(last, counts)`` ranking keys with out-of-window aging.

        An update whose epoch has scrolled past the remembered window has
        every history bit cleared (``counts == 0``); such pages rank as
        never-observed (``last == -1``) instead of carrying their stale
        absolute epoch forever.
        """
        counts = self._counts[pfns]
        last = np.where(counts > 0, self._last_update[pfns], -1)
        return last, counts

    def coldest(self, candidates: Union[np.ndarray, Collection[int]], k: int) -> List[int]:
        """The ``k`` least-recently-updated pages among ``candidates``.

        Ordered oldest-update first; ties broken by ascending update count
        (less write-popular first), then by page number for determinism.
        Updates older than the window rank as never-observed.

        The three lexicographic keys are packed into one int64 per page —
        ``counts`` is bounded by the 64-epoch window and ``pfn`` by the
        region size, so ascending packed order IS ascending
        ``(last, counts, pfn)`` order.  Keys change only when a scan
        touches a page, so ranking gathers them and lets an
        ``argpartition`` isolate the top ``k`` before the final sort:
        O(n + k log k) in the candidates, nothing in the region size.
        """
        if k <= 0:
            return []
        pfns = self._as_pfn_array(candidates)
        if len(pfns) == 0:
            return []
        keys = self._keys[pfns]
        # The ndarray methods, not np.argpartition / np.argsort: the
        # module functions add a Python-level dispatch per call.
        if k < len(pfns):
            top = keys.argpartition(k - 1)[:k]
            top = top[keys[top].argsort()]
        else:
            top = keys.argsort()
        return pfns[top].tolist()

    def hottest(self, candidates: Union[np.ndarray, Collection[int]], k: int) -> List[int]:
        """The ``k`` most-recently-updated pages (diagnostics / tests)."""
        pfns = self._as_pfn_array(candidates)
        if len(pfns) == 0 or k <= 0:
            return []
        last, counts = self._ranking_keys(pfns)
        order = np.lexsort((pfns, -counts, -last))
        return [int(p) for p in pfns[order[: min(k, len(pfns))]]]
