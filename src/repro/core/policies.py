"""Pluggable victim-selection policies.

The paper (sections 5.2 and 7) chooses a least-recently-updated policy —
the write-only analogue of LRU — and notes the broader design space of
replacement policies (LRU-K, 2Q, ARC, MQ, ...).  This module makes the
policy a pluggable component so the choice can be evaluated as an
ablation:

===========================  ==================================================
policy                       ranking
===========================  ==================================================
``least-recently-updated``   paper's default: oldest observed update first,
                             ties to less write-popular pages
``least-frequently-updated`` fewest updates in the history window first
``fifo``                     oldest *dirtying* first, ignoring update recency
``random``                   uniformly random among candidates (seeded)
``most-recently-updated``    adversarial inverse of the default — evicts the
                             hottest pages; exists to quantify how much the
                             recency information is worth
``clock``                    one-bit second-chance approximation of LRU
===========================  ==================================================

Each policy sees the same events the runtime produces anyway (page
dirtied, page cleaned, epoch scan results), so none of them requires
extra hardware support beyond what section 5 describes.
"""

from __future__ import annotations

import abc
import random
from collections import OrderedDict
from typing import Collection, Dict, List, Optional, Union

import numpy as np

from repro.core.history import UpdateHistory

#: Policies accept a collection of page numbers (the runtime hands over
#: a set, or a list in dirty-set order) or a numpy array.
Candidates = Union[np.ndarray, Collection[int]]


class VictimPolicy(abc.ABC):
    """Ranks dirty pages for copying out to the SSD."""

    name: str = "abstract"

    #: True when :meth:`rank` is a pure function of the candidate *set*
    #: (ties broken by page number), letting the runtime hand over an
    #: unordered set.  Policies whose output depends on candidate order
    #: (random's shuffle, the defensive fallbacks of fifo/clock) get a
    #: list in dirty-set iteration order instead.
    order_insensitive: bool = False

    def note_dirtied(self, pfn: int) -> None:
        """A page entered the dirty set (fault handler)."""

    def note_cleaned(self, pfn: int) -> None:
        """A page's flush completed (it left the dirty set)."""

    def note_scan(self, updated_pfns: np.ndarray, epoch: int) -> None:
        """An epoch scan observed these pages as updated."""

    @abc.abstractmethod
    def rank(self, candidates: Candidates, k: int) -> List[int]:
        """The ``k`` best victims among ``candidates``, best first."""


class LeastRecentlyUpdatedPolicy(VictimPolicy):
    """The paper's policy: LRU over *writes*, via the epoch history."""

    name = "least-recently-updated"
    order_insensitive = True

    def __init__(self, history: UpdateHistory) -> None:
        self.history = history

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        return self.history.coldest(candidates, k)


class LeastFrequentlyUpdatedPolicy(VictimPolicy):
    """LFU over the history window: least write-popular pages first."""

    name = "least-frequently-updated"
    order_insensitive = True

    def __init__(self, history: UpdateHistory) -> None:
        self.history = history

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        pfns = [int(pfn) for pfn in candidates]
        if not pfns or k <= 0:
            return []
        pfns.sort(key=lambda pfn: (self.history.update_count(pfn), pfn))
        return pfns[:k]


class FIFOPolicy(VictimPolicy):
    """Evict in dirtying order, blind to how hot the page still is."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def note_dirtied(self, pfn: int) -> None:
        if pfn not in self._order:
            self._order[pfn] = None

    def note_cleaned(self, pfn: int) -> None:
        self._order.pop(pfn, None)

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        wanted = set(candidates)
        out = []
        for pfn in self._order:
            if pfn in wanted:
                out.append(pfn)
                if len(out) == k:
                    break
        # Candidates the policy never saw (defensive) go last.
        if len(out) < k:
            seen = set(out)
            for pfn in candidates:
                if pfn not in seen:
                    out.append(pfn)
                    if len(out) == k:
                        break
        return out[:k]


class RandomPolicy(VictimPolicy):
    """Uniformly random victims (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 1) -> None:
        self._rng = random.Random(seed)

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        pfns = list(candidates)
        if not pfns or k <= 0:
            return []
        self._rng.shuffle(pfns)
        return pfns[:k]


class MostRecentlyUpdatedPolicy(VictimPolicy):
    """Adversarial inverse of the default — quantifies recency's value."""

    name = "most-recently-updated"
    order_insensitive = True

    def __init__(self, history: UpdateHistory) -> None:
        self.history = history

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        return self.history.hottest(candidates, k)


class ClockPolicy(VictimPolicy):
    """Second-chance CLOCK over the dirty set.

    A page observed updated by the scan gets its reference bit set; the
    clock hand sweeps, clearing bits and picking pages whose bit is
    already clear — the classic one-bit LRU approximation, here applied
    to write recency.
    """

    name = "clock"

    def __init__(self) -> None:
        self._ref: Dict[int, bool] = {}
        self._ring: List[int] = []
        self._hand = 0

    def note_dirtied(self, pfn: int) -> None:
        if pfn not in self._ref:
            self._ref[pfn] = True
            self._ring.append(pfn)

    def note_cleaned(self, pfn: int) -> None:
        self._ref.pop(pfn, None)

    def note_scan(self, updated_pfns: np.ndarray, epoch: int) -> None:
        for pfn in updated_pfns:
            pfn = int(pfn)
            if pfn in self._ref:
                self._ref[pfn] = True

    def _compact(self) -> None:
        self._ring = [pfn for pfn in self._ring if pfn in self._ref]
        self._hand = 0

    def rank(self, candidates: Candidates, k: int) -> List[int]:
        wanted = set(candidates)
        if not wanted or k <= 0:
            return []
        if len(self._ring) > 2 * len(self._ref):
            self._compact()
        out: List[int] = []
        sweeps = 0
        limit = 2 * len(self._ring) + 1
        while len(out) < k and self._ring and sweeps < limit:
            if self._hand >= len(self._ring):
                self._hand = 0
            pfn = self._ring[self._hand]
            sweeps += 1
            if pfn not in self._ref:
                self._ring.pop(self._hand)
                continue
            if pfn in wanted and pfn not in out:
                if self._ref[pfn]:
                    self._ref[pfn] = False
                else:
                    out.append(pfn)
            self._hand += 1
        if len(out) < k:
            seen = set(out)
            for pfn in candidates:
                if pfn not in seen:
                    out.append(pfn)
                    if len(out) == k:
                        break
        return out[:k]


POLICY_NAMES = (
    "least-recently-updated",
    "least-frequently-updated",
    "fifo",
    "random",
    "most-recently-updated",
    "clock",
)


def make_policy(
    name: str,
    history: Optional[UpdateHistory] = None,
    seed: int = 1,
) -> VictimPolicy:
    """Build a policy by name.

    ``history`` is required for the history-driven policies (the runtime
    passes its own :class:`UpdateHistory` so policy and pressure tracking
    share one set of epoch scans).
    """
    if name in ("least-recently-updated", "least-frequently-updated",
                "most-recently-updated"):
        if history is None:
            raise ValueError(f"policy {name!r} requires an UpdateHistory")
        cls = {
            "least-recently-updated": LeastRecentlyUpdatedPolicy,
            "least-frequently-updated": LeastFrequentlyUpdatedPolicy,
            "most-recently-updated": MostRecentlyUpdatedPolicy,
        }[name]
        return cls(history)
    if name == "fifo":
        return FIFOPolicy()
    if name == "random":
        return RandomPolicy(seed)
    if name == "clock":
        return ClockPolicy()
    raise ValueError(f"unknown victim policy {name!r}; choose from {POLICY_NAMES}")
