"""Runtime simulation sanitizer: the lint rules' dynamic counterpart.

Where :mod:`repro.analysis.rules` enforces conventions at parse time,
the sanitizer re-checks the paper's *semantic* invariants while a
:class:`~repro.core.runtime.Viyojit` (or ``HardwareViyojit``) actually
runs.  Four invariants are verified, each at the exact hook where it
could first break:

``budget-bound``
    After every page dirtying, the dirty count fits the battery budget
    (Viyojit sections 4-5; the durability argument itself).
    ``set_dirty_budget`` drains a shrink before it reports the new bound,
    so the count fits at once; a bound lowered without that drain may
    leave the count legitimately above it, but from that point the count
    may only drain — any growth while over budget is a violation.
``evicted-durability``
    At every flush completion, the page has left the dirty set, is no
    longer in flight, and its durable copy is byte-identical to the
    NV-DRAM contents (section 5.1's protect-before-copy ordering is what
    makes this equality hold).
``scan-coherence``
    After every epoch scan, no PTE dirty bit survived the read-and-clear
    walk, and — when the configuration flushes the TLB on scan — no
    stale translation survived either (section 5.2, section 6.3).
``clock-monotonic``
    Virtual time never moves backwards between any two checks.

Every check is a pure read of simulator state: no clock advance, no
event emission, no RNG draw — so a sanitized run is byte-identical to an
unsanitized one (the golden-trace suite pins this down).  Violations
raise :class:`InvariantViolation`, a typed exception that survives
``python -O`` (rule E1).

The sanitizer is wired into the runtime behind
:attr:`repro.core.config.ViyojitConfig.sanitize` and is switched on for
the whole test suite via the ``REPRO_SANITIZE`` environment variable
(see ``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

#: The invariant identifiers, in checking order.
INVARIANTS: Tuple[str, ...] = (
    "clock-monotonic",
    "budget-bound",
    "evicted-durability",
    "scan-coherence",
)


class InvariantViolation(RuntimeError):
    """A paper invariant was broken at runtime.

    ``invariant`` names which of :data:`INVARIANTS` failed; the message
    carries the concrete state that broke it.
    """

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class SimulationSanitizer:
    """Invariant checks over one running Viyojit-family system.

    The system is duck-typed: anything exposing ``sim``, ``tracker``,
    ``flusher``, ``backing``, ``region``, ``page_table``, ``tlb`` and
    ``config`` works, which keeps this module free of imports from
    ``repro.core`` (the runtime imports *us*).
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self.checks = 0
        self._last_now = int(system.sim.now)
        # After a budget shrink the dirty count may sit above the new
        # budget; it must then be non-increasing until back under.
        self._shrink_allowance = 0

    # -- plumbing ----------------------------------------------------------

    def _fail(self, invariant: str, message: str) -> None:
        raise InvariantViolation(invariant, message)

    def _check_clock(self) -> None:
        now = int(self.system.sim.now)
        if now < self._last_now:
            self._fail(
                "clock-monotonic",
                f"virtual time moved backwards: {self._last_now} -> {now}",
            )
        self._last_now = now

    # -- hooks (called by the runtime) -------------------------------------

    def note_budget_change(self, new_budget: int) -> None:
        """A new budget is in force (after any drain); record any overage."""
        count = self.system.tracker.count
        self._shrink_allowance = count if count > new_budget else 0

    def after_dirtied(self, pfn: int) -> None:
        """A page entered the dirty set: the budget must still hold."""
        self.checks += 1
        self._check_clock()
        tracker = self.system.tracker
        count = tracker.count
        budget = tracker.budget_pages
        if count <= budget:
            self._shrink_allowance = 0
            return
        if count > max(budget, self._shrink_allowance):
            self._fail(
                "budget-bound",
                f"dirty count {count} exceeds budget {budget} after "
                f"dirtying page {pfn}",
            )
        # Legitimately over (post-shrink): may only drain from here on.
        self._shrink_allowance = count

    def after_flush_complete(self, pfn: int) -> None:
        """A flush was acknowledged: the page must now be durable."""
        self.checks += 1
        self._check_clock()
        system = self.system
        if pfn in system.tracker:
            self._fail(
                "evicted-durability",
                f"page {pfn} still in the dirty set at flush completion",
            )
        if system.flusher.is_inflight(pfn):
            self._fail(
                "evicted-durability",
                f"page {pfn} still marked in-flight at flush completion",
            )
        durable = system.backing.read(pfn)
        current = system.region.page_bytes(pfn)
        if durable is None or durable != current:
            self._fail(
                "evicted-durability",
                f"durable copy of page {pfn} does not match NV-DRAM "
                "contents at flush completion",
            )

    def after_epoch_scan(self) -> None:
        """The epoch walk ran: dirty bits (and the TLB) must be clean."""
        self.checks += 1
        self._check_clock()
        system = self.system
        if bool(system.page_table.dirty.any()):
            self._fail(
                "scan-coherence",
                "PTE dirty bits survived the epoch scan's read-and-clear walk",
            )
        if system.config.flush_tlb_on_scan and system.tlb.resident != 0:
            self._fail(
                "scan-coherence",
                f"{system.tlb.resident} TLB entries survived the "
                "epoch-scan flush",
            )
        cached = system.page_table.dirty_count
        actual = int(np.count_nonzero(system.page_table.dirty))
        if cached != actual:
            self._fail(
                "scan-coherence",
                f"cached dirty_count {cached} diverged from the dirty "
                f"column ({actual} bits set)",
            )
