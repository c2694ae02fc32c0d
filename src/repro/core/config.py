"""Viyojit runtime configuration.

Defaults follow section 6.1 of the paper: an epoch duration of 1 ms, no
more than 16 outstanding IO requests, a 64-epoch update history
(section 5.2), and an EWMA weight of 0.75 on the current epoch for the
dirty-page-pressure predictor (section 5.3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.sim.clock import NS_PER_MS


def require_page_count(value: object, name: str) -> int:
    """``value`` as a whole number of pages: an ``int`` or numpy integer.

    A fractional dirty budget would truncate to zero pages and leave the
    fault path evicting forever, and ``True`` would silently mean one
    page, so floats and bools are refused with a ``ValueError`` naming
    the value.  Positivity is left to the caller's own check.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number of pages: {value!r}")


def _sanitize_default() -> bool:
    """Default for :attr:`ViyojitConfig.sanitize`.

    The ``REPRO_SANITIZE`` environment variable arms the runtime
    invariant sanitizer for every config that does not set the flag
    explicitly — the test suite uses this to sanitize every system it
    builds (see ``tests/conftest.py``).
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


@dataclass(frozen=True)
class ViyojitConfig:
    """Tunables for one Viyojit instance.

    Parameters
    ----------
    dirty_budget_pages:
        Hard upper bound on simultaneously-dirty pages; derived from the
        provisioned battery via
        :meth:`repro.power.PowerModel.dirty_budget_pages`.
    epoch_ns:
        Period of the dirty-bit scan / recency update (paper: 1 ms).
    history_epochs:
        Depth of the per-page update history (paper: 64).
    pressure_alpha:
        EWMA weight given to the current epoch's new-dirty count
        (paper: 0.75).
    max_outstanding_io:
        Cap on concurrent flush IOs (paper: 16).
    max_flush_retries:
        Bounded retries after a failed SSD submission (fault injection,
        :mod:`repro.faults`).  Each retry backs off exponentially from
        ``flush_retry_backoff_ns``; exhaustion surfaces a typed
        :class:`repro.core.flusher.FlushFailure`.
    flush_retry_backoff_ns:
        Base virtual-time backoff before the first retry; attempt *i*
        waits ``flush_retry_backoff_ns * 2**(i-1)``.
    flush_tlb_on_scan:
        True for the paper's default; False reproduces the section 6.3
        stale-dirty-bit ablation (throughput drops by more than half at
        small budgets).
    proactive:
        Enable the background flusher.  Disabling it is an ablation: every
        budget hit becomes a synchronous eviction.
    victim_policy:
        Victim-selection policy name (see :mod:`repro.core.policies`).
        The paper's choice is ``"least-recently-updated"``; the others
        exist for the replacement-policy ablation.
    policy_seed:
        Seed for randomized policies.
    sanitize:
        Arm the :class:`repro.core.sanitizer.SimulationSanitizer`:
        the runtime re-checks the budget bound, evicted-page durability,
        post-scan coherence, and clock monotonicity at every hook, and
        raises a typed ``InvariantViolation`` on the first breach.  The
        checks are pure reads — a sanitized run is byte-identical to an
        unsanitized one.  Defaults to the ``REPRO_SANITIZE`` environment
        variable (the test suite sets it).
    """

    dirty_budget_pages: int
    epoch_ns: int = NS_PER_MS
    history_epochs: int = 64
    pressure_alpha: float = 0.75
    max_outstanding_io: int = 16
    max_flush_retries: int = 4
    flush_retry_backoff_ns: int = 50_000
    flush_tlb_on_scan: bool = True
    proactive: bool = True
    victim_policy: str = "least-recently-updated"
    policy_seed: int = 1
    sanitize: bool = field(default_factory=_sanitize_default)

    def __post_init__(self) -> None:
        require_page_count(self.dirty_budget_pages, "dirty_budget_pages")
        if self.dirty_budget_pages <= 0:
            raise ValueError(
                f"dirty_budget_pages must be positive: {self.dirty_budget_pages}"
            )
        if self.epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive: {self.epoch_ns}")
        if not 1 <= self.history_epochs <= 64:
            raise ValueError(
                f"history_epochs must be in [1, 64] (one uint64 bitmap): "
                f"{self.history_epochs}"
            )
        if not 0 < self.pressure_alpha <= 1:
            raise ValueError(f"pressure_alpha must be in (0, 1]: {self.pressure_alpha}")
        if self.max_outstanding_io <= 0:
            raise ValueError(
                f"max_outstanding_io must be positive: {self.max_outstanding_io}"
            )
        if self.max_flush_retries < 0:
            raise ValueError(
                f"max_flush_retries must be non-negative: {self.max_flush_retries}"
            )
        if self.flush_retry_backoff_ns < 0:
            raise ValueError(
                f"flush_retry_backoff_ns must be non-negative: "
                f"{self.flush_retry_backoff_ns}"
            )
        from repro.core.policies import POLICY_NAMES

        if self.victim_policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown victim_policy {self.victim_policy!r}; "
                f"choose from {POLICY_NAMES}"
            )
