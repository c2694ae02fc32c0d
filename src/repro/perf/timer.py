"""The package's only wall-clock sites, isolated for auditability.

Lint rule W1 bans wall-clock reads in ``src`` because simulation logic
must never depend on host time.  Measuring how fast the simulator
*runs* is the sanctioned exception, and it is confined to this module,
the one W1 exempts, so the reads below are the complete inventory of
wall-time reads.
"""

from __future__ import annotations

import time
from typing import Callable


def best_of(repeats: int, one_pass: Callable[[], object]) -> float:
    """Wall seconds for the fastest of ``repeats`` executions of ``one_pass``.

    Best-of-N is the standard anti-noise protocol: scheduler preemptions
    and frequency transitions only ever make a pass *slower*, so the
    minimum is the least-contaminated estimate of the code's true cost.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive: {repeats}")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        one_pass()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def timestamp() -> float:
    """Unix timestamp for the report's ``wall.generated_at_unix`` field."""
    return time.time()
