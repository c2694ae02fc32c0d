"""Deterministic multi-process sweep engine (``repro sweep``).

The paper's headline results are grids — budget fractions x skews x
workloads evaluated point by point.  This package fans such a grid out as
seeded, self-contained jobs over a process pool and merges the results
into a checksummed ``SWEEP.json`` that is byte-identical (modulo the
``wall`` section) regardless of worker count, completion order, or
retries.  ``--jobs 1`` falls back to running every job in-process.
"""

from repro.parallel.engine import SweepError, run_sweep
from repro.parallel.grid import SweepGrid
from repro.parallel.report import (
    SWEEP_SCHEMA_VERSION,
    build_sweep_report,
    deterministic_view,
    dumps,
)
from repro.parallel.worker import SweepJob, run_job

__all__ = [
    "SWEEP_SCHEMA_VERSION",
    "SweepError",
    "SweepGrid",
    "SweepJob",
    "build_sweep_report",
    "deterministic_view",
    "dumps",
    "run_job",
    "run_sweep",
]
