"""Merged sweep report (``SWEEP.json``).

The merge is pure: results are keyed and ordered by job index, every
float was already rounded worker-side, and the wall-clock section is
quarantined under the top-level ``wall`` key.  ``deterministic_view``
(everything but ``wall``) is therefore byte-identical across worker
counts, completion orders, and retry histories; the embedded sha256
checksum covers exactly that view, so two sweeps agree iff their
checksums agree.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional

from repro.bench.reporting import overhead_percent
from repro.bench.runner import PAPER_HEAP_GB
from repro.parallel.grid import SweepGrid
from repro.perf.timer import timestamp

SWEEP_SCHEMA_VERSION = 1


def _canonical(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _budget_gb(fraction: Optional[float]) -> Optional[float]:
    if fraction is None:
        return None
    return round(fraction * PAPER_HEAP_GB, 2)


def _throughput_rows(jobs: List[dict]) -> List[dict]:
    """Fig-7-style table: throughput vs. budget, baseline-normalized.

    One row per non-baseline job; the matching full-battery baseline (same
    workload, theta, and seed, budget ``None``) contributes the
    ``nvdram_kops`` column and the paper's overhead-% metric when present
    in the same sweep.
    """
    baselines: Dict[tuple, float] = {}
    for entry in jobs:
        job = entry["job"]
        if job["budget_fraction"] is None:
            key = (job["workload"], job["theta"], job["seed"])
            baselines[key] = entry["result"]["throughput_kops"]
    rows = []
    for entry in jobs:
        job = entry["job"]
        fraction = job["budget_fraction"]
        if fraction is None:
            continue
        row: Dict[str, object] = {
            "workload": job["workload"],
            "budget_fraction": fraction,
            "budget_gb": _budget_gb(fraction),
            "theta": job["theta"],
            "seed": job["seed"],
            "viyojit_kops": entry["result"]["throughput_kops"],
        }
        baseline = baselines.get((job["workload"], job["theta"], job["seed"]))
        if baseline is not None:
            row["nvdram_kops"] = baseline
            row["overhead_pct"] = (
                round(overhead_percent(baseline, row["viyojit_kops"]), 2)
                if baseline > 0
                else None
            )
        rows.append(row)
    return rows


def build_sweep_report(
    grid: SweepGrid,
    results: Dict[int, dict],
    *,
    workers: int,
    total_wall_s: float,
    retries: int = 0,
) -> dict:
    """Merge per-job payloads into the checksummed sweep report.

    ``results`` maps job index -> :func:`repro.parallel.worker.run_job`
    payload; iteration order is irrelevant, the merge sorts by index.
    """
    jobs = job_entries(results, len(grid.jobs()))
    report: Dict[str, object] = {
        "schema_version": SWEEP_SCHEMA_VERSION,
        "grid": grid.as_dict(),
        "jobs": jobs,
        "tables": {"throughput_vs_budget": _throughput_rows(jobs)},
    }
    return seal(
        report,
        results,
        workers=workers,
        total_wall_s=total_wall_s,
        retries=retries,
    )


def job_entries(results: Dict[int, dict], job_count: int) -> List[dict]:
    """Each job's ``{job, result}`` in index order, refusing any gap in
    ``0..job_count``."""
    missing = set(range(job_count)) - set(results)
    if missing:
        raise ValueError(f"results missing job indices: {sorted(missing)}")
    return [
        {"job": results[index]["job"], "result": results[index]["result"]}
        for index in range(job_count)
    ]


def seal(
    report: Dict[str, object],
    results: Dict[int, dict],
    *,
    workers: int,
    total_wall_s: float,
    retries: int,
) -> dict:
    """Checksum ``report``'s deterministic body, then add its ``wall``
    block (per-job and total wall seconds, never checksummed)."""
    report["checksum_sha256"] = checksum(report)
    report["wall"] = {
        "workers": workers,
        "retries": retries,
        "total_wall_s": round(total_wall_s, 6),
        "job_wall_s": {
            str(index): round(results[index]["wall_s"], 6)
            for index in sorted(results)
        },
        "generated_at_unix": round(timestamp(), 3),
    }
    return report


def deterministic_view(report: dict) -> dict:
    """The report minus its wall-clock section (scheduling-independent)."""
    return {key: value for key, value in report.items() if key != "wall"}


def checksum(report: dict) -> str:
    """sha256 over the canonical deterministic view, sans the checksum."""
    core = {
        key: value
        for key, value in deterministic_view(report).items()
        if key != "checksum_sha256"
    }
    return hashlib.sha256(_canonical(core).encode("utf-8")).hexdigest()


def dumps(report: dict, strip_wall: bool = False) -> str:
    """Canonical JSON text (sorted keys, trailing newline)."""
    return _canonical(deterministic_view(report) if strip_wall else report)
