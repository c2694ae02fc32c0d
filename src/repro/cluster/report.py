"""Merged cluster report (``CLUSTER.json``).

Same determinism contract as ``SWEEP.json``
(:mod:`repro.parallel.report`, whose canonicalisation, checksum,
``deterministic_view``, ``job_entries`` and ``seal`` helpers this
module reuses): results merge by
global job index, wall-clock data is quarantined under the top-level
``wall`` key, and the embedded sha256 covers exactly the deterministic
view — so two cluster runs agree iff their checksums agree, regardless
of ``--jobs`` count, completion order, or retry history.

On top of the per-shard payloads the report adds the coordinator's
plan: ring checksums, per-epoch shard demand, every epoch's leases and
rebalance events, and per-run aggregates (total throughput = total ops
over the *slowest* shard's simulated time — shards serve in parallel).
The ``throughput_vs_total_battery`` table is the Fig-7-style curve at
cluster scale: x = total pool battery in paper GB, one line per shard
count, baseline-normalized when the grid includes the full-battery
cluster.

Schema 3 has one shape: every planner knob and every run's
``migrations`` list is written whatever its value, and every budgeted
run's summary carries ``pool`` (capacity and leased pages per epoch,
grown/shed ``churn``, ``demand_starved``) and ``misallocation``.
``demands`` is ``[epoch][shard]``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

from repro.bench.reporting import overhead_percent
from repro.cluster.rebalancer import lease_churn
from repro.parallel.report import (
    checksum,
    deterministic_view,
    dumps,
    job_entries,
    seal,
)

if TYPE_CHECKING:
    from repro.cluster.runner import ClusterGrid, ClusterPlan

__all__ = [
    "CLUSTER_SCHEMA_VERSION",
    "build_cluster_report",
    "checksum",
    "deterministic_view",
    "dumps",
]

CLUSTER_SCHEMA_VERSION = 3


def _run_summary(
    plan: "ClusterPlan", shards: List[dict]
) -> Dict[str, object]:
    """Per-run aggregates over the run's shard payloads."""
    total_ops = sum(shard["result"]["ops_executed"] for shard in shards)
    routed = sum(shard["result"]["routed_ops"] for shard in shards)
    # Shards serve concurrently: the cluster finishes when its slowest
    # shard does, so cluster throughput is total ops / max shard time.
    slowest_ns = max(shard["result"]["sim_elapsed_ns"] for shard in shards)
    throughput_kops = (
        round(total_ops / slowest_ns * 1e6, 3) if slowest_ns > 0 else 0.0
    )
    summary: Dict[str, object] = {
        "shards": plan.spec.shards,
        "total_budget_gb": plan.spec.total_budget_gb(),
        "total_ops": total_ops,
        "routed_ops": routed,
        "throughput_kops": throughput_kops,
        "slowest_shard_ns": slowest_ns,
        "records_loaded": sum(
            shard["result"]["records_loaded"] for shard in shards
        ),
    }
    if plan.schedules is not None:
        churns = [
            lease_churn(
                [lease.pages for lease in plan.leases[epoch - 1]],
                [lease.pages for lease in plan.leases[epoch]],
            )
            for epoch in range(1, len(plan.leases))
        ]
        summary["pool"] = {
            "capacity_schedule": list(plan.capacity_schedule),
            "leased_per_epoch": [
                sum(lease.pages for lease in epoch_leases)
                for epoch_leases in plan.leases
            ],
            "churn": {
                "grown_per_epoch": [0] + [c.grown for c in churns],
                "shed_per_epoch": [0] + [c.shed for c in churns],
                "moved_per_epoch": [0] + [c.moved for c in churns],
                "total_grown_pages": sum(c.grown for c in churns),
                "total_shed_pages": sum(c.shed for c in churns),
            },
            "demand_starved": list(plan.starved),
        }
        summary["misallocation"] = plan.misallocation
    return summary


def _battery_rows(runs: List[dict]) -> List[dict]:
    """Fig-7 at cluster scale: throughput vs. total pool battery.

    One row per budgeted run; the same-shard-count full-battery cluster
    (``total_budget_gb`` ``None``) supplies the baseline column and the
    overhead-% metric when present in the same grid.
    """
    baselines: Dict[int, float] = {}
    for run in runs:
        summary = run["summary"]
        if summary["total_budget_gb"] is None:
            baselines[summary["shards"]] = summary["throughput_kops"]
    rows = []
    for run in runs:
        summary = run["summary"]
        budget_gb = summary["total_budget_gb"]
        if budget_gb is None:
            continue
        row: Dict[str, object] = {
            "shards": summary["shards"],
            "total_budget_gb": budget_gb,
            "cluster_kops": summary["throughput_kops"],
        }
        baseline = baselines.get(summary["shards"])
        if baseline is not None:
            row["nvdram_kops"] = baseline
            row["overhead_pct"] = (
                round(
                    overhead_percent(baseline, summary["throughput_kops"]), 2
                )
                if baseline > 0
                else None
            )
        rows.append(row)
    return rows


def build_cluster_report(
    grid: "ClusterGrid",
    plans: Sequence["ClusterPlan"],
    results: Dict[int, dict],
    *,
    workers: int,
    total_wall_s: float,
    retries: int = 0,
) -> dict:
    """Merge shard payloads and coordinator plans into CLUSTER.json.

    ``results`` maps global job index ->
    :func:`repro.parallel.worker.run_job` payload.  Indices are
    assigned by :func:`repro.cluster.runner.shard_jobs` (plan order,
    then shard order) — the same arithmetic slices them back here.
    """
    entries = job_entries(
        results, sum(plan.spec.total_shards() for plan in plans)
    )
    runs = []
    index = 0
    for plan in plans:
        shards = entries[index:index + plan.spec.total_shards()]
        index += len(shards)
        runs.append(
            {
                "spec": plan.spec.as_dict(),
                "ring_checksum": plan.ring_checksum,
                "demands": plan.demands,
                "leases": [
                    [lease.as_dict() for lease in epoch_leases]
                    for epoch_leases in plan.leases
                ],
                "events": plan.events,
                "shards": shards,
                "summary": _run_summary(plan, shards),
                "migrations": plan.migrations,
            }
        )
    report: Dict[str, object] = {
        "schema_version": CLUSTER_SCHEMA_VERSION,
        "grid": grid.as_dict(),
        "runs": runs,
        "tables": {"throughput_vs_total_battery": _battery_rows(runs)},
    }
    return seal(
        report,
        results,
        workers=workers,
        total_wall_s=total_wall_s,
        retries=retries,
    )
