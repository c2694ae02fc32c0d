"""The 4-shard cluster grid: materialise -> probe/plan -> shard workers -> merge.

Untraced, one repetition is one ``run_cluster_grid(grid, jobs=…)`` call;
the report's own ``wall.total_wall_s`` (pool start + every shard job)
is the timed phase and the rest of the call (materialise, plan, merge)
is ``setup_s``.  Traced, the benchmark makes the same public calls
``run_cluster_grid`` makes, one at a time and in-process, with a span
around each; the merged report's checksum must equal the untraced one.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

import adapters as A
from common import Rep, core_counts, require, wall
from spans import SpanLog


def region_pages(params: Dict[str, object]) -> int:
    """One shard's NV-DRAM region (every shard is built at the grid's scale)."""
    return A.ExperimentScale(
        record_count=params["record_count"],
        operation_count=params["operation_count"],
    ).region_pages


def _grid(params: Dict[str, object], seed: int):
    return A.ClusterGrid(
        shard_counts=tuple(params["shard_counts"]),  # type: ignore[arg-type]
        total_budgets_gb=tuple(params["total_budgets_gb"]),  # type: ignore[arg-type]
        record_count=params["record_count"],
        operation_count=params["operation_count"],
        epochs=params["epochs"],
        predictor=params["predictor"],
        hotspot_rotate_keys=params["hotspot_rotate_keys"],
        seed=seed,
    )


def run_rep(
    params: Dict[str, object],
    seed: int,
    jobs: int,
    spans: Optional[SpanLog] = None,
) -> Rep:
    grid = _grid(params, seed)
    started = wall()
    if spans is None:
        report = A.run_cluster_grid(grid, jobs=jobs)
    else:
        report = _traced_grid(grid, spans)
    total_s = wall() - started
    run_s = report["wall"]["total_wall_s"]
    return _rep_from_report(report, params, total_s - run_s, run_s)


def _traced_grid(grid, spans: SpanLog) -> dict:
    """``run_cluster_grid``'s public steps, in-process at jobs=1, spanned."""
    scale = A.ExperimentScale(
        record_count=grid.record_count,
        operation_count=grid.operation_count,
        zipf_theta=grid.theta,
        seed=grid.seed,
    )
    with tempfile.TemporaryDirectory(prefix="e2e-ops-") as ops_dir:
        path = os.path.join(ops_dir, "cluster.ops")
        materialize = spans.open("cluster.materialize")
        span = spans.open("workloads.compile", materialize)
        stream = A.compile_workload(
            A.YCSB_WORKLOADS[grid.workload],
            grid.record_count,
            grid.operation_count,
            value_size=scale.value_size,
            theta=grid.theta,
            seed=grid.seed,
            epochs=grid.epochs,
            hotspot_rotate_keys=grid.hotspot_rotate_keys,
        )
        spans.close(span)
        span = spans.open("workloads.save_ops", materialize)
        A.save_ops(stream, path)
        spans.close(span)
        span = spans.open("workloads.open_ops", materialize)
        stream = A.open_ops(path)
        spans.close(span)
        spans.close(materialize)

        probe_cache: dict = {}
        plans = []
        for spec in grid.specs():
            span = spans.open("cluster.plan")
            plans.append(
                A.plan_cluster(spec, stream=stream, probe_cache=probe_cache)
            )
            spans.close(span)
        results = {}
        for job in A.shard_jobs(plans, ops_path=path):
            span = spans.open("cluster.shard")
            results[job.index] = A.run_shard_job(job)
            spans.close(span)
    span = spans.open("cluster.merge")
    report = A.build_cluster_report(
        grid,
        plans,
        results,
        workers=1,
        total_wall_s=spans.total_s("cluster.shard"),
    )
    spans.close(span)
    return report


def _rep_from_report(
    report: dict, params: Dict[str, object], setup_s: float, run_s: float
) -> Rep:
    runs: List[dict] = report["runs"]
    expected_ops = params["operation_count"] * len(runs)  # type: ignore[operator]
    executed = sum(run["summary"]["total_ops"] for run in runs)
    require(
        executed == expected_ops,
        f"cluster grid executed {executed} of {expected_ops} shard-ops",
    )
    # Routing must partition the stream and the keyspace exactly.
    failed = 0
    for run in runs:
        summary = run["summary"]
        failed += abs(summary["routed_ops"] - params["operation_count"])  # type: ignore[operator]
        failed += abs(summary["records_loaded"] - params["record_count"])  # type: ignore[operator]

    budgeted_shards = []
    for run in runs:
        for shard in run["shards"]:
            result = shard["result"]
            schedule = result["budget_schedule"]
            if schedule is None:
                continue
            budgeted_shards.append(result)
            peak = result["viyojit_stats"]["peak_dirty_pages"]
            require(
                peak <= max(schedule),
                f"shard {result['shard']}: peak_dirty_pages {peak} exceeds "
                f"its largest lease {max(schedule)}",
            )

    rows = {
        row["total_budget_gb"]: row
        for row in report["tables"]["throughput_vs_total_battery"]
    }
    e2e_row = rows[params["e2e_budget_gb"]]
    starved_row = rows[params["starved_budget_gb"]]
    e2e_run = next(
        run for run in runs
        if run["summary"]["total_budget_gb"] == params["e2e_budget_gb"]
    )
    worst_update = max(
        (shard["result"]["latency_ms"]["update"] for shard in e2e_run["shards"]),
        key=lambda latency: latency["avg_ms"],
    )

    # core.* summed over every budgeted shard of both battery points.
    summed: Dict[str, int] = {}
    for result in budgeted_shards:
        for key, value in result["viyojit_stats"].items():
            if isinstance(value, int):
                summed[key] = summed.get(key, 0) + value
    summed["peak_dirty_pages"] = max(
        result["viyojit_stats"]["peak_dirty_pages"] for result in budgeted_shards
    )
    summed["mean_dirty_pages"] = sum(
        result["viyojit_stats"]["mean_dirty_pages"] for result in budgeted_shards
    ) / len(budgeted_shards)
    counts = core_counts(
        summed, sum(result["sim_elapsed_ns"] for result in budgeted_shards)
    )
    pools = [run["summary"]["pool"] for run in runs if "pool" in run["summary"]]
    counts.update(
        {
            "storage.ssd_bytes_written": sum(
                result["ssd_bytes_written"] for result in budgeted_shards
            ),
            "cluster.routed_ops": sum(
                run["summary"]["routed_ops"] for run in runs
            ),
            "cluster.lease_churn_pages": sum(
                pool["churn"]["total_grown_pages"]
                + pool["churn"]["total_shed_pages"]
                for pool in pools
            ),
            "cluster.misallocation_total": sum(
                run["summary"]["misallocation"]["total"]
                for run in runs
                if "misallocation" in run["summary"]
            ),
            "cluster.sim_kops_b2": starved_row["cluster_kops"],
            "cluster.sim_overhead_pct_b2": starved_row["overhead_pct"],
            "core.sim_p99_over_mean": (
                worst_update["p99_ms"] / worst_update["avg_ms"]
            ),
        }
    )

    walls = report["wall"]
    job_walls = list(walls["job_wall_s"].values())
    workers = walls["workers"]
    return Rep(
        setup_s=setup_s,
        run_s=run_s,
        ops=executed,
        attempted=executed,
        failed=failed,
        stats={"cluster_checksum": report["checksum_sha256"]},
        sim={
            "sim_kops_per_s": e2e_row["cluster_kops"],
            "sim_rel_throughput_pct": (
                100.0 * e2e_row["cluster_kops"] / e2e_row["nvdram_kops"]
            ),
            "sim_mean_op_ms": worst_update["avg_ms"],
            "sim_p99_op_ms": worst_update["p99_ms"],
        },
        counts=counts,
        host={
            "parallel.jobs": len(job_walls),
            "parallel.retries": walls["retries"],
            "parallel.job_wall_s.max": max(job_walls),
            "parallel.job_wall_s.sum": sum(job_walls),
            "parallel.efficiency": sum(job_walls) / (workers * run_s),
            # Pool start, pickling and the idle tail: what the pool's wall
            # adds over a perfectly packed schedule of the same jobs.
            "parallel.dispatch_overhead_s": run_s - sum(job_walls) / workers,
        },
    )
