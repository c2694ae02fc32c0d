"""Measure one workload: the untraced repetitions, and the traced run.

Method (untraced): one discarded warm-up repetition, then timed
repetitions — each on freshly built state — until ``seconds`` of wall
time are used, never fewer than ``spec.MIN_REPS``.  A host metric is the
median over the timed repetitions, reported with n, min, max and IQR.
Closed loop, one client: the op stream is replayed as fast as the
simulator consumes it.  Simulated metrics must be identical in every
repetition (the digest is checked), so they are reported once.

The traced run is separate and later; no end-to-end metric is ever taken
from it.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import traceback
from typing import Callable, Dict, List, Optional

import adapters as A
import drive_grid
import drive_pagewrite
import drive_ycsb
import layers
import spec
from common import InvariantViolation, Rep, require, wall
from spans import SpanLog, percentile_us

NOT_EXERCISED = "layer not exercised by this workload"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def grid_jobs() -> int:
    """Pool width for cluster_grid_4s: two workers where the host has two cores."""
    return min(2, nproc())


def peak_rss_mb() -> float:
    """Max resident set of this process and of its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_stat(values: List[float]) -> Dict[str, object]:
    """Median with n, min, max and IQR (five reps cannot support a percentile)."""
    quartiles = (
        statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    )
    return {
        "median": statistics.median(values),
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "iqr": quartiles[2] - quartiles[0],
    }


# -- the three workload kinds ------------------------------------------------


def _runners(name: str, params: Dict[str, object], seed: int, corrupt: bool):
    """``(warm, timed, baseline)`` repetition callables for one workload.

    ``baseline`` (or ``None``) runs the same stream on the full-battery
    system, untimed, for ``sim_rel_throughput_pct``.  ``corrupt`` (page
    writes only) damages one page before each timed repetition's final
    read-back.
    """
    kind = spec.WORKLOADS[name]["kind"]
    if kind == "ycsb":
        timed = lambda: drive_ycsb.run_rep(params, seed)  # noqa: E731
        baseline = (
            (lambda: drive_ycsb.run_rep(params, seed, baseline=True))
            if params["budget_fraction"] is not None
            else None
        )
        return timed, timed, baseline
    if kind == "pagewrite":
        return (
            # run_ops exposes no per-op clock: the warm-up applies the
            # stream call by call and supplies the store latency.
            lambda: drive_pagewrite.run_rep(params, seed, mode="per_op"),
            lambda: drive_pagewrite.run_rep(params, seed, corrupt=corrupt),
            lambda: drive_pagewrite.run_rep(params, seed, system_kind="nvdram"),
        )
    jobs = grid_jobs()
    timed = lambda: drive_grid.run_rep(params, seed, jobs)  # noqa: E731
    return timed, timed, None


def run_untraced(
    name: str,
    seed: int,
    seconds: float,
    divide_ops_by: int = 1,
    min_reps: int = spec.MIN_REPS,
    corrupt: bool = False,
) -> Dict[str, object]:
    """Warm-up + timed repetitions of workload ``name``; the full result.

    An exception inside a repetition is recorded and counts all of that
    repetition's operations as failed; an :class:`InvariantViolation`
    propagates (the caller exits non-zero without a result).
    """
    begun = wall()
    params = spec.workload_params(name, divide_ops_by)
    warm_run, timed_run, baseline_run = _runners(name, params, seed, corrupt)
    errors: List[str] = []

    def guarded(run: Callable[[], Rep]) -> Optional[Rep]:
        # The previous repetition's system is cyclic garbage; left to the
        # collector's own schedule, peak RSS would grow with the rep count.
        gc.collect()
        try:
            return run()
        except InvariantViolation:
            raise
        except Exception:  # noqa: BLE001 - a repetition is the isolation boundary
            errors.append(traceback.format_exc())
            return None

    baseline = guarded(baseline_run) if baseline_run is not None else None
    warm = guarded(warm_run)
    if warm is None or (baseline_run is not None and baseline is None):
        raise RuntimeError(
            f"{name}: the warm-up repetition failed:\n" + "\n".join(errors)
        )

    reps: List[Rep] = []
    attempts = 0
    timed_begun = wall()
    while True:
        rep = guarded(timed_run)
        attempts += 1
        if rep is not None:
            require(
                rep.digest == warm.digest,
                f"{name}: sim_digest differs between repetitions "
                f"({rep.digest[:16]} vs {warm.digest[:16]})",
            )
            reps.append(rep)
        per_attempt = (wall() - timed_begun) / attempts
        if attempts >= min_reps and (
            wall() - begun + per_attempt > seconds
        ):
            break
    if not reps:
        raise RuntimeError(
            f"{name}: every timed repetition failed:\n" + "\n".join(errors)
        )

    sim = dict(warm.sim)
    if "sim_rel_throughput_pct" not in sim:
        sim["sim_rel_throughput_pct"] = (
            100.0 * sim["sim_kops_per_s"] / baseline.sim["sim_kops_per_s"]
            if baseline is not None
            else 100.0
        )
    sim["sim_overhead_pct"] = 100.0 - sim["sim_rel_throughput_pct"]
    sim["sim_digest"] = warm.digest

    ops = reps[0].ops
    attempted = sum(rep.attempted for rep in reps) + (attempts - len(reps)) * ops
    failed = sum(rep.failed for rep in reps) + (attempts - len(reps)) * ops
    host: Dict[str, object] = {
        "host_kops_per_s": host_stat([rep.ops / rep.run_s / 1e3 for rep in reps]),
        "setup_s": host_stat([rep.setup_s for rep in reps]),
        "peak_rss_mb": {"value": peak_rss_mb()},
        "wall_s": wall() - begun,
    }
    for key in reps[0].host:
        host[key] = statistics.median(rep.host[key] for rep in reps)
    return {
        "workload": name,
        "seed": seed,
        "params": params,
        "simulated": sim,
        "counts": warm.counts,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_pct": 100.0 * failed / attempted,
        "errors": errors,
        "host": host,
    }


# -- the traced run ----------------------------------------------------------


def run_traced(name: str, seed: int, divide_ops_by: int = 1) -> Dict[str, object]:
    """One untraced and one traced repetition; every per-layer metric.

    The result holds the exact counts, the host timings, why a metric is
    ``None``, and the recorded spans (summarised per name under
    ``span_summary``, and column-wise in full under ``spans``).
    """
    params = spec.workload_params(name, divide_ops_by)
    kind = spec.WORKLOADS[name]["kind"]
    logs: List[SpanLog] = []
    reasons: Dict[str, str] = {}
    if kind == "ycsb":
        counts, host, reps = _trace_ycsb(name, params, seed, logs)
    elif kind == "pagewrite":
        counts, host, reps = _trace_pagewrite(name, params, seed, logs)
    else:
        counts, host, reps = _trace_grid(name, params, seed, logs, reasons)

    region = {
        "ycsb": drive_ycsb, "pagewrite": drive_pagewrite, "grid": drive_grid
    }[kind].region_pages(params)
    host["mem.access_ns"] = layers.mem_access_ns()
    host["mem.epoch_scan_us"] = layers.mem_epoch_scan_us(
        region, layers.dirty_pages_per_epoch(counts)
    )
    host["storage.submit_us"] = layers.storage_submit_us()
    host["sim.event_us"] = layers.sim_event_us()

    merged = {**counts, **host}
    simulated = {}
    host_layers = {}
    for metric, _unit, layer_kind, _better, _moves in spec.PER_LAYER:
        value = merged.get(metric)
        if value is None:
            reasons.setdefault(metric, NOT_EXERCISED)
        (simulated if layer_kind == "simulated" else host_layers)[metric] = value
    return {
        "workload": name,
        "seed": seed,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "counts": simulated,
        "host_layers": host_layers,
        "null_reasons": reasons,
        "span_summary": {log.rep: log.summary() for log in logs},
        "spans": [log.as_columns() for log in logs],
    }


def _mops(ops: int, seconds: float) -> Optional[float]:
    return ops / seconds / 1e6 if seconds > 0 else None


def _trace_ycsb(name, params, seed, logs):
    untraced = drive_ycsb.run_rep(params, seed)
    traced_log = SpanLog(name, "traced")
    traced = drive_ycsb.run_rep(params, seed, spans=traced_log)
    require(
        traced.digest == untraced.digest,
        f"{name}: the traced loop changed simulated results",
    )
    logs.append(traced_log)
    budgeted = params["budget_fraction"] is not None
    if budgeted:
        # Same stream on the baseline substrate: the KV store's floor, and
        # by subtraction what core/mem add underneath it.
        floor_log = SpanLog(name, "baseline")
        floor = drive_ycsb.run_rep(params, seed, spans=floor_log, baseline=True)
        logs.append(floor_log)
    else:
        floor_log, floor = traced_log, traced
    floor_spans = floor_log.summary()
    ops = traced.ops
    puts = traced.counts["kvstore.puts"] - params["record_count"]
    stream = drive_ycsb.compile_stream(params, seed)[2]
    host = {
        "workloads.compile_mops_per_s": _mops(
            ops, traced_log.total_s("workloads.compile")
        ),
        "workloads.ops_open_ms": layers.ops_open_ms(stream),
        "workloads.decode_mops_per_s": _mops(
            ops, traced_log.total_s("workloads.decode")
        ),
        "bench.payload_us_per_put": (
            traced_log.total_s("bench.payload") / puts * 1e6 if puts else None
        ),
        "bench.load_us_per_record": (
            traced_log.total_s("bench.load") / params["record_count"] * 1e6
        ),
        "kvstore.get_us.p50": percentile_us(floor_spans, "kvstore.get", "p50_us"),
        "kvstore.get_us.p99": percentile_us(floor_spans, "kvstore.get", "p99_us"),
        "kvstore.put_us.p50": percentile_us(floor_spans, "kvstore.put", "p50_us"),
        "kvstore.put_us.p99": percentile_us(floor_spans, "kvstore.put", "p99_us"),
        "core.extra_us_per_op": (
            (traced.run_s - floor.run_s) / ops * 1e6 if budgeted else None
        ),
        "trace.overhead_pct": 100.0 * (traced.run_s / untraced.run_s - 1.0),
    }
    return traced.counts, host, [untraced, traced] + ([floor] if budgeted else [])


def _trace_pagewrite(name, params, seed, logs):
    untraced = drive_pagewrite.run_rep(params, seed)
    traced_log = SpanLog(name, "traced")
    traced = drive_pagewrite.run_rep(params, seed, mode="spans", spans=traced_log)
    require(
        traced.digest == untraced.digest,
        f"{name}: the per-call path changed simulated results",
    )
    floor_log = SpanLog(name, "baseline")
    floor = drive_pagewrite.run_rep(
        params, seed, mode="spans", spans=floor_log, system_kind="nvdram"
    )
    logs += [traced_log, floor_log]
    tracer = A.RecordingTracer()
    recorded = drive_pagewrite.run_rep(params, seed, tracer=tracer)
    require(
        recorded.digest == untraced.digest,
        f"{name}: a RecordingTracer changed simulated results",
    )
    summary = traced_log.summary()
    ops = traced.ops
    host = {
        "workloads.decode_mops_per_s": _mops(
            ops, traced_log.total_s("workloads.decode")
        ),
        "core.fault_write_us.p50": percentile_us(summary, "core.fault_write", "p50_us"),
        "core.fault_write_us.p99": percentile_us(summary, "core.fault_write", "p99_us"),
        "core.hit_write_us.p50": percentile_us(summary, "core.hit_write", "p50_us"),
        "core.extra_us_per_op": (traced.run_s - floor.run_s) / ops * 1e6,
        "obs.recording_overhead_pct": 100.0 * (recorded.run_s / untraced.run_s - 1.0),
        "obs.events_recorded": len(tracer.events),
        "obs.events_dropped": tracer.dropped,
        "trace.overhead_pct": 100.0 * (traced.run_s / untraced.run_s - 1.0),
    }
    return traced.counts, host, [untraced, traced, floor, recorded]


def _trace_grid(name, params, seed, logs, reasons):
    jobs = grid_jobs()
    untraced = drive_grid.run_rep(params, seed, jobs)
    log = SpanLog(name, "traced")
    traced = drive_grid.run_rep(params, seed, 1, spans=log)
    require(
        traced.digest == untraced.digest,
        f"{name}: the in-process grid changed the CLUSTER checksum",
    )
    logs.append(log)
    shards = log.durations_s("cluster.shard")
    plans = log.durations_s("cluster.plan")
    serial_s = sum(shards)
    host = dict(untraced.host)
    host.update(
        {
            "workloads.compile_mops_per_s": _mops(
                params["operation_count"], log.total_s("workloads.compile")
            ),
            "workloads.ops_open_ms": 1e3 * (
                log.total_s("workloads.save_ops") + log.total_s("workloads.open_ops")
            ),
            "cluster.materialize_s": log.total_s("cluster.materialize"),
            "cluster.plan_s": sum(plans),
            "cluster.plan_first_s": plans[0],
            "cluster.shard_s.max": max(shards),
            "cluster.shard_s.mean": serial_s / len(shards),
            "cluster.shard_imbalance": max(shards) / (serial_s / len(shards)),
            "cluster.merge_s": log.total_s("cluster.merge"),
            # The spans add nothing measurable to a shard job; what differs
            # is serial in-process execution against two contending workers.
            "trace.overhead_pct": 100.0 * (
                serial_s / untraced.host["parallel.job_wall_s.sum"] - 1.0
            ),
        }
    )
    for metric, _unit, _kind, _better, _moves in spec.PER_LAYER:
        if metric.startswith(
            ("kvstore.", "mem.tlb", "mem.mmu", "storage.ssd_w", "storage.write_mb")
        ):
            reasons[metric] = (
                "runs inside the shard workers; not in the shard payloads"
            )
    if jobs >= 2:
        host["cluster.jobs_scaling_x"] = serial_s / untraced.run_s
    else:
        host["cluster.jobs_scaling_x"] = None
        reasons["cluster.jobs_scaling_x"] = (
            f"host has {nproc()} core: a jobs=2 run cannot be measured here"
        )
    return traced.counts, host, [untraced, traced]
