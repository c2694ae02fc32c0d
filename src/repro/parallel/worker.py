"""Sweep worker: one self-contained job, executed from scratch.

:func:`run_sweep_job` is the module-level (picklable) entry point the
engine submits to its process pool; it rebuilds the full simulation from
the job's seed and runs it over the batched execution path.  Every
simulated quantity in the returned payload is a pure function of the
job, so a retried or re-scheduled job produces the identical payload —
the foundation of the sweep's cross-``--jobs`` byte-identity.  Wall time
is measured through :func:`repro.perf.timer.best_of` (the sanctioned
wall-clock site) and reported separately.

The fault-hook (:func:`maybe_kill_once`) and timeout
(:func:`job_timeout`) helpers are shared with the cluster shard worker
(:mod:`repro.cluster.runner`), which runs the same hermetic protocol
over shard jobs.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.runner import ExperimentScale, RunResult, run_workload
from repro.parallel.grid import SweepJob
from repro.perf.timer import best_of
from repro.workloads.compiled import compile_workload, open_ops, save_ops
from repro.workloads.ycsb import YCSB_WORKLOADS


class SweepTimeout(RuntimeError):
    """A job exceeded its per-job timeout."""


def result_payload(result: RunResult) -> Dict[str, object]:
    """The deterministic (simulated-only) view of one run."""
    stats = None
    if result.viyojit_stats is not None:
        stats = {
            key: value
            for key, value in result.viyojit_stats.items()
            if key != "dirty_samples"
        }
    return {
        "system_kind": result.system_kind,
        "budget_pages": result.budget_pages,
        "ops_executed": result.ops_executed,
        "sim_elapsed_ns": result.elapsed_ns,
        "throughput_kops": round(result.throughput_kops, 3),
        "ssd_bytes_written": result.ssd_bytes_written,
        "avg_write_rate_mb_s": round(result.avg_write_rate_mb_s, 3),
        "latency_ms": {
            kind: {
                "count": summary.count,
                "avg_ms": round(summary.avg_ms, 6),
                "p99_ms": round(summary.p99_ms, 6),
            }
            for kind, summary in sorted(result.latency.items())
        },
        "viyojit_stats": stats,
    }


def maybe_kill_once(path: Optional[str], label: str) -> None:
    """Fault hook: die hard on the first attempt, marked by a touch-file.

    Creating the marker *before* the kill means the retry finds it and
    proceeds normally — exactly one induced crash per marker path.
    """
    if path is None or os.path.exists(path):
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"killed {label}\n")
    os.kill(os.getpid(), signal.SIGKILL)


def run_sweep_job(job: SweepJob, in_worker: bool = False) -> Dict[str, object]:
    """Run one sweep job and return its mergeable payload.

    ``in_worker`` is set by the pool entry point: the SIGKILL fault hook
    and the SIGALRM timeout only arm inside a sacrificial worker process
    (or, for the timeout, the main thread of a serial run).
    """
    if in_worker:
        maybe_kill_once(job.fault_kill_once_path, f"job {job.index}")
    spec = YCSB_WORKLOADS[job.workload]
    scale = ExperimentScale(
        record_count=job.record_count,
        operation_count=job.operation_count,
        zipf_theta=job.theta,
        seed=job.seed,
    )
    # A pre-compiled stream is opened read-only (np.memmap, mode="r"):
    # any number of workers can share the parent's one compilation
    # through the page cache, and nothing in a worker can write to it.
    # A job handed no path compiles the same stream itself.
    compiled = open_ops(job.ops_path) if job.ops_path is not None else None
    holder: Dict[str, RunResult] = {}

    def one_pass() -> None:
        holder["result"] = run_workload(
            spec,
            scale,
            job.budget_fraction,
            compiled=compiled,
        )

    with job_timeout(job.timeout_s, f"job {job.index} ({job.workload})"):
        wall_s = best_of(1, one_pass)
    return {
        "job": job.as_dict(),
        "result": result_payload(holder["result"]),
        "wall_s": wall_s,
    }


@contextmanager
def job_timeout(timeout_s: Optional[float], label: str) -> Iterator[None]:
    """Bound the enclosed job with a SIGALRM-based timeout.

    Signals only work on the main thread, which is where both pool
    workers and the serial fallback run jobs; elsewhere (or without a
    positive ``timeout_s``) the block runs unbounded.  The handler that
    owned SIGALRM before is put back on exit — a serial run may be
    embedded in a host that uses alarms itself.
    """
    if (
        timeout_s is None
        or timeout_s <= 0
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: Optional[object]) -> None:
        raise SweepTimeout(f"{label} exceeded {timeout_s}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # ``None`` means a handler installed from C, which Python
        # cannot reinstall; the default disposition is the fallback.
        signal.signal(
            signal.SIGALRM,
            previous if previous is not None else signal.SIG_DFL,
        )


def pool_run_job(job: SweepJob) -> Dict[str, object]:
    """Process-pool entry point (arms the worker-only fault hooks)."""
    return run_sweep_job(job, in_worker=True)


def materialize_ops_paths(
    jobs: Sequence[SweepJob], directory: str
) -> List[SweepJob]:
    """Compile each distinct op stream of ``jobs`` once, into ``directory``.

    Runs in the *parent* before any worker starts: jobs differing only
    in budget share one ``.ops`` file, so a whole sweep generates its
    workload exactly once instead of once per job.  Returns the jobs
    with ``ops_path`` set (an execution detail — payload bytes cannot
    change, because the worker checks the stream against the job).
    """
    paths: Dict[Tuple[str, float, int, int, int], str] = {}
    out: List[SweepJob] = []
    for job in jobs:
        key = (
            job.workload,
            job.theta,
            job.seed,
            job.record_count,
            job.operation_count,
        )
        path = paths.get(key)
        if path is None:
            scale = ExperimentScale(
                record_count=job.record_count,
                operation_count=job.operation_count,
                zipf_theta=job.theta,
                seed=job.seed,
            )
            stream = compile_workload(
                YCSB_WORKLOADS[job.workload],
                job.record_count,
                job.operation_count,
                value_size=scale.value_size,
                theta=job.theta,
                seed=job.seed,
            )
            path = os.path.join(directory, f"sweep-{len(paths)}.ops")
            save_ops(stream, path)
            paths[key] = path
        out.append(replace(job, ops_path=path))
    return out
