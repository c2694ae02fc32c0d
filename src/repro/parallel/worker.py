"""Job runner: one self-contained job, executed from scratch.

A job is a frozen, picklable descriptor whose :meth:`run` is its whole
simulation — :class:`SweepJob` here, :class:`repro.cluster.runner.ShardJob`
for cluster shards.  :func:`run_job` is the one module-level entry the
engine calls in-process and submits to its process pool by name, so the
fork-safety lint (P1) follows it through ``job.run()`` into every
worker-reachable function.  Every simulated quantity in a payload is a
pure function of the job, so a retried or re-scheduled job produces the
identical payload — the foundation of cross-``--jobs`` byte-identity.
Wall time is measured through :func:`repro.perf.timer.best_of` (the
sanctioned wall-clock site) and reported separately.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, Optional, Protocol

from repro.bench.runner import ExperimentScale, RunResult, run_workload
from repro.perf.timer import best_of
from repro.workloads.compiled import open_ops
from repro.workloads.ycsb import YCSB_WORKLOADS

#: Job fields that steer execution but never enter a payload: the report
#: bytes must not depend on a timeout, a test hook, or whether a compiled
#: stream backed the run.
EXECUTION_FIELDS = ("timeout_s", "fault_kill_once_path", "ops_path")


class Job(Protocol):
    """What the engine and :func:`run_job` need from a job descriptor."""

    index: int
    timeout_s: Optional[float]
    fault_kill_once_path: Optional[str]

    def run(self) -> Dict[str, object]: ...

    def as_dict(self) -> Dict[str, object]: ...


class SweepTimeout(RuntimeError):
    """A job exceeded its per-job timeout."""


def job_identity(job: Any) -> Dict[str, object]:
    """A job dataclass's fields less :data:`EXECUTION_FIELDS`."""
    data = asdict(job)
    for name in EXECUTION_FIELDS:
        del data[name]
    return data


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


@dataclass(frozen=True)
class SweepJob:
    """One self-contained point of a sweep grid.

    Carries everything a worker process needs to reproduce the run from
    scratch; pickled across the process boundary.  ``index`` is the job's
    position in the grid expansion and keys the merge order.
    """

    index: int
    workload: str
    budget_fraction: Optional[float]  # None = full-battery baseline
    theta: float
    seed: int
    record_count: int
    operation_count: int
    timeout_s: Optional[float] = None
    # Test hook: when set, a pool worker touches this file and SIGKILLs
    # itself on the job's first attempt (see maybe_kill_once).
    fault_kill_once_path: Optional[str] = None
    # Path to a pre-compiled ``.ops`` stream the worker opens read-only
    # (np.memmap) instead of regenerating the ops.  Purely an execution
    # detail — the stream is checked against the job's own parameters,
    # so it can never change the payload.
    ops_path: Optional[str] = None

    def scale(self) -> ExperimentScale:
        return ExperimentScale(
            record_count=self.record_count,
            operation_count=self.operation_count,
            zipf_theta=self.theta,
            seed=self.seed,
        )

    def run(self) -> Dict[str, object]:
        """Rebuild the simulation and replay the job's op stream."""
        # A pre-compiled stream is opened read-only (np.memmap, mode="r"):
        # any number of workers can share the parent's one compilation
        # through the page cache, and nothing in a worker can write to it.
        # A job handed no path compiles the same stream itself.
        compiled = None
        if self.ops_path is not None:
            compiled = open_ops(self.ops_path)
        result = run_workload(
            YCSB_WORKLOADS[self.workload],
            self.scale(),
            self.budget_fraction,
            compiled=compiled,
        )
        return result_payload(result)

    def as_dict(self) -> Dict[str, object]:
        return job_identity(self)


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


def run_job(job: Job, in_worker: bool = False) -> Dict[str, object]:
    """Run one job and return its mergeable ``{job, result, wall_s}``.

    ``in_worker`` is set when the engine submits the job to its pool:
    the SIGKILL fault hook only arms inside a sacrificial worker
    process.  The SIGALRM timeout arms on any main thread.
    """
    label = f"job {job.index}"
    if in_worker:
        maybe_kill_once(job.fault_kill_once_path, label)
    holder: Dict[str, Dict[str, object]] = {}

    def one_pass() -> None:
        holder["result"] = job.run()

    with job_timeout(job.timeout_s, label):
        wall_s = best_of(1, one_pass)
    return {
        "job": job.as_dict(),
        "result": holder["result"],
        "wall_s": wall_s,
    }
