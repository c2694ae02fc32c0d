"""Deterministic job scheduler (sweeps, cluster shards).

Fans an indexed job list out over a ``ProcessPoolExecutor``.
Determinism does not come from scheduling — jobs complete in any order,
workers die and are replaced — it comes from the jobs themselves: each
is a pure function of its descriptor, and the merge keys results by job
index.  The engine's contract is only *completeness*: every job's
payload ends up in the result map, or a :class:`SweepError` carrying the
partial results is raised.

:func:`execute_jobs` is the generic core; :func:`run_sweep` wraps it
with the sweep grid's expansion and report, and
:func:`repro.cluster.runner.run_cluster_grid` rides the same machinery
with shard jobs (one shard per worker).  Every job, of either kind, runs
through :func:`repro.parallel.worker.run_job`: called directly at
``jobs=1``, submitted to the pool by name otherwise — a module-top-level
function, so it pickles by reference and the fork-safety lint resolves
the whole worker tree from the submission site.

Failure handling:

* a job raising (timeout, simulation error) is retried up to
  ``max_retries`` times, then recorded as failed;
* a worker process dying (``BrokenProcessPool``) poisons the whole pool,
  so the pool is rebuilt and every unfinished job is resubmitted, with
  one attempt charged to each — bounding a perpetually-crashing job to
  ``max_retries + 1`` pool rebuilds;
* ``jobs=1`` runs everything in-process (no pool, no pickling), which is
  also the graceful fallback for environments without working
  multiprocessing.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel.grid import SweepGrid
from repro.parallel.report import build_sweep_report
from repro.parallel.worker import Job, SweepJob, run_job
from repro.perf.timer import best_of
from repro.workloads.compiled import compile_workload, save_ops
from repro.workloads.ycsb import YCSB_WORKLOADS

Progress = Optional[Callable[[str], None]]


class SweepError(RuntimeError):
    """A job batch could not complete; carries the partial results."""

    def __init__(
        self,
        message: str,
        partial: Dict[int, dict],
        failures: Dict[int, str],
    ) -> None:
        super().__init__(message)
        self.partial = partial
        self.failures = failures


class _Outcomes:
    """One batch's results, failures and attempt counts, shared by the
    serial and the pool runner."""

    def __init__(self, total: int, max_retries: int, progress: Progress):
        self.total = total
        self.max_retries = max_retries
        self.progress = progress
        self.results: Dict[int, dict] = {}
        self.failures: Dict[int, str] = {}
        self.attempts: Dict[int, int] = {}
        self.retries = 0

    def notify(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def done(self, index: int, payload: dict) -> None:
        self.results[index] = payload
        self.notify(
            f"job {index} done ({len(self.results)}/{self.total} complete)"
        )

    def charge(self, index: int, error: str) -> bool:
        """Charge job ``index`` one failed attempt; True if it may run
        again, False once its retries are spent (it is then a failure)."""
        self.attempts[index] = self.attempts.get(index, 0) + 1
        self.retries += 1
        if self.attempts[index] > self.max_retries:
            self.failures[index] = error
            return False
        return True

    def raised(self, index: int, exc: Exception) -> bool:
        """:meth:`charge` for a job that raised ``exc``."""
        again = self.charge(index, repr(exc))
        if again:
            self.notify(f"job {index} failed ({exc!r}); retrying")
        return again


def _run_serial(jobs: Sequence[Job], outcomes: _Outcomes) -> None:
    for job in jobs:
        while True:
            try:
                payload = run_job(job)
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                if outcomes.raised(job.index, exc):
                    continue
            else:
                outcomes.done(job.index, payload)
            break


def _run_pool(jobs: Sequence[Job], workers: int, outcomes: _Outcomes) -> None:
    # Imported here so a process that never runs a pool never loads the
    # process-pool stack (concurrent.futures, multiprocessing, logging).
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    by_index = {job.index: job for job in jobs}
    pending = sorted(by_index)
    results, failures = outcomes.results, outcomes.failures
    while pending:
        resubmit: List[int] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(run_job, by_index[index], True): index
                for index in pending
            }
            not_done = set(futures)
            broken = False
            while not_done and not broken:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # noqa: BLE001 - job boundary
                        if outcomes.raised(index, exc):
                            resubmit.append(index)
                        continue
                    outcomes.done(index, payload)
            if broken:
                # The pool is poisoned: harvest whatever finished before
                # the breakage, charge one attempt to every other
                # unfinished job, and rebuild.
                outcomes.notify("worker process died; rebuilding pool")
                for future, index in futures.items():
                    if (
                        index in results
                        or index in failures
                        or index in resubmit
                    ):
                        continue
                    if future.done() and future.exception() is None:
                        results[index] = future.result()
                    elif outcomes.charge(index, "worker process died"):
                        resubmit.append(index)
        pending = sorted(resubmit)


def execute_jobs(
    job_list: Sequence[Job],
    *,
    jobs: int = 1,
    max_retries: int = 2,
    progress: Progress = None,
) -> Tuple[Dict[int, dict], int, float]:
    """Run every job and return ``(results, retries, total_wall_s)``.

    ``jobs=1`` runs each job in-process; otherwise a pool of ``jobs``
    workers runs them, with the SIGKILL test hook armed (it only fires
    inside a sacrificial worker).  Job indices must be unique; results
    are keyed by them.  Raises :class:`SweepError` when any job exhausts
    its retries.
    """
    if jobs <= 0:
        raise ValueError(f"jobs must be positive: {jobs}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative: {max_retries}")
    indices = [job.index for job in job_list]
    if len(set(indices)) != len(indices):
        raise ValueError("job indices must be unique")
    outcomes = _Outcomes(len(job_list), max_retries, progress)
    if jobs == 1:
        total_wall_s = best_of(1, lambda: _run_serial(job_list, outcomes))
    else:
        total_wall_s = best_of(1, lambda: _run_pool(job_list, jobs, outcomes))
    if outcomes.failures:
        raise SweepError(
            f"{len(outcomes.failures)} of {len(job_list)} jobs failed: "
            f"{sorted(outcomes.failures)}",
            partial=outcomes.results,
            failures=outcomes.failures,
        )
    return outcomes.results, outcomes.retries, total_wall_s


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
            stream = compile_workload(
                YCSB_WORKLOADS[job.workload],
                job.record_count,
                job.operation_count,
                value_size=job.scale().value_size,
                theta=job.theta,
                seed=job.seed,
            )
            path = os.path.join(directory, f"sweep-{len(paths)}.ops")
            save_ops(stream, path)
            paths[key] = path
        out.append(replace(job, ops_path=path))
    return out


def run_sweep(
    grid: SweepGrid,
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    progress: Progress = None,
    _job_overrides: Optional[Dict[int, SweepJob]] = None,
) -> dict:
    """Run every job of ``grid`` and return the merged sweep report.

    The report's deterministic view (everything outside ``wall``) is
    byte-identical for any ``jobs`` count.  ``_job_overrides`` lets the
    fault tests substitute doctored job descriptors (kill hooks) without
    widening the public surface.

    The parent compiles each distinct op stream once into a temporary
    ``.ops`` file (:func:`materialize_ops_paths`); workers open it
    read-only instead of regenerating the workload.  The files live
    only for the duration of the run.
    """
    job_list: Sequence[SweepJob] = list(grid.jobs(timeout_s=timeout_s))
    if _job_overrides:
        job_list = [
            _job_overrides.get(job.index, job) for job in job_list
        ]
    with tempfile.TemporaryDirectory(prefix="repro-ops-") as ops_dir:
        job_list = materialize_ops_paths(job_list, ops_dir)
        results, retries, total_wall_s = execute_jobs(
            job_list,
            jobs=jobs,
            max_retries=max_retries,
            progress=progress,
        )
    return build_sweep_report(
        grid,
        results,
        workers=jobs,
        total_wall_s=total_wall_s,
        retries=retries,
    )
