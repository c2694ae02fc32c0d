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
with shard jobs (one shard per worker).  Pool workers are reached
through :func:`_dispatch`, a module-top-level trampoline that resolves a
``"module:function"`` entry name inside the child process — keeping
every submitted callable picklable regardless of which subsystem
supplied the job type.

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

import importlib
import tempfile
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.parallel.grid import SweepGrid, SweepJob
from repro.parallel.report import build_sweep_report
from repro.parallel.worker import materialize_ops_paths, run_sweep_job
from repro.perf.timer import best_of

Progress = Optional[Callable[[str], None]]

#: Pool entry for plain sweep jobs (resolved by :func:`_dispatch`).
SWEEP_POOL_ENTRY = "repro.parallel.worker:pool_run_job"


class IndexedJob(Protocol):
    """What the engine needs from a job descriptor: a stable index."""

    index: int


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


def _dispatch(entry: str, job: object) -> dict:
    """Pool trampoline: resolve ``"module:function"`` in the child.

    The engine cannot submit an arbitrary callable parameter (it may not
    be picklable, and fork-safety lint requires a statically-resolvable
    module-top-level entry), so callers hand over a dotted entry name
    and the child process imports it fresh.
    """
    module_name, _, func_name = entry.partition(":")
    if not module_name or not func_name:
        raise ValueError(f"pool entry must be 'module:function': {entry!r}")
    module = importlib.import_module(module_name)
    runner = getattr(module, func_name)
    result = runner(job)
    if not isinstance(result, dict):
        raise TypeError(
            f"pool entry {entry!r} must return a payload dict, "
            f"got {type(result).__name__}"
        )
    return result


def _notify(progress: Progress, message: str) -> None:
    if progress is not None:
        progress(message)


def _run_serial(
    jobs: Sequence[IndexedJob],
    runner: Callable[..., dict],
    max_retries: int,
    progress: Progress,
    retries: List[int],
) -> Dict[int, dict]:
    results: Dict[int, dict] = {}
    failures: Dict[int, str] = {}
    for job in jobs:
        for attempt in range(max_retries + 1):
            try:
                results[job.index] = runner(job)
                break
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                retries[0] += 1
                if attempt == max_retries:
                    failures[job.index] = repr(exc)
                else:
                    _notify(
                        progress,
                        f"job {job.index} failed ({exc!r}); retrying",
                    )
        if job.index in results:
            _notify(
                progress,
                f"job {job.index} done "
                f"({len(results)}/{len(jobs)} complete)",
            )
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(jobs)} jobs failed: "
            f"{sorted(failures)}",
            partial=results,
            failures=failures,
        )
    return results


def _run_pool(
    jobs: Sequence[IndexedJob],
    pool_entry: str,
    workers: int,
    max_retries: int,
    progress: Progress,
    retries: List[int],
) -> Dict[int, dict]:
    # Imported here so a process that never runs a pool never loads the
    # process-pool stack (concurrent.futures, multiprocessing, logging).
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    by_index = {job.index: job for job in jobs}
    pending = sorted(by_index)
    attempts = {index: 0 for index in pending}
    results: Dict[int, dict] = {}
    failures: Dict[int, str] = {}

    while pending:
        resubmit: List[int] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_dispatch, pool_entry, by_index[index]): index
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
                        attempts[index] += 1
                        retries[0] += 1
                        if attempts[index] > max_retries:
                            failures[index] = repr(exc)
                        else:
                            resubmit.append(index)
                            _notify(
                                progress,
                                f"job {index} failed ({exc!r}); retrying",
                            )
                        continue
                    results[index] = payload
                    _notify(
                        progress,
                        f"job {index} done "
                        f"({len(results)}/{len(jobs)} complete)",
                    )
            if broken:
                # The pool is poisoned: harvest whatever finished before
                # the breakage, charge one attempt to every other
                # unfinished job, and rebuild.
                _notify(progress, "worker process died; rebuilding pool")
                for future, index in futures.items():
                    if (
                        index in results
                        or index in failures
                        or index in resubmit
                    ):
                        continue
                    if future.done() and future.exception() is None:
                        results[index] = future.result()
                        continue
                    attempts[index] += 1
                    retries[0] += 1
                    if attempts[index] > max_retries:
                        failures[index] = "worker process died"
                    else:
                        resubmit.append(index)
        pending = sorted(resubmit)

    if failures:
        raise SweepError(
            f"{len(failures)} of {len(jobs)} jobs failed: "
            f"{sorted(failures)}",
            partial=results,
            failures=failures,
        )
    return results


def execute_jobs(
    job_list: Sequence[IndexedJob],
    *,
    serial_runner: Callable[..., dict],
    pool_entry: str,
    jobs: int = 1,
    max_retries: int = 2,
    progress: Progress = None,
) -> Tuple[Dict[int, dict], int, float]:
    """Run every job and return ``(results, retries, total_wall_s)``.

    ``serial_runner`` executes a job in-process (``jobs=1``);
    ``pool_entry`` names the module-top-level pool entry point as
    ``"module:function"`` — the two may arm different fault hooks (the
    SIGKILL test hook only fires inside a sacrificial worker).  Job
    indices must be unique; results are keyed by them.  Raises
    :class:`SweepError` when any job exhausts its retries.
    """
    if jobs <= 0:
        raise ValueError(f"jobs must be positive: {jobs}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative: {max_retries}")
    indices = [job.index for job in job_list]
    if len(set(indices)) != len(indices):
        raise ValueError("job indices must be unique")
    holder: Dict[int, Dict[int, dict]] = {}
    retries = [0]

    def one_pass() -> None:
        if jobs == 1:
            holder[0] = _run_serial(
                job_list, serial_runner, max_retries, progress, retries
            )
        else:
            holder[0] = _run_pool(
                job_list, pool_entry, jobs, max_retries, progress, retries
            )

    total_wall_s = best_of(1, one_pass)
    return holder[0], retries[0], total_wall_s


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
            serial_runner=run_sweep_job,
            pool_entry=SWEEP_POOL_ENTRY,
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
