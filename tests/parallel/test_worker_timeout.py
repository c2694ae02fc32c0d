"""Per-job timeout: SIGALRM is borrowed, never kept.

A ``--jobs 1 --timeout N`` sweep or cluster run executes in the caller's
main thread.  When the caller is a host that owns SIGALRM itself
(pytest-timeout, an embedding service), the job must hand the handler
back exactly as it found it — resetting to ``SIG_DFL`` would turn the
host's next alarm into a process kill.
"""

from __future__ import annotations

import signal

import pytest

from repro.cluster import ClusterGrid, plan_cluster, shard_jobs
from repro.cluster.runner import run_shard_job
from repro.parallel import SweepGrid
from repro.parallel.worker import SweepTimeout, job_timeout, run_job

SWEEP = SweepGrid(
    workloads=("YCSB-A",),
    budget_fractions=(0.175,),
    record_count=200,
    operation_count=400,
)

CLUSTER = ClusterGrid(
    shard_counts=(2,),
    total_budgets_gb=(2.0,),
    record_count=200,
    operation_count=400,
    epochs=2,
)


@pytest.fixture
def sentinel():
    """A recognisable SIGALRM handler, removed again after the test."""

    def handler(signum, frame):  # pragma: no cover - must never fire
        raise AssertionError("the host's alarm fired during the test")

    before = signal.signal(signal.SIGALRM, handler)
    try:
        yield handler
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, before)


def test_serial_sweep_job_restores_the_hosts_handler(sentinel):
    job = SWEEP.jobs(timeout_s=60.0)[0]
    payload = run_job(job)
    assert payload["result"]["ops_executed"] == 400
    assert signal.getsignal(signal.SIGALRM) is sentinel
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_serial_shard_job_restores_the_hosts_handler(sentinel):
    plans = [plan_cluster(spec) for spec in CLUSTER.specs()]
    job = shard_jobs(plans, timeout_s=60.0)[0]
    run_shard_job(job)
    assert signal.getsignal(signal.SIGALRM) is sentinel
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_handler_is_restored_when_the_job_times_out(sentinel):
    with pytest.raises(SweepTimeout, match="slow job exceeded"):
        with job_timeout(0.01, "slow job"):
            while True:
                pass
    assert signal.getsignal(signal.SIGALRM) is sentinel
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_no_timeout_leaves_sigalrm_untouched(sentinel):
    with job_timeout(None, "unbounded"):
        assert signal.getsignal(signal.SIGALRM) is sentinel
    with job_timeout(0, "unbounded"):
        assert signal.getsignal(signal.SIGALRM) is sentinel
