"""The paper's three-runs-with-RMSE protocol (section 6.1) on the engine.

"Each data point is averaged over three runs and the error bars
represent the root mean square error."  The sweep engine's ``seeds`` axis
runs those seeded repetitions; mean and RMSE are computed here over the
job payloads.
"""

import pytest

from repro.bench.runner import rate_per_sim_s
from repro.parallel import SweepGrid, run_sweep

#: Three seeds, 1000 apart, as the paper's protocol is reproduced here.
SEEDS = (42, 1042, 2042)


def _grid(budget_fractions, seeds=SEEDS):
    return SweepGrid(
        workloads=("YCSB-C",),
        budget_fractions=budget_fractions,
        seeds=seeds,
        record_count=300,
        operation_count=500,
    )


@pytest.fixture(scope="module")
def runs():
    return [entry["result"] for entry in run_sweep(_grid((0.5,)))["jobs"]]


def _kops(runs):
    return [
        rate_per_sim_s(run["ops_executed"], run["sim_elapsed_ns"], 1e3)
        for run in runs
    ]


def _mean(values):
    return sum(values) / len(values)


class TestRepeatedRuns:
    def test_three_runs_by_default(self):
        jobs = _grid((0.5,)).jobs()
        assert len(jobs) == 3
        assert tuple(job.seed for job in jobs) == SEEDS

    def test_mean_within_run_range(self, runs):
        values = _kops(runs)
        assert min(values) <= _mean(values) <= max(values)

    def test_rmse_nonnegative_and_small(self, runs):
        """The paper reports ~2% variance at most for its runs; a
        deterministic simulator with only seed variation should land in
        the same ballpark."""
        values = _kops(runs)
        mean = _mean(values)
        rmse = _mean([(value - mean) ** 2 for value in values]) ** 0.5
        assert rmse >= 0
        assert rmse < mean * 0.1

    def test_seeds_actually_vary(self, runs):
        elapsed = {run["sim_elapsed_ns"] for run in runs}
        assert len(elapsed) > 1  # different op streams -> different runs

    def test_latency_mean(self, runs):
        avg = _mean([run["latency_ms"]["read"]["avg_ms"] for run in runs])
        p99 = _mean([run["latency_ms"]["read"]["p99_ms"] for run in runs])
        assert 0 < avg <= p99

    def test_latency_mean_unknown_kind(self, runs):
        # Read-only YCSB-C records no update latency to average.
        assert all("update" not in run["latency_ms"] for run in runs)

    def test_runs_validation(self):
        with pytest.raises(ValueError, match="at least one seed"):
            _grid((0.5,), seeds=())

    def test_baseline_repeats(self):
        report = run_sweep(_grid((None,), seeds=SEEDS[:2]))
        assert len(report["jobs"]) == 2
        assert all(
            entry["result"]["system_kind"] == "nvdram"
            for entry in report["jobs"]
        )
