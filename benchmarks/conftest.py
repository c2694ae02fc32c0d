"""Shared configuration for the per-figure benchmark harness.

Every benchmark prints the rows/series the corresponding paper figure
plots (run with ``pytest benchmarks/ --benchmark-only -s`` to see them)
and asserts the figure's qualitative shape: who wins, in which direction
the curves move, and where the crossovers fall.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 1.0).  At scale 1.0 the full Fig 7-10 sweep takes a few minutes;
larger scales sharpen the curves at proportional cost.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.runner import ExperimentScale

SCALE_FACTOR = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Worker processes for the sweep engine.  The engine's report is
#: byte-identical at any count, so this only sets the wall time.
ENGINE_JOBS = os.cpu_count() or 1


def bench_scale(records: int = 3000, ops: int = 9000) -> ExperimentScale:
    """The standard benchmark scale (multiplied by REPRO_BENCH_SCALE)."""
    return ExperimentScale(
        record_count=int(records * SCALE_FACTOR),
        operation_count=int(ops * SCALE_FACTOR),
    )


def pytest_collection_modifyitems(items):
    # The autouse fixture below makes every assertion test carry the
    # benchmark fixture without timing anything; silence the plugin's
    # "fixture was not used" warning those tests would otherwise emit.
    for item in items:
        item.add_marker(
            pytest.mark.filterwarnings("ignore:Benchmark fixture was not used")
        )


@pytest.fixture(autouse=True)
def _run_assertions_under_benchmark_only(benchmark):
    """Keep the per-figure shape assertions in ``--benchmark-only`` runs.

    pytest-benchmark skips any test whose fixture closure lacks the
    ``benchmark`` fixture when ``--benchmark-only`` is given; the
    assertion tests that check each figure's shape must run in the same
    invocation that prints the tables, so pull the fixture into every
    test's closure here.
    """
    yield


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return bench_scale()


@pytest.fixture(scope="session")
def ycsb_sweep(scale):
    """One full YCSB budget sweep's payload entries, for Figs 7/8/9.

    The paper draws all three figures from the same experimental runs;
    doing the same here keeps the numbers mutually consistent and the
    total benchmark wall-time reasonable.
    """
    from repro.bench.experiments import figure_grid
    from repro.parallel import run_sweep

    grid = figure_grid(scale.record_count, scale.operation_count)
    return run_sweep(grid, jobs=ENGINE_JOBS)["jobs"]
