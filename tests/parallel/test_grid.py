"""SweepGrid: deterministic expansion, validation, JSON round-trip."""

from __future__ import annotations

import json
import re

import pytest

from repro.parallel.grid import SweepGrid


def test_job_expansion_is_deterministic_and_indexed():
    grid = SweepGrid(
        workloads=("YCSB-A", "YCSB-B"),
        budget_fractions=(None, 0.175),
        thetas=(0.8, 0.99),
        seeds=(1, 2),
        record_count=100,
        operation_count=200,
    )
    jobs = grid.jobs()
    assert len(jobs) == 2 * 2 * 2 * 2
    assert [job.index for job in jobs] == list(range(len(jobs)))
    assert jobs == grid.jobs()  # pure function of the grid
    # Nesting order: workload is the slowest axis, seed the fastest.
    assert jobs[0].workload == "YCSB-A" and jobs[-1].workload == "YCSB-B"
    assert (jobs[0].seed, jobs[1].seed) == (1, 2)


def test_timeout_is_stamped_onto_jobs():
    grid = SweepGrid()
    assert grid.jobs()[0].timeout_s is None
    assert grid.jobs(timeout_s=1.5)[0].timeout_s == 1.5


def test_ops_path_is_an_execution_detail_not_identity():
    """``ops_path`` must never leak into payload dicts (byte stability)."""
    import dataclasses

    job = SweepGrid().jobs()[0]
    backed = dataclasses.replace(job, ops_path="/tmp/sweep-0.ops")
    assert "ops_path" not in backed.as_dict()
    assert backed.as_dict() == job.as_dict()


def test_json_round_trip(tmp_path):
    grid = SweepGrid(
        workloads=("YCSB-F",),
        budget_fractions=(0.11, None),
        thetas=(0.95,),
        seeds=(7,),
        record_count=300,
        operation_count=900,
    )
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid.as_dict()))
    assert SweepGrid.from_file(str(path)) == grid


def test_grid_file_must_hold_object(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        SweepGrid.from_file(str(path))


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown grid keys"):
        SweepGrid.from_dict({"workloads": ["YCSB-A"], "budget_gb": [2]})


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"workloads": ()}, "at least one workload"),
        ({"workloads": ("YCSB-Z",)}, "unknown workload"),
        ({"budget_fractions": ()}, "at least one budget"),
        ({"budget_fractions": (0.0,)}, "must be positive"),
        ({"budget_fractions": (0.2, 0.2)}, "duplicate budget"),
        ({"thetas": (1.5,)}, "theta"),
        ({"seeds": ()}, "at least one seed"),
        ({"record_count": 0}, "record_count"),
        ({"operation_count": 0}, "operation_count"),
        # Mistyped values (as a JSON grid file can carry them) are named,
        # not run or crashed on.
        ({"seeds": (True,)}, "seeds: expected an integer, got True"),
        ({"seeds": (1.5,)}, "seeds: expected an integer, got 1.5"),
        ({"seeds": 5}, "seeds: expected a list, got 5"),
        ({"workloads": "YCSB-A"}, "workloads: expected a list, got 'YCSB-A'"),
        (
            {"budget_fractions": (None, True)},
            "budget_fractions: expected a finite number, got True",
        ),
        (
            {"budget_fractions": (float("inf"),)},
            "budget_fractions: expected a finite number, got inf",
        ),
        ({"thetas": ("x",)}, "thetas: expected a finite number, got 'x'"),
        ({"record_count": "2000"}, "record_count: expected an integer, got '2000'"),
        ({"operation_count": 6e3}, "operation_count: expected an integer"),
        ({"workloads": ("YCSB-A", "YCSB-A")}, "duplicate workloads"),
        ({"seeds": (1, 1)}, "duplicate seeds"),
    ],
)
def test_validation(kwargs, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        SweepGrid(**kwargs)


@pytest.mark.parametrize(
    "data, match",
    [
        (
            {"seeds": [True], "budget_fractions": [None, True]},
            "expected a finite number, got True",
        ),
        ({"workloads": "YCSB-A"}, "workloads: expected a list"),
        ({"seeds": [[1]]}, "seeds: expected an integer, got [1]"),
    ],
)
def test_from_dict_validation(data, match):
    """The ``repro sweep --grid`` path: JSON values reach the same checks."""
    with pytest.raises(ValueError, match=re.escape(match)):
        SweepGrid.from_dict(data)


def test_list_axes_are_stored_as_tuples():
    assert SweepGrid(seeds=[1, 2]) == SweepGrid(seeds=(1, 2))
