"""Golden-fixture pin: default-knob grids keep their CLUSTER.json bytes.

These grids use none of the planner's forecasting, damping, migration
or rotation knobs.  The two fixtures under ``fixtures/`` hold their
schema-3 CLUSTER.json (every knob written, every budgeted run carrying
its churn and misallocation blocks); these tests regenerate the same
grids through the current planner and compare byte for byte.  Schema 3
was written once, as the schema-2 bytes with the tenant axis and the
one-value ring, floor and EWMA knobs projected out; the degraded grid
lost its two tenants then and kept its other knobs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cluster import ClusterGrid, run_cluster_grid
from repro.cluster.report import dumps

FIXTURES = Path(__file__).parent / "fixtures"

BASE_GRID = ClusterGrid(
    shard_counts=(2,),
    total_budgets_gb=(None, 2.0),
    record_count=300,
    operation_count=900,
    epochs=3,
)

DEGRADED_GRID = ClusterGrid(
    shard_counts=(2,),
    total_budgets_gb=(2.0,),
    record_count=300,
    operation_count=900,
    epochs=3,
    pool_degrade=((1, 0.5),),
)


@pytest.mark.parametrize(
    "grid, fixture",
    [
        (BASE_GRID, "cluster_pr8_base.json"),
        (DEGRADED_GRID, "cluster_pr8_degraded.json"),
    ],
    ids=["base", "degraded"],
)
def test_legacy_grid_reproduces_pr8_bytes(grid, fixture):
    report = run_cluster_grid(grid, jobs=1)
    want = (FIXTURES / fixture).read_text(encoding="utf-8")
    assert dumps(report, strip_wall=True) == want


def test_default_grid_dict_round_trips():
    """Default knobs are written out like any other value."""
    data = BASE_GRID.as_dict()
    assert data["predictor"] == "last-epoch"
    assert data["churn_cap_pages"] is None
    assert data["membership"] == []
    assert data["hotspot_rotate_keys"] == 0
    assert ClusterGrid.from_dict(data) == BASE_GRID
    spec_data = BASE_GRID.specs()[0].as_dict()
    for key in ("predictor", "churn_cap_pages", "membership"):
        assert spec_data[key] == data[key]


def test_modern_spec_dict_round_trips_through_grid():
    grid = ClusterGrid(
        shard_counts=(2,),
        total_budgets_gb=(2.0,),
        record_count=300,
        operation_count=900,
        epochs=3,
        predictor="ewma",
        churn_cap_pages=4,
        membership=((1, "add", 2),),
        hotspot_rotate_keys=50,
    )
    data = grid.as_dict()
    assert data["predictor"] == "ewma"
    assert data["churn_cap_pages"] == 4
    assert data["membership"] == [[1, "add", 2]]
    assert data["hotspot_rotate_keys"] == 50
    assert ClusterGrid.from_dict(data) == grid
    spec = grid.specs()[0]
    assert spec.as_dict()["membership"] == [[1, "add", 2]]
