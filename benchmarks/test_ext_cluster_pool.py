"""Extension: pooled against static battery at equal total capacity.

Section 6.3 argues that battery should move between co-located consumers
to exploit statistical multiplexing; ``repro cluster`` leases one pooled
battery across shards.  This figure asks whether the pool pays.  The
arms share everything but the lease policy:

* **static** -- ``churn_cap_pages=0``: epoch 0's even split, frozen
  (the same total capacity, never moved);
* **last-epoch** -- the reactive pool: epoch ``e`` leases by epoch
  ``e - 1``'s demand;
* **ewma** -- the forecasting pool.

The test runs a small grid and asserts only what held in every cell of
the full sweep EXPERIMENTS.md reports: at theta 0.8 both pooled arms
beat static, and at 6 GB the arms stay within 4% of each other.  (At
theta 0.99 the pool mostly wins but can lose, so nothing is asserted
there.)  Run this file as a script for the full sweep -- total budget x
theta x hotspot rotation x shards x seeds at the repo benchmark's
scale, about 17 minutes on two cores::

    PYTHONPATH=src python benchmarks/test_ext_cluster_pool.py
"""

from __future__ import annotations

import itertools
import statistics
from typing import Dict, List

import pytest

from conftest import ENGINE_JOBS
from repro.bench.reporting import format_table
from repro.cluster import ClusterGrid, run_cluster_grid

#: Lease policy per arm; every other knob is shared.
ARMS: Dict[str, Dict[str, object]] = {
    "static": {"predictor": "last-epoch", "churn_cap_pages": 0},
    "last-epoch": {"predictor": "last-epoch"},
    "ewma": {"predictor": "ewma"},
}

#: The figure test's grid, per seed: about 5 s at two workers.
SMALL: Dict[str, object] = {
    "shard_counts": (4,),
    "total_budgets_gb": (2.0, 6.0),
    "record_count": 2_000,
    "operation_count": 24_000,
    "epochs": 6,
    "theta": 0.8,
    "hotspot_rotate_keys": 200,
}
SMALL_SEEDS = (42, 43)


def arm_rows(**grid: object) -> List[Dict[str, object]]:
    """One row per (arm, total budget): throughput, evictions, SSD, churn."""
    rows = []
    for arm, policy in ARMS.items():
        report = run_cluster_grid(
            ClusterGrid(**grid, **policy),  # type: ignore[arg-type]
            jobs=ENGINE_JOBS,
        )
        for run in report["runs"]:
            summary = run["summary"]
            results = [shard["result"] for shard in run["shards"]]
            churn = summary["pool"]["churn"]
            rows.append(
                {
                    "arm": arm,
                    "total_budget_gb": summary["total_budget_gb"],
                    "cluster_kops": summary["throughput_kops"],
                    "sync_evictions": sum(
                        result["viyojit_stats"]["sync_evictions"]
                        for result in results
                    ),
                    "ssd_mb": round(
                        sum(result["ssd_bytes_written"] for result in results)
                        / 1e6,
                        1,
                    ),
                    "churn_pages": churn["total_grown_pages"]
                    + churn["total_shed_pages"],
                    "leased": summary["pool"]["leased_per_epoch"],
                }
            )
    return rows


@pytest.fixture(scope="module")
def cells():
    """``{(seed, total_budget_gb): {arm: row}}`` over the small grid."""
    out: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    for seed in SMALL_SEEDS:
        for row in arm_rows(seed=seed, **SMALL):
            out.setdefault((seed, row["total_budget_gb"]), {})[row["arm"]] = row
    return out


def test_prints_pool_against_static(cells):
    print()
    print(
        format_table(
            [
                {"seed": seed, **{k: v for k, v in row.items() if k != "leased"}}
                for (seed, _), arms in sorted(cells.items())
                for row in arms.values()
            ],
            title="Pooled vs static battery (4 shards, theta 0.8, rotate 200)",
        )
    )


def test_arms_lease_equal_total_capacity(cells):
    """The comparison is at equal capacity: only the split differs."""
    for arms in cells.values():
        assert len({tuple(row["leased"]) for row in arms.values()}) == 1
        assert arms["static"]["churn_pages"] == 0
        assert arms["last-epoch"]["churn_pages"] > 0
        assert arms["ewma"]["churn_pages"] > 0


def test_pool_beats_static_at_moderate_skew(cells):
    for arms in cells.values():
        static = arms["static"]["cluster_kops"]
        assert arms["last-epoch"]["cluster_kops"] > static
        assert arms["ewma"]["cluster_kops"] > static


def test_arms_stay_close_with_battery_to_spare(cells):
    for (_, budget_gb), arms in cells.items():
        if budget_gb != 6.0:
            continue
        kops = [row["cluster_kops"] for row in arms.values()]
        assert max(kops) <= 1.04 * min(kops), kops


# -- the full sweep (script mode) -----------------------------------------

#: The repo benchmark's cluster scale (``cluster_grid_4s``).
FULL: Dict[str, object] = {
    "total_budgets_gb": (2.0, 4.0, 6.0),
    "record_count": 4_000,
    "operation_count": 96_000,
    "epochs": 6,
}


def full_sweep_table() -> List[Dict[str, object]]:
    """Per (budget, arm), over shards x theta x rotation x 5 seeds."""
    by_cell: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    for shards, theta, rotate, seed in itertools.product(
        (4, 8), (0.99, 0.8), (200, 0), (42, 43, 44, 45, 46)
    ):
        for row in arm_rows(
            shard_counts=(shards,),
            theta=theta,
            hotspot_rotate_keys=rotate,
            seed=seed,
            **FULL,
        ):
            key = (row["total_budget_gb"], shards, theta, rotate, seed)
            by_cell.setdefault(key, {})[row["arm"]] = row
    table = []
    for budget_gb, arm in itertools.product(FULL["total_budgets_gb"], ARMS):  # type: ignore[call-overload]
        mine = [arms for key, arms in by_cell.items() if key[0] == budget_gb]
        kops = [arms[arm]["cluster_kops"] for arms in mine]
        wins = sum(
            arms[arm]["cluster_kops"] > arms["static"]["cluster_kops"]
            for arms in mine
        )
        table.append(
            {
                "total_budget_gb": budget_gb,
                "arm": arm,
                "kops_mean": round(statistics.mean(kops), 1),
                "kops_min": min(kops),
                "kops_max": max(kops),
                "won_vs_static": "-" if arm == "static"
                else f"{wins} of {len(mine)}",
                **{
                    name: round(
                        statistics.mean(arms[arm][name] for arms in mine), 1
                    )
                    for name in ("sync_evictions", "ssd_mb", "churn_pages")
                },
            }
        )
    return table


if __name__ == "__main__":
    print(format_table(full_sweep_table(), title="Pooled vs static battery"))
