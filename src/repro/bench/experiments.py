"""Per-figure experiment builders (section 6 + section 3 + section 2).

Each ``figN_*`` function regenerates the data behind one figure of the
paper as a list of printable rows.  The YCSB figures (Figs 7-10) run on
the sweep engine (:func:`repro.parallel.run_sweep`): :func:`figure_grid`
and :func:`fig10_grids` describe the runs, and the row builders are pure
functions of the resulting payload entries (``report["jobs"]``).  One
grid feeds Figs 7, 8 and 9, exactly as one experimental run did in the
paper; Fig 10 is the same grid at two heap sizes.

Budget labels follow the paper's axes: "2 GB" means a dirty budget of
2/17.5 of the initial heap ("11%"), regardless of the simulation's scaled
absolute size.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.bench.reporting import overhead_percent
from repro.bench.runner import (
    PAPER_HEAP_GB,
    ExperimentScale,
    rate_per_sim_s,
    run_workload,
)
from repro.parallel.grid import SweepGrid
from repro.power.battery import Battery
from repro.power.power_model import PowerModel
from repro.power.scaling import figure1_rows
from repro.sim.clock import NS_PER_SEC
from repro.workloads.analysis import (
    skew_percentiles,
    worst_interval_fraction,
    zipf_scaling_table,
)
from repro.workloads.traces import (
    APPLICATIONS,
    generate_volume_trace,
    scaled_spec,
)
from repro.workloads.ycsb import WorkloadSpec, YCSB_A

# The paper sweeps dirty budgets of 2..18 GB against a 17.5 GB heap; the
# top x-axis labels them 11%..103%.
PAPER_BUDGET_GB = (2, 4, 6, 8, 10, 12, 14, 16, 18)
DEFAULT_BUDGET_FRACTIONS = tuple(gb / PAPER_HEAP_GB for gb in PAPER_BUDGET_GB)

# Fig 8 plots the most trap-prone operation per workload.
CONSERVATIVE_OP = {
    "YCSB-A": "update",
    "YCSB-B": "update",
    "YCSB-C": "read",
    "YCSB-D": "insert",
    "YCSB-F": "rmw",
}

ALL_WORKLOADS = ("YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-F")


def figure_grid(
    record_count: int,
    operation_count: int,
    workloads: Sequence[str] = ALL_WORKLOADS,
    budget_fractions: Sequence[float] = DEFAULT_BUDGET_FRACTIONS,
) -> SweepGrid:
    """The Figs 7-9 sweep: every (workload x budget) plus each baseline."""
    return SweepGrid(
        workloads=tuple(workloads),
        budget_fractions=(None, *budget_fractions),
        record_count=record_count,
        operation_count=operation_count,
    )


def _pairs(entries: Sequence[dict]) -> List[Tuple[dict, dict, dict]]:
    """``(job, result, baseline result)`` per Viyojit entry, by (workload, budget).

    A run's baseline is the full-battery run of the same workload, theta
    and seed in the same sweep (empty if the sweep has none).
    """

    def point(job: dict) -> Tuple[object, ...]:
        return (job["workload"], job["theta"], job["seed"])

    baselines = {
        point(entry["job"]): entry["result"]
        for entry in entries
        if entry["job"]["budget_fraction"] is None
    }
    measured = sorted(
        (entry for entry in entries if entry["job"]["budget_fraction"] is not None),
        key=lambda entry: (entry["job"]["workload"], entry["job"]["budget_fraction"]),
    )
    return [
        (entry["job"], entry["result"], baselines.get(point(entry["job"]), {}))
        for entry in measured
    ]


def _kops(result: dict) -> float:
    return rate_per_sim_s(result["ops_executed"], result["sim_elapsed_ns"], 1e3)


# -- Fig 7: throughput vs dirty budget ---------------------------------------


def fig7_rows(entries: Sequence[dict]) -> List[dict]:
    """Throughput rows: one per (workload, budget), with baseline + overhead."""
    rows: List[dict] = []
    for job, result, baseline in _pairs(entries):
        fraction = job["budget_fraction"]
        measured, base = _kops(result), _kops(baseline)
        rows.append(
            {
                "workload": job["workload"],
                "budget_gb": round(fraction * PAPER_HEAP_GB, 1),
                "budget_pct_of_heap": round(fraction * 100, 1),
                "viyojit_kops": round(measured, 2),
                "nvdram_kops": round(base, 2),
                "overhead_pct": round(overhead_percent(base, measured), 1),
            }
        )
    return rows


# -- Fig 8: latency vs dirty budget --------------------------------------------


def fig8_rows(entries: Sequence[dict]) -> List[dict]:
    """Average and 99th-percentile latency of the trap-prone op per workload."""
    rows: List[dict] = []
    for job, result, baseline in _pairs(entries):
        op = CONSERVATIVE_OP.get(job["workload"], "read")
        measured = result["latency_ms"].get(op)
        base = baseline["latency_ms"].get(op)
        if measured is None or base is None:
            continue
        rows.append(
            {
                "workload": job["workload"],
                "operation": op,
                "budget_gb": round(job["budget_fraction"] * PAPER_HEAP_GB, 1),
                "viyojit_avg_ms": round(measured["avg_ms"], 4),
                "viyojit_p99_ms": round(measured["p99_ms"], 4),
                "nvdram_avg_ms": round(base["avg_ms"], 4),
                "nvdram_p99_ms": round(base["p99_ms"], 4),
            }
        )
    return rows


# -- Fig 9: average SSD write rate ----------------------------------------------


def fig9_rows(entries: Sequence[dict]) -> List[dict]:
    """Average write rate to the SSD during each Viyojit run."""
    return [
        {
            "workload": job["workload"],
            "budget_gb": round(job["budget_fraction"] * PAPER_HEAP_GB, 1),
            "write_rate_mb_s": round(
                rate_per_sim_s(
                    result["ssd_bytes_written"], result["sim_elapsed_ns"], 1e6
                ),
                2,
            ),
            "bytes_flushed": result["ssd_bytes_written"],
        }
        for job, result, _ in _pairs(entries)
    ]


# -- Fig 10: overhead shrinks with heap size --------------------------------------


def fig10_grids(
    record_count: int,
    operation_count: int,
    heap_multiple: float = 3.0,
    budget_fractions: Sequence[float] = (2 / 17.5, 4 / 17.5, 8 / 17.5),
    workloads: Sequence[str] = ("YCSB-A", "YCSB-B", "YCSB-C", "YCSB-F"),
) -> Tuple[SweepGrid, SweepGrid]:
    """Fig 10's two sweeps: the same grid at 1x and ``heap_multiple``x records.

    The paper compares 17.5 GB against 52.5 GB at 11/23/46% battery
    (YCSB-D omitted: its inserts would overflow NV-DRAM at the large
    size).
    """
    small = figure_grid(record_count, operation_count, workloads, budget_fractions)
    return small, replace(small, record_count=int(record_count * heap_multiple))


def fig10_rows(small: Sequence[dict], large: Sequence[dict]) -> List[dict]:
    """Throughput overhead per (heap, workload, budget) from both sweeps.

    With a fixed key space and zipf skew, the *fraction* of hot pages
    shrinks as the heap grows, so the big heap should show lower
    overheads.  The heap label is the sweeps' record-count ratio.
    """
    multiple = large[0]["job"]["record_count"] / small[0]["job"]["record_count"]
    return [
        {
            "workload": job["workload"],
            "heap": label,
            "budget_pct": round(job["budget_fraction"] * 100, 1),
            "overhead_pct": round(
                overhead_percent(_kops(baseline), _kops(result)), 1
            ),
        }
        for entries, label in ((small, "1x heap"), (large, f"{multiple:g}x heap"))
        for job, result, baseline in _pairs(entries)
    ]


# -- Section 6.3 ablation: stale dirty bits ------------------------------------------


def stale_bits_ablation(
    scale: Optional[ExperimentScale] = None,
    budget_fraction: float = 2 / 17.5,
    workload: WorkloadSpec = YCSB_A,
) -> List[dict]:
    """Skipping TLB flushes -> stale dirty bits -> hot pages evicted.

    The paper reports throughput dropping by more than half at 2-3 GB
    budgets when the recency scan reads stale bits.
    """
    scale = scale if scale is not None else ExperimentScale()
    fresh = run_workload(scale=scale, spec=workload, budget_fraction=budget_fraction)
    stale = run_workload(
        scale=scale,
        spec=workload,
        budget_fraction=budget_fraction,
        flush_tlb_on_scan=False,
    )
    return [
        {
            "variant": "fresh dirty bits (TLB flushed)",
            "throughput_kops": round(fresh.throughput_kops, 2),
        },
        {
            "variant": "stale dirty bits (no TLB flush)",
            "throughput_kops": round(stale.throughput_kops, 2),
        },
        {
            "variant": "slowdown factor",
            "throughput_kops": round(
                fresh.throughput_kops / stale.throughput_kops
                if stale.throughput_kops
                else float("inf"),
                2,
            ),
        },
    ]


# -- Figs 2-4: trace analyses ----------------------------------------------------------


INTERVALS = {
    "one_minute": 60 * NS_PER_SEC,
    "ten_minutes": 600 * NS_PER_SEC,
    "one_hour": 3600 * NS_PER_SEC,
}


def fig2_rows(
    applications: Optional[Iterable[str]] = None,
    volume_scale: float = 1.0,
    seed: int = 7,
) -> List[dict]:
    """Worst-interval write fraction per volume per interval length."""
    rows: List[dict] = []
    for app in applications if applications is not None else sorted(APPLICATIONS):
        for index, spec in enumerate(APPLICATIONS[app]):
            trace = generate_volume_trace(
                scaled_spec(spec, volume_scale), seed=seed + index
            )
            row = {"application": app, "volume": spec.name}
            for label, interval in INTERVALS.items():
                row[label + "_pct"] = round(
                    worst_interval_fraction(trace, interval) * 100, 2
                )
            rows.append(row)
    return rows


def _skew_rows(of_key: str, applications, volume_scale, seed) -> List[dict]:
    rows: List[dict] = []
    for app in applications if applications is not None else sorted(APPLICATIONS):
        for index, spec in enumerate(APPLICATIONS[app]):
            trace = generate_volume_trace(
                scaled_spec(spec, volume_scale), seed=seed + index
            )
            pcts = skew_percentiles(trace)
            rows.append(
                {
                    "application": app,
                    "volume": spec.name,
                    "p90_pct": round(pcts[0.90][of_key] * 100, 1),
                    "p95_pct": round(pcts[0.95][of_key] * 100, 1),
                    "p99_pct": round(pcts[0.99][of_key] * 100, 1),
                }
            )
    return rows


def fig3_rows(
    applications: Optional[Iterable[str]] = None,
    volume_scale: float = 1.0,
    seed: int = 7,
) -> List[dict]:
    """Pages (% of *touched*) covering 90/95/99% of writes."""
    return _skew_rows("of_touched", applications, volume_scale, seed)


def fig4_rows(
    applications: Optional[Iterable[str]] = None,
    volume_scale: float = 1.0,
    seed: int = 7,
) -> List[dict]:
    """Pages (% of *total volume*) covering 90/95/99% of writes."""
    return _skew_rows("of_total", applications, volume_scale, seed)


# -- Fig 5: zipf scaling -------------------------------------------------------------------


def fig5_rows(
    page_counts: Sequence[int] = (10_000, 100_000, 1_000_000, 10_000_000),
    theta: float = 0.99,
) -> List[dict]:
    """Fraction of pages at each write percentile vs total page count."""
    return zipf_scaling_table(page_counts, theta=theta)


# -- Fig 1 + section 2.2 sizing --------------------------------------------------------------


def fig1_table() -> List[dict]:
    """DRAM vs lithium relative growth since 1990."""
    return figure1_rows()


def battery_sizing_rows(
    dram_tb: float = 4.0,
    power_model: Optional[PowerModel] = None,
) -> List[dict]:
    """Section 2.2's worked example: the cost of full-DRAM backup.

    4 TB at 4 GB/s and ~300 W needs ~300 kJ — ~10x a smartphone battery
    before derating and >25x after depth-of-discharge and datacenter-cell
    density penalties.
    """
    model = power_model if power_model is not None else PowerModel(
        dram_gb=dram_tb * 1024
    )
    nvdram_bytes = int(dram_tb * 1024**4)
    energy = model.full_backup_energy(nvdram_bytes)
    raw_battery = Battery(
        nominal_joules=energy, depth_of_discharge=1.0, density_derate=1.0
    )
    derated = Battery.for_usable_energy(energy)
    return [
        {"quantity": "DRAM capacity (TB)", "value": dram_tb},
        {"quantity": "system power during flush (W)", "value": round(model.system_watts, 1)},
        {"quantity": "flush time (s)", "value": round(model.flush_time_seconds(nvdram_bytes), 1)},
        {"quantity": "energy for full backup (kJ)", "value": round(energy / 1e3, 1)},
        {
            "quantity": "smartphone-battery volumes (no derating)",
            "value": round(raw_battery.smartphone_equivalents(), 1),
        },
        {
            "quantity": "smartphone-battery volumes (DoD 50% + 30% denser penalty)",
            "value": round(derated.smartphone_equivalents(), 1),
        },
    ]
