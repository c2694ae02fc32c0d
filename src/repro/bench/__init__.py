"""Benchmark harness reproducing the paper's evaluation (section 6).

:mod:`repro.bench.runner`
    Builds simulated systems (Viyojit at a given dirty budget, or the
    full-battery baseline), loads the KV store, replays YCSB operation
    streams, and collects throughput / per-op latency / SSD write-rate
    metrics in virtual time.
:mod:`repro.bench.experiments`
    One builder per paper figure: the YCSB throughput sweep (Fig 7),
    latency sweep (Fig 8), SSD write rates (Fig 9), the heap-size scaling
    comparison (Fig 10), the stale-dirty-bit ablation (section 6.3), and
    row builders for the motivation figures (Figs 1-5).
:mod:`repro.bench.reporting`
    ASCII tables/series matching the rows the paper reports.
"""

from repro.bench.charts import bar_chart, grouped_bar_chart, line_plot
from repro.bench.reporting import format_series, format_table
from repro.bench.runner import (
    ExperimentScale,
    LatencySummary,
    RunResult,
    YCSBRunner,
    build_baseline,
    build_viyojit,
    run_workload,
)
from repro.bench.trace_replay import ReplayResult, TraceReplayer

__all__ = [
    "ExperimentScale",
    "LatencySummary",
    "RunResult",
    "YCSBRunner",
    "build_viyojit",
    "build_baseline",
    "run_workload",
    "TraceReplayer",
    "ReplayResult",
    "format_table",
    "format_series",
    "bar_chart",
    "grouped_bar_chart",
    "line_plot",
]
