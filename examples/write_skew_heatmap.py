#!/usr/bin/env python
"""Visualize write skew: why a small battery covers a big heap.

Runs YCSB-A against the NVM KV store and renders the per-page write-count
distribution as an ASCII heatmap plus the cumulative-coverage curve the
paper's whole argument rests on: a small fraction of pages receives
nearly all writes, so a dirty budget covering just that fraction rarely
has to evict.

Run:  python examples/write_skew_heatmap.py
"""

import numpy as np

from repro.bench.charts import bar_chart
from repro.bench.runner import ExperimentScale, YCSBRunner, build_viyojit
from repro.workloads.ycsb import YCSB_A

RAMP = " .:-=+*#%@"


def heatmap_line(counts: np.ndarray, cells: int = 64) -> str:
    """Render page-write counts as one line of heat characters."""
    if counts.max() == 0:
        return " " * cells
    bins = np.array_split(counts, cells)
    cell_values = np.array([chunk.max() if len(chunk) else 0 for chunk in bins])
    scaled = np.log1p(cell_values) / np.log1p(counts.max())
    return "".join(RAMP[min(int(s * (len(RAMP) - 1)), len(RAMP) - 1)] for s in scaled)


def main() -> None:
    scale = ExperimentScale(record_count=2000, operation_count=8000)
    sim, system = build_viyojit(scale, budget_fraction=2 / 17.5)
    runner = YCSBRunner(sim, system, scale)
    runner.load_batched()
    versions_before = np.array(system.region.page_version, dtype=np.int64)
    runner.run_batched(YCSB_A)
    writes_per_page = np.array(system.region.page_version, dtype=np.int64) - versions_before
    heap = runner.store.heap_mapping
    heap_writes = writes_per_page[heap.base_page : heap.base_page + heap.num_pages]

    print("write heat across the KV heap (log scale, hottest = '@'):\n")
    per_row = heap.num_pages // 8
    for row in range(8):
        chunk = heap_writes[row * per_row : (row + 1) * per_row]
        print(f"  pages {row * per_row:5d}+ |{heatmap_line(chunk)}|")

    written = np.sort(heap_writes[heap_writes > 0])[::-1]
    total = written.sum()
    cumulative = np.cumsum(written)
    rows = []
    for pct in (0.5, 0.9, 0.95, 0.99):
        pages_needed = int(np.searchsorted(cumulative, pct * total)) + 1
        rows.append(
            {
                "writes_covered": f"{pct:.0%}",
                "pages_pct": round(pages_needed / len(heap_writes) * 100, 2),
            }
        )
    print()
    print(
        bar_chart(
            rows,
            "writes_covered",
            "pages_pct",
            title="pages needed (% of heap) to cover X% of all writes",
            max_value=100.0,
        )
    )
    p50_pages = rows[0]["pages_pct"]
    p90_pages = rows[1]["pages_pct"]
    print(f"\nhalf of all writes land on just {p50_pages}% of heap pages, and")
    print(f"90% on {p90_pages}% — a dirty budget near that knee absorbs the")
    print("bulk of the write load, which is why Viyojit's small battery")
    print("costs so little throughput.")
    stats = system.stats
    print(f"(this run: {stats.sync_evictions} blocking evictions across "
          f"{stats.pages_dirtied} page dirtyings at an 11% budget)")


if __name__ == "__main__":
    main()
