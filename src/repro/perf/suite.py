"""Drive the micro + macro benchmarks and assemble the report."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.perf import macro as macro_mod
from repro.perf import micro as micro_mod
from repro.perf import report as report_mod
from repro.perf.timer import best_of, timestamp


def run_suite(quick: bool = False, repeats: int = 0) -> Dict[str, object]:
    """Run every benchmark; returns the BENCH.json report dict.

    ``repeats=0`` picks the mode default (3 passes) — each benchmark
    additionally gets one untimed warm-up pass so allocator and bytecode
    caches are hot before measurement.
    """
    if repeats <= 0:
        repeats = 3
    micro_rows: List[Tuple[str, str, int, Dict[str, object], float]] = []
    for build in micro_mod.MICRO_BENCHES:
        bench = build(quick)
        bench.one_pass()  # warm-up
        wall_s = best_of(repeats, bench.one_pass)
        micro_rows.append((bench.name, bench.unit, bench.units, bench.sim, wall_s))
    macro_rows: List[Tuple[str, int, Dict[str, object], float]] = []
    for bench in macro_mod.macro_benches(quick):
        bench.one_pass()  # warm-up
        wall_s = best_of(repeats, bench.one_pass)
        macro_rows.append((bench.name, bench.units, bench.sim, wall_s))
    return report_mod.build_report(
        mode="quick" if quick else "full",
        micro=micro_rows,
        macro=macro_rows,
        repeats=repeats,
        generated_at_unix=timestamp(),
    )
