"""BENCH.json: schema, serialization, and baseline comparison.

Report layout (``SCHEMA_VERSION`` guards it)::

    {
      "schema_version": 5,
      "mode": "quick" | "full",
      "micro": { name: {..deterministic facts..}, ... },
      "macro": { name: {..deterministic facts..}, ... },
      "wall": {
        "generated_at_unix": <timestamp>,
        "repeats": N,
        "micro": { name: {"units": U, "unit": "...", "wall_s": S,
                          "per_sec": U/S} },
        "macro": { name: {"units": U, "wall_s": S, "ops_per_sec": U/S} },
        "speedups": { "ycsb_a_compiled_vs_batched": R, ... }
      }
    }

Schema history: v2 added the batched/sweep macro benches and
``wall.speedups``; v3 added a top-level ``kernel`` field; v4 added the
compiled-stream benches (``compile_stream`` / ``ops_roundtrip`` micros,
``*_compiled`` / ``cluster_stream_*`` / ``scale_replay`` macros) and
their speedup ratios; v5 follows the executor/kernel deletion — the
per-op macros (``viyojit``, ``nvdram``), the ``cluster_stream_*`` pair,
their three ratios and the ``kernel`` field are gone with the code they
measured.

Everything outside ``wall`` is a pure function of the simulation: two
runs of the same tree produce byte-identical text once the ``wall`` key
is dropped.  That invariant is what ``tests/perf`` locks down, and it is
why the CI comparison below only ever reads ``wall`` — regressions in
the deterministic sections are simulation changes and belong to the
golden-trace tests, not the perf gate.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

SCHEMA_VERSION = 5

#: ``wall.speedups`` entries: label -> (numerator bench, denominator bench);
#: the ratio is numerator's wall seconds over denominator's, i.e. how many
#: times faster the denominator configuration ran.
SPEEDUP_PAIRS = {
    "ycsb_a_compiled_vs_batched": ("viyojit_batched", "viyojit_compiled"),
    "ycsb_a_nvdram_compiled_vs_batched": ("nvdram_batched", "nvdram_compiled"),
    "sweep_jobs2_vs_jobs1": ("sweep_jobs1", "sweep_jobs2"),
}


def build_report(
    mode: str,
    micro: List[Tuple[str, str, int, Dict[str, object], float]],
    macro: List[Tuple[str, int, Dict[str, object], float]],
    repeats: int,
    generated_at_unix: float,
) -> Dict[str, object]:
    """Assemble the BENCH.json dict from measured suite results.

    ``micro`` rows are ``(name, unit, units, sim, wall_s)``; ``macro``
    rows are ``(name, units, sim, wall_s)``.
    """
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "micro": {name: sim for name, _unit, _units, sim, _w in micro},
        "macro": {name: sim for name, _units, sim, _w in macro},
        "wall": {
            "generated_at_unix": generated_at_unix,
            "repeats": repeats,
            "micro": {
                name: {
                    "unit": unit,
                    "units": units,
                    "wall_s": round(wall_s, 6),
                    "per_sec": round(units / wall_s, 1) if wall_s > 0 else 0.0,
                }
                for name, unit, units, _sim, wall_s in micro
            },
            "macro": {
                name: {
                    "units": units,
                    "wall_s": round(wall_s, 6),
                    "ops_per_sec": round(units / wall_s, 1)
                    if wall_s > 0
                    else 0.0,
                }
                for name, units, _sim, wall_s in macro
            },
        },
    }
    macro_walls = {name: wall_s for name, _units, _sim, wall_s in macro}
    speedups = {}
    for label, (slow, fast) in SPEEDUP_PAIRS.items():
        if slow in macro_walls and fast in macro_walls and macro_walls[fast] > 0:
            speedups[label] = round(macro_walls[slow] / macro_walls[fast], 3)
    report["wall"]["speedups"] = speedups  # type: ignore[index]
    return report


def dumps(report: Dict[str, object]) -> str:
    """Canonical serialization: sorted keys, stable formatting."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def deterministic_view(report: Dict[str, object]) -> str:
    """The byte-comparable portion: everything except ``wall``."""
    trimmed = {key: value for key, value in report.items() if key != "wall"}
    return json.dumps(trimmed, indent=2, sort_keys=True) + "\n"


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """Wall-clock regressions of ``current`` vs ``baseline``.

    Returns human-readable failure lines for every benchmark whose wall
    time exceeded ``max_regression`` x the baseline's.  Benchmarks
    present on only one side are skipped (suite composition changes are
    reviewed in the diff, not gated here), but a schema mismatch is an
    immediate failure — the numbers would not be comparable.
    """
    if max_regression <= 0:
        raise ValueError(f"max_regression must be positive: {max_regression}")
    if current.get("schema_version") != baseline.get("schema_version"):
        return [
            "schema_version mismatch: current="
            f"{current.get('schema_version')} "
            f"baseline={baseline.get('schema_version')}"
        ]
    failures: List[str] = []
    for group in ("micro", "macro"):
        current_walls = current.get("wall", {}).get(group, {})
        baseline_walls = baseline.get("wall", {}).get(group, {})
        for name in sorted(current_walls):
            if name not in baseline_walls:
                continue
            new_s = float(current_walls[name]["wall_s"])
            old_s = float(baseline_walls[name]["wall_s"])
            if old_s <= 0:
                continue
            ratio = new_s / old_s
            if ratio > max_regression:
                failures.append(
                    f"{group}:{name} regressed {ratio:.2f}x "
                    f"(baseline {old_s:.4f}s -> current {new_s:.4f}s, "
                    f"limit {max_regression:.2f}x)"
                )
    return failures
