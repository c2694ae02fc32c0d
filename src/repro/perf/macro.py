"""Macro benchmarks: the YCSB-zipfian workload and the sweep engine.

Replays the same YCSB-A (zipfian) run the figure regenerators use,
against both systems — ``Viyojit`` at the paper's 11%-of-heap budget
point and the ``FullBatteryNVDRAM`` baseline — from both op-stream
sources: ``*_batched`` generates batches as it goes, ``*_compiled``
replays a pre-compiled struct-of-arrays stream (its ``sim`` section must
equal the batched variant's — the report itself re-states the
compilation-is-wall-clock-only invariant).  Two further benches time a
small budget sweep at ``--jobs 1`` and ``--jobs 2``; their ``sim``
sections carry the sweep checksum, which must also agree.
``scale_replay`` times a verified ``.ops`` reopen plus a vectorized
replay of a large stream (ten million ops in full mode).

The simulated results land in the deterministic ``sim`` section; wall
seconds are measured separately with the same best-of-N protocol as the
micro suite, and the headline ratios (compiled vs. batched, 2 workers
vs. 1) are summarized under ``wall.speedups``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.bench.runner import ExperimentScale, RunResult, run_workload
from repro.workloads.compiled import (
    CompiledStream,
    compile_workload,
    open_ops,
    save_ops,
)
from repro.workloads.ycsb import YCSB_A

if TYPE_CHECKING:  # runtime import is deferred: repro.parallel measures
    from repro.parallel.grid import SweepGrid  # wall time via repro.perf

#: The paper's 2 GB-battery point on the 17.5 GB heap axis.
BUDGET_FRACTION = 0.175


@dataclass
class MacroBench:
    """One macro configuration: deterministic results + a timed pass."""

    name: str
    units: int
    sim: Dict[str, object]
    one_pass: Callable[[], object] = field(repr=False)


def _sim_section(result: RunResult) -> Dict[str, object]:
    section: Dict[str, object] = {
        "workload": result.workload,
        "system": result.system_kind,
        "budget_pages": result.budget_pages,
        "ops_executed": result.ops_executed,
        "sim_elapsed_ns": result.elapsed_ns,
        "throughput_kops_sim": round(result.throughput_kops, 3),
        "ssd_bytes_written": result.ssd_bytes_written,
    }
    if result.viyojit_stats is not None:
        stats = dict(result.viyojit_stats)
        stats.pop("dirty_samples", None)
        section["stats"] = stats
    return section


def macro_benches(quick: bool) -> List[MacroBench]:
    """Both systems x both op-stream sources, plus the scaling benches."""
    scale = ExperimentScale(
        record_count=1_500 if quick else 2_000,
        operation_count=4_000 if quick else 16_000,
    )
    stream = compile_workload(
        YCSB_A,
        scale.record_count,
        scale.operation_count,
        value_size=scale.value_size,
        theta=scale.zipf_theta,
        seed=scale.seed,
    )
    benches = []
    for name, budget, compiled in (
        ("viyojit_batched", BUDGET_FRACTION, None),
        ("viyojit_compiled", BUDGET_FRACTION, stream),
        ("nvdram_batched", None, None),
        ("nvdram_compiled", None, stream),
    ):
        benches.append(_one_config(name, scale, budget, compiled))
    grid = _sweep_grid(quick)
    for workers in (1, 2):
        benches.append(_sweep_config(f"sweep_jobs{workers}", grid, workers))
    benches.append(_scale_replay_config(quick))
    return benches


def _one_config(
    name: str,
    scale: ExperimentScale,
    budget: Optional[float],
    compiled: Optional[CompiledStream],
) -> MacroBench:
    def one_pass() -> RunResult:
        return run_workload(YCSB_A, scale, budget, compiled=compiled)

    result = one_pass()
    return MacroBench(
        name=name,
        units=result.ops_executed,
        sim=_sim_section(result),
        one_pass=one_pass,
    )


def _sweep_grid(quick: bool) -> "SweepGrid":
    """The scaling-bench grid: four equal-cost YCSB-A budget points."""
    from repro.parallel.grid import SweepGrid

    return SweepGrid(
        workloads=("YCSB-A",),
        budget_fractions=(0.11, 0.23, 0.46, 0.69),
        record_count=1_000 if quick else 1_500,
        operation_count=3_000 if quick else 8_000,
    )


def _sweep_config(name: str, grid: "SweepGrid", workers: int) -> MacroBench:
    from repro.parallel.engine import run_sweep

    def one_pass() -> dict:
        return run_sweep(grid, jobs=workers)

    report = one_pass()
    units = sum(
        entry["result"]["ops_executed"] for entry in report["jobs"]
    )
    return MacroBench(
        name=name,
        units=units,
        sim={
            "sweep_checksum_sha256": report["checksum_sha256"],
            "jobs": len(report["jobs"]),
        },
        one_pass=one_pass,
    )


def _scale_replay_config(quick: bool) -> MacroBench:
    """Verified reopen + full vectorized replay of a large ``.ops`` file.

    The stream (sampled in quick mode, ten million ops in full mode) is
    compiled and serialized once at construction; each timed pass pays
    the checksum-verified ``np.memmap`` open and one aggregation pass
    over every op — the floor cost of replaying a compiled stream at
    scale without touching the simulator.
    """
    ops = 640_000 if quick else 10_000_000
    records = 20_000
    stream = compile_workload(YCSB_A, records, ops, epochs=8)
    # Held by the closure (the path is rebuilt from it each pass, so the
    # directory stays referenced); the finalizer reclaims it when the
    # bench is garbage-collected.
    tmpdir = tempfile.TemporaryDirectory(prefix="repro-perf-scale-")
    save_ops(stream, os.path.join(tmpdir.name, "scale.ops"))

    def one_pass() -> Dict[str, int]:
        reopened = open_ops(
            os.path.join(tmpdir.name, "scale.ops"), verify=True
        )
        kinds = np.bincount(np.asarray(reopened.codes), minlength=5)
        per_epoch = np.diff(np.asarray(reopened.segment_bounds))
        return {
            "ops": int(kinds.sum()),
            "updates": int(kinds[1]),
            "max_epoch_ops": int(per_epoch.max()),
        }

    facts = one_pass()
    return MacroBench(
        name="scale_replay",
        units=ops,
        sim={
            "ops": ops,
            "records": records,
            "epochs": 8,
            "stream_sha256": stream.checksum(),
            "replay": facts,
        },
        one_pass=one_pass,
    )
