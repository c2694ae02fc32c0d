"""The one executor's contract: it is the per-op loop, minus wall time.

``run_workload`` executes through :class:`BatchedSession`; the per-op
oracle (``tests/bench/reference_runner.py``) executes one ``KVStore``
call at a time.  Both must produce exactly the same simulated results —
same simulated clock, same stats, same flush traffic, same latency
histograms — for every workload, both systems, and both op-stream
sources (generator batches and a compiled stream).  The monkeypatch-off
chain additionally pins that the executor composes with the substrate
fast-path deoptimizations: with every fast path disabled, all of them
still agree.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import run_workload
from repro.workloads.ycsb import YCSB_WORKLOADS

from tests.bench.reference_runner import run_workload_per_op
from tests.perf.test_sim_invisibility import (
    SCALE,
    _compiled,
    _disable_fast_paths,
    _snapshot,
)

#: YCSB-E (scans) binds the ordered store's methods into the same loop.
WORKLOADS = ("YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-E", "YCSB-F")


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("budget_fraction", [0.175, None],
                         ids=["viyojit", "nvdram"])
def test_batched_equals_per_op(name, budget_fraction):
    spec = YCSB_WORKLOADS[name]
    per_op = _snapshot(run_workload_per_op(spec, SCALE, budget_fraction))
    batched = _snapshot(run_workload(spec, SCALE, budget_fraction))
    compiled = _snapshot(
        run_workload(spec, SCALE, budget_fraction, compiled=_compiled(spec))
    )
    assert per_op == batched == compiled


@pytest.mark.parametrize("budget_fraction", [0.175, None],
                         ids=["viyojit", "nvdram"])
def test_batched_is_simulation_invisible_when_deoptimized(
    monkeypatch, budget_fraction
):
    spec = YCSB_WORKLOADS["YCSB-A"]
    optimized = _snapshot(run_workload(spec, SCALE, budget_fraction))
    _disable_fast_paths(monkeypatch)
    deopt_batched = _snapshot(run_workload(spec, SCALE, budget_fraction))
    deopt_compiled = _snapshot(
        run_workload(spec, SCALE, budget_fraction, compiled=_compiled(spec))
    )
    deopt_per_op = _snapshot(run_workload_per_op(spec, SCALE, budget_fraction))
    assert optimized == deopt_batched == deopt_compiled == deopt_per_op
