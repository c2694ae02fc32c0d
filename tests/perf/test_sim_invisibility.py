"""The tentpole's core contract: fast paths change wall time ONLY.

Every hot-path optimization in this PR — the TLB hit/hit-dirty probes,
the event-queue next-due lower bound, and the vectorized (order-
insensitive) victim-candidate materialization — must be invisible to the
simulation: same simulated clocks, same stats, same flush traffic, for
both systems.  This test switches all of them off via monkeypatching and
replays the same macro workload; every simulated quantity must match the
optimized run exactly.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import ExperimentScale, run_workload
from repro.workloads.compiled import compile_workload
from repro.workloads.ycsb import YCSB_A

from tests.bench.reference_runner import run_workload_per_op

SCALE = ExperimentScale(record_count=800, operation_count=2_500)


def _snapshot(result) -> dict:
    out = {
        "ops": result.ops_executed,
        "elapsed_ns": result.elapsed_ns,
        "ssd_bytes": result.ssd_bytes_written,
        "stats": result.viyojit_stats,
    }
    for kind, summary in sorted(result.latency.items()):
        out[f"latency.{kind}"] = (summary.count, summary.avg_ms, summary.p99_ms)
    return out


def _compiled(spec):
    """``spec`` at ``SCALE``, lowered to a compiled stream."""
    return compile_workload(
        spec,
        SCALE.record_count,
        SCALE.operation_count,
        value_size=SCALE.value_size,
        theta=SCALE.zipf_theta,
        seed=SCALE.seed,
    )


def _disable_fast_paths(monkeypatch) -> None:
    from repro.core import policies
    from repro.mem.tlb import TLB
    from repro.sim.events import EventQueue

    # TLB probes always miss: every access takes the canonical MMU path.
    monkeypatch.setattr(TLB, "hit", lambda self, pfn: False)
    monkeypatch.setattr(TLB, "hit_dirty", lambda self, pfn: False)
    # The next-due bound always demands a drain attempt.
    # ``next_due_at`` is normally a plain instance attribute; installing
    # a class-level data descriptor overrides it for every queue.
    monkeypatch.setattr(
        EventQueue,
        "next_due_at",
        property(lambda self: 0, lambda self, value: None),
        raising=False,
    )
    # Victim candidates go back to legacy set-iteration materialization.
    for cls in (
        policies.VictimPolicy,
        policies.LeastRecentlyUpdatedPolicy,
        policies.LeastFrequentlyUpdatedPolicy,
        policies.MostRecentlyUpdatedPolicy,
    ):
        monkeypatch.setattr(cls, "order_insensitive", False)


@pytest.mark.parametrize("budget_fraction", [0.175, None],
                         ids=["viyojit", "nvdram"])
def test_fast_paths_are_simulation_invisible(monkeypatch, budget_fraction):
    optimized = _snapshot(run_workload(YCSB_A, SCALE, budget_fraction))
    _disable_fast_paths(monkeypatch)
    deoptimized = _snapshot(run_workload(YCSB_A, SCALE, budget_fraction))
    assert optimized == deoptimized


@pytest.mark.parametrize("budget_fraction", [0.175, None],
                         ids=["viyojit", "nvdram"])
def test_compiled_replay_is_simulation_invisible(monkeypatch, budget_fraction):
    """A compiled stream through the full deopt chain changes nothing.

    The strongest form of the invariant: the per-op oracle on the
    optimized simulator must match compiled-stream execution with every
    fast path switched off.
    """
    reference = _snapshot(run_workload_per_op(YCSB_A, SCALE, budget_fraction))
    _disable_fast_paths(monkeypatch)
    compiled = _snapshot(
        run_workload(YCSB_A, SCALE, budget_fraction, compiled=_compiled(YCSB_A))
    )
    assert compiled == reference
