"""The tentpole's core contract: fast paths change wall time ONLY.

Every hot-path optimization — the data-path lane's open-coded TLB hits
and self-contained MMU probes, the event-queue next-due lower bound, and
the vectorized (order-insensitive) victim-candidate materialization —
must be invisible to the simulation: same simulated clocks, same stats,
same flush traffic, same latency histograms, for both systems.  The
deoptimized run swaps every system for one whose MMU is the reference
``ReferenceMMU`` of ``tests/mem/reference_mmu.py`` (the method-call TLB
and page-table forms, sharing no code with the lane's inlined probes)
and whose lane sends each page touch through its
``read_access``/``write_access``, and monkeypatches the other fast
paths off; every simulated quantity must match the optimized run
exactly.
"""

from __future__ import annotations

import pytest

from repro.bench import runner as runner_module
from repro.bench.runner import ExperimentScale, run_workload
from repro.core.runtime import DataPath, FullBatteryNVDRAM, Viyojit
from repro.mem.mmu import MMU
from repro.workloads.compiled import compile_workload
from repro.workloads.ycsb import YCSB_A, YCSB_C

from tests.bench.reference_runner import run_workload_per_op
from tests.mem.reference_mmu import ReferenceMMU, read_page_slice, write_page_slice

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
    for kind, hist in sorted(result.histograms.items()):
        out[f"histogram.{kind}"] = (
            sorted(hist._buckets.items()),
            hist.count,
            hist._sum_ns,
            hist.min_ns,
            hist.max_ns,
        )
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


class CanonicalLane:
    """Mixin: a reference MMU, and a lane of one canonical access per touch.

    The system's MMU is a :class:`ReferenceMMU` over its own page table
    and TLB, so the runtime's PTE toggles, epoch scans and fault retries
    (through ``write_probe``, the int form of ``write_access``) run on
    the reference forms too.  A load is ``read_access``, then
    ``SimClock.advance`` and ``drain_due``; a store is ``write_access``,
    applied with the reference ``write_page_slice`` and followed by
    ``drain_due`` — the ordering rule of ``NVDRAMSystem._touch_write``,
    spelled out.  A faulted store is charged here like a load, then
    handed to the runtime's fault handler as a zero-cost fault.  The
    successful probe is charged without a drain.
    """

    def _build_mmu(self) -> ReferenceMMU:
        return ReferenceMMU(self.page_table, self.tlb, self.machine)

    def _build_lane(self) -> DataPath:
        system = self
        mmu = self.mmu
        region = self.region
        page_size = region.page_size
        sim = self.sim

        def charge(cost_ns: int) -> None:
            sim.clock.advance(cost_ns)
            sim.drain_due()

        def single_page(addr: int, size: int) -> bool:
            return (
                size > 0
                and addr >= 0
                and addr % page_size + size <= page_size
                and addr + size <= region.size
            )

        def read_at(addr: int, size: int):
            if not single_page(addr, size):
                return system.read(addr, size), 0
            pfn = addr // page_size
            charge(mmu.read_access(pfn).cost_ns)
            return read_page_slice(region, pfn, addr % page_size, size), 0

        def write(addr: int, data: bytes) -> None:
            if not single_page(addr, len(data)):
                system.write(addr, data)
                return
            pfn = addr // page_size
            outcome = mmu.write_access(pfn)
            cost = outcome.cost_ns
            if outcome.faulted:
                charge(cost)
                # -1 encodes a faulted probe that costs nothing more.
                cost = system._resolve_fault(pfn, -1)
            sim.clock.advance(cost)
            write_page_slice(region, pfn, addr % page_size, data)
            sim.drain_due()

        return DataPath(write=write, read_at=read_at)


class CanonicalViyojit(CanonicalLane, Viyojit):
    pass


class CanonicalNVDRAM(CanonicalLane, FullBatteryNVDRAM):
    pass


def _refuse(self, pfn):
    raise AssertionError("an inlined probe ran under the canonical oracle")


def _disable_fast_paths(monkeypatch) -> None:
    from repro.core import policies
    from repro.sim.events import EventQueue

    # Every system the runners build takes the canonical lane, and the
    # lane's inlined probes must never be reached around it.
    monkeypatch.setattr(runner_module, "Viyojit", CanonicalViyojit)
    monkeypatch.setattr(runner_module, "FullBatteryNVDRAM", CanonicalNVDRAM)
    monkeypatch.setattr(MMU, "read_cost", _refuse)
    monkeypatch.setattr(MMU, "write_probe", _refuse)
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
    specs = (YCSB_A, YCSB_C)
    optimized = [
        _snapshot(run_workload(spec, SCALE, budget_fraction)) for spec in specs
    ]
    _disable_fast_paths(monkeypatch)
    deoptimized = [
        _snapshot(run_workload(spec, SCALE, budget_fraction)) for spec in specs
    ]
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


def test_canonical_lane_is_engaged(monkeypatch):
    """The oracle bites: under it, every runner system is canonical."""
    _disable_fast_paths(monkeypatch)
    sim, system = runner_module.build_viyojit(SCALE, 0.175)
    assert isinstance(system, CanonicalViyojit)
    assert type(system.mmu) is ReferenceMMU
    assert system.flusher.mmu is system.mmu
    assert system._write_probe == system.mmu.write_probe
    reads = system.mmu.read_accesses
    system.read(system.region.page_size, 8)
    assert system.mmu.read_accesses == reads + 1
    with pytest.raises(AssertionError, match="inlined probe"):
        MMU(system.page_table, system.tlb, system.machine).read_cost(0)
