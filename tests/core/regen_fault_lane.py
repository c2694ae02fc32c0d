#!/usr/bin/env python
"""Regenerate (or check) the fault-lane and KV data-path fixture.

``tests/core/fixtures/fault_lane_parent.json`` pins what the per-fault /
per-flush path produces on one ~3,000-op zipfian trace workload, across
every configuration that path serves: each victim policy with the
background copier on and off, the section 5.4 hardware counter, the
section 7 sub-page tracker (replayed through ``run_ops``), runs under
injected SSD write failures and delays (traced, untraced, and with the
SSD's fault hook attached only for a window of ops, so both sides of
the flusher's per-submission hook read are pinned), and a run whose
battery degrades mid-stream (``retune_for_battery`` shrinks the budget
and drains).  Per scenario it records the runtime's ``stats.summary()``,
the MMU/TLB/SSD counters, the final virtual clock and a sha256 over
every durable page, so any change to *which* pages get flushed *when*
shows up here.

The ``kv/*`` scenarios pin the KV data path — the store's operations
over the system's single-page lane — on small YCSB runs: A at an 11%
budget on ``Viyojit`` and ``HardwareViyojit``, C on the full-battery
baseline, F (read-modify-write) and E (the ordered store, with scans).  Each records the store and heap counters, the
MMU/TLB counters, the clock, every latency histogram bucket, and sha256s
of the region and (where there is one) the backing store.

The fixture was generated by the implementation that preceded the
current fault lane and access lane (the sub-page scenario replayed per
op, since that implementation's batched path skipped block accounting);
both lanes were rewritten for speed only, so they must reproduce the
file byte for byte (``tests/core/test_fault_lane.py``)::

    PYTHONPATH=src python tests/core/regen_fault_lane.py           # rewrite
    PYTHONPATH=src python tests/core/regen_fault_lane.py --check   # exit 1 on drift

Only regenerate after an *intentional* change to the modelled design, and
say in the commit which scenarios moved and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from dataclasses import asdict
from typing import Dict, Optional

from repro.bench.runner import ExperimentScale, YCSBRunner
from repro.core.config import ViyojitConfig
from repro.core.finegrain import FineGrainViyojit
from repro.core.policies import POLICY_NAMES
from repro.core.runtime import (
    FullBatteryNVDRAM,
    HardwareViyojit,
    NVDRAMSystem,
    Viyojit,
)
from repro.faults.harness import build_faulted_run, replay_until_cut
from repro.faults.injector import FaultInjector
from repro.faults.plan import BatteryDegradationStep, FaultPlan, SSDFaultRule
from repro.obs.export import events_to_rows
from repro.obs.harness import TraceWorkload, build_system, replay_ops
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import Simulation
from repro.storage.ssd import SSD
from repro.workloads.ycsb import YCSB_WORKLOADS

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "fault_lane_parent.json"

#: The one workload every scenario replays: a 12-page budget over a
#: 128-page hot set keeps the fault handler, sync evictions and the
#: background copier all busy.
SPEC = TraceWorkload(
    system="viyojit",
    num_pages=192,
    dirty_budget_pages=12,
    hot_pages=128,
    ops=3_000,
    seed=11,
)

SSD_FAULT_PLAN = FaultPlan(
    seed=5,
    ssd_rules=(
        SSDFaultRule(op="write", fail_prob=0.05, delay_prob=0.1,
                     delay_ns=200_000, fail_every=17),
    ),
)

BATTERY_PLAN = FaultPlan(
    battery_steps=(
        BatteryDegradationStep(at_ns=4_000_000, fraction=0.4),
        BatteryDegradationStep(at_ns=12_000_000, fraction=0.5),
    ),
)


#: The KV scenarios' scale: small enough for tier-1, large enough that the
#: 11% budget sync-evicts and the 64-entry TLB misses.
KV_SCALE = ExperimentScale(record_count=800, operation_count=2_500)
KV_BUDGET_FRACTION = 0.11


def _backing_sha256(system: Viyojit) -> str:
    digest = hashlib.sha256()
    for pfn in range(system.region.num_pages):
        data = system.backing.read(pfn)
        if data is not None:
            digest.update(f"{pfn}:{system.backing.version(pfn)}:".encode())
            digest.update(data)
    return digest.hexdigest()


def _substrate_counters(system: NVDRAMSystem) -> Dict[str, object]:
    return {
        "mmu": {
            "read_accesses": system.mmu.read_accesses,
            "write_accesses": system.mmu.write_accesses,
            "faults": system.mmu.faults,
        },
        "tlb": {
            "hits": system.tlb.hits,
            "misses": system.tlb.misses,
            "flushes": system.tlb.flushes,
            "single_invalidations": system.tlb.single_invalidations,
            "capacity_evictions": system.tlb.capacity_evictions,
        },
    }


def _observe(sim: Simulation, system: Viyojit, tracer=None) -> Dict[str, object]:
    out: Dict[str, object] = {
        "stats": system.stats.summary(),
        **_substrate_counters(system),
        "ssd": {
            "writes": system.ssd.stats.writes,
            "bytes_written": system.ssd.stats.bytes_written,
        },
        "now_ns": sim.now,
        "budget_pages": system.dirty_budget_pages,
        "backing_sha256": _backing_sha256(system),
    }
    if tracer is not None:
        rows = json.dumps(events_to_rows(tracer.events), sort_keys=True)
        out["events"] = len(tracer.events)
        out["events_sha256"] = hashlib.sha256(rows.encode()).hexdigest()
    return out


def _region_sha256(system: NVDRAMSystem) -> str:
    digest = hashlib.sha256()
    for pfn, version in system.region.touched_pages():
        digest.update(f"{pfn}:{version}:".encode())
        digest.update(system.region.page_bytes(pfn))
    return digest.hexdigest()


def _run_kv(workload: str, cls) -> Dict[str, object]:
    """One YCSB run through ``BatchedSession`` at :data:`KV_SCALE`."""
    spec = YCSB_WORKLOADS[workload]
    sim = Simulation()
    if cls is FullBatteryNVDRAM:
        system = cls(sim, num_pages=KV_SCALE.region_pages, machine=KV_SCALE.machine())
    else:
        budget = KV_SCALE.budget_pages_for_fraction(KV_BUDGET_FRACTION)
        system = cls(
            sim,
            num_pages=KV_SCALE.region_pages,
            config=ViyojitConfig(dirty_budget_pages=budget),
            ssd=SSD(),
            machine=KV_SCALE.machine(),
        )
    system.start()
    runner = YCSBRunner(sim, system, KV_SCALE, ordered=spec.scan_proportion > 0)
    runner.load_batched()
    result = runner.run_batched(spec)
    heap = runner.store.heap.stats
    out: Dict[str, object] = {
        "kvstore": asdict(runner.store.stats),
        "heap": {
            "allocs": heap.allocs,
            "frees": heap.frees,
            "bytes_requested": heap.bytes_requested,
            "bytes_allocated": heap.bytes_allocated,
        },
        **_substrate_counters(system),
        "now_ns": sim.now,
        "elapsed_ns": result.elapsed_ns,
        "histograms": {
            kind: {
                "buckets": sorted(hist._buckets.items()),
                "count": hist.count,
                "sum_ns": hist._sum_ns,
                "min_ns": hist.min_ns,
                "max_ns": hist.max_ns,
            }
            for kind, hist in sorted(result.histograms.items())
        },
        "region_sha256": _region_sha256(system),
    }
    if isinstance(system, Viyojit):
        out["stats"] = system.stats.summary()
        out["ssd_bytes_written"] = system.ssd.stats.bytes_written
        out["backing_sha256"] = _backing_sha256(system)
    return out


def _run_system(cls, **config) -> Dict[str, object]:
    """:data:`SPEC`'s op stream in whole batches, then a drain."""
    sim = Simulation()
    system = cls(
        sim,
        num_pages=SPEC.num_pages,
        config=ViyojitConfig(dirty_budget_pages=SPEC.dirty_budget_pages, **config),
    )
    system.start()
    mapping = system.mmap(SPEC.hot_pages * system.region.page_size)
    for _ in replay_ops(system, mapping.base_addr, SPEC):
        pass
    system.drain()
    return _observe(sim, system)


def _injected(injector: FaultInjector, system: Viyojit) -> Dict[str, object]:
    return {
        "ssd_failures": injector.injected_failures,
        "ssd_delays": injector.injected_delays,
        "battery_degradations": injector.battery_degradations,
        "flush_retries": system.flusher.retries,
        "eviction_flush_failures": system.eviction_flush_failures,
    }


def _run_plan(plan: FaultPlan, traced: bool = True) -> Dict[str, object]:
    bundle = build_faulted_run(SPEC, plan, None if traced else NULL_TRACER)
    replay_until_cut(bundle)
    out = _observe(bundle.sim, bundle.system, bundle.tracer if traced else None)
    out["injected"] = _injected(bundle.injector, bundle.system)
    return out


def _run_hook_window(
    plan: FaultPlan, attach_after: int, detach_after: int
) -> Dict[str, object]:
    """Untraced replay with ``plan``'s SSD hook armed for a window of ops.

    The hook is attached once ``attach_after`` ops have run and detached
    after ``detach_after``, so submissions before, inside and after the
    window each take their own side of the hook check.
    """
    sim = Simulation()
    system = build_system(sim, SPEC)
    mapping = system.mmap(SPEC.hot_pages * system.region.page_size)
    injector = FaultInjector(plan, sim)
    for done in replay_ops(system, mapping.base_addr, SPEC, per_op=True):
        if done == attach_after:
            injector.attach(ssd=system.ssd)
        elif done == detach_after:
            injector.detach()
    system.drain()
    out = _observe(sim, system)
    out["injected"] = _injected(injector, system)
    return out


def scenarios() -> Dict[str, Dict[str, object]]:
    out: Dict[str, Dict[str, object]] = {}
    for policy in POLICY_NAMES:
        for proactive in (True, False):
            name = f"viyojit/{policy}/{'proactive' if proactive else 'sync-only'}"
            out[name] = _run_system(
                Viyojit, victim_policy=policy, proactive=proactive
            )
    out["hardware"] = _run_system(HardwareViyojit)
    out["finegrain"] = _run_system(FineGrainViyojit)
    out["fault-plan/ssd-fail-delay"] = _run_plan(SSD_FAULT_PLAN)
    out["fault-plan/ssd-fail-delay/untraced"] = _run_plan(
        SSD_FAULT_PLAN, traced=False
    )
    out["fault-plan/ssd-hook-window"] = _run_hook_window(
        SSD_FAULT_PLAN, attach_after=1_000, detach_after=2_000
    )
    out["fault-plan/battery-retune"] = _run_plan(BATTERY_PLAN)
    out["kv/ycsb-a/viyojit"] = _run_kv("YCSB-A", Viyojit)
    out["kv/ycsb-a/hardware"] = _run_kv("YCSB-A", HardwareViyojit)
    out["kv/ycsb-c/nvdram"] = _run_kv("YCSB-C", FullBatteryNVDRAM)
    out["kv/ycsb-f/viyojit"] = _run_kv("YCSB-F", Viyojit)
    out["kv/ycsb-e/viyojit"] = _run_kv("YCSB-E", Viyojit)
    return out


def render() -> str:
    document = {"workload": SPEC.as_meta(), "scenarios": scenarios()}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare with the committed fixture instead of rewriting it",
    )
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        if not FIXTURE.exists() or FIXTURE.read_text(encoding="utf-8") != text:
            print(f"{FIXTURE} does not match a fresh run", file=sys.stderr)
            return 1
        print(f"{FIXTURE} matches ({len(text)} bytes)")
        return 0
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
