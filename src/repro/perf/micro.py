"""Micro-benchmarks for the simulator's hot paths.

Each benchmark exercises one mechanism in isolation — the write-fault
path, the epoch scan, victim ranking, flusher throughput, and the
TLB-hit fast path — with a fully deterministic workload.  A benchmark
yields:

- ``sim``: facts from one deterministic pass (counters, simulated time).
  Byte-identical across runs; these pin simulator *behavior*.
- ``one_pass``: a closure re-running the identical workload, handed to
  :func:`repro.perf.timer.best_of` for wall timing.  Every pass builds
  fresh state so passes are independent and identically-distributed.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.core.config import ViyojitConfig
from repro.core.history import UpdateHistory
from repro.core.runtime import FullBatteryNVDRAM, Viyojit
from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB
from repro.sim.events import Simulation
from repro.workloads.compiled import compile_workload, open_ops, save_ops
from repro.workloads.ycsb import YCSB_A


@dataclass
class MicroBench:
    """One micro-benchmark: a deterministic ``sim`` section + a timed pass."""

    name: str
    unit: str
    units: int
    sim: Dict[str, object]
    one_pass: Callable[[], object] = field(repr=False)


def _build_viyojit(
    num_pages: int, budget: int, proactive: bool = True
) -> Viyojit:
    sim = Simulation()
    system = Viyojit(
        sim,
        num_pages=num_pages,
        config=ViyojitConfig(dirty_budget_pages=budget, proactive=proactive),
    )
    system.start()
    return system


def bench_write_fault_path(quick: bool) -> MicroBench:
    """Round-robin stores over a working set far above the budget.

    With 8 budget pages and a 128-page working set, nearly every store
    lands on a re-protected page: fault, synchronous eviction, PTE
    unprotect, retry — the full Fig 6 path, every iteration.
    """
    ops = 1_500 if quick else 6_000
    heap_pages = 128

    def one_pass() -> Viyojit:
        system = _build_viyojit(192, budget=8)
        page = system.region.page_size
        mapping = system.mmap(heap_pages * page)
        base = mapping.base_addr
        payload = b"\xabVIYOJIT"
        for index in range(ops):
            system.write(base + (index % heap_pages) * page, payload)
        return system

    system = one_pass()
    sim = {
        "ops": ops,
        "write_faults": system.stats.write_faults,
        "sync_evictions": system.stats.sync_evictions,
        "pages_flushed": system.stats.pages_flushed,
        "sim_elapsed_ns": system.sim.now,
    }
    return MicroBench("write_fault_path", "stores", ops, sim, one_pass)


def bench_epoch_scan(quick: bool) -> MicroBench:
    """Dirty-bit scan + history update over a large page table."""
    scans = 60 if quick else 240
    num_pages = 2_048
    dirty_per_scan = 256

    def one_pass() -> Dict[str, int]:
        machine = MachineModel()
        page_table = PageTable(num_pages)
        mmu = MMU(page_table, TLB(num_pages, machine.tlb_entries), machine)
        mmu.unprotect_all()
        history = UpdateHistory(num_pages, history_epochs=64)
        updated_total = 0
        scan_cost_ns = 0
        for scan in range(scans):
            base = (scan * 97) % (num_pages - dirty_per_scan)
            for pfn in range(base, base + dirty_per_scan, 2):
                page_table.set_dirty(pfn)
            updated, cost = mmu.epoch_scan()
            history.record_scan(updated)
            updated_total += len(updated)
            scan_cost_ns += cost
        return {
            "scans": scans,
            "pages_scanned": scans * num_pages,
            "updated_total": updated_total,
            "scan_cost_ns": scan_cost_ns,
        }

    sim = one_pass()
    return MicroBench("epoch_scan", "scans", scans, sim, one_pass)


def bench_victim_ranking(quick: bool) -> MicroBench:
    """``UpdateHistory.coldest`` over a populated 64-epoch window."""
    rankings = 300 if quick else 1_200
    num_pages = 4_096
    k = 64

    def _populated_history() -> UpdateHistory:
        history = UpdateHistory(num_pages, history_epochs=64)
        for epoch in range(64):
            start = (epoch * 173) % num_pages
            updated = np.sort((start + np.arange(0, 512, 2)) % num_pages)
            history.record_scan(updated.astype(np.int64))
        return history

    def one_pass() -> int:
        history = _populated_history()
        checksum = 0
        for index in range(rankings):
            start = (index * 61) % num_pages
            candidates = np.sort((start + np.arange(768)) % num_pages)
            victims = history.coldest(candidates.astype(np.int64), k)
            checksum = (checksum * 31 + victims[0] + victims[-1]) % (1 << 32)
        return checksum

    checksum = one_pass()
    sim = {
        "rankings": rankings,
        "candidates_per_ranking": 768,
        "k": k,
        "ranking_checksum": checksum,
    }
    return MicroBench("victim_ranking", "rankings", rankings, sim, one_pass)


def bench_flusher_throughput(quick: bool) -> MicroBench:
    """Sustained dirty-page production feeding the background flusher."""
    rounds = 8 if quick else 32
    pages_per_round = 64

    def one_pass() -> Viyojit:
        system = _build_viyojit(768, budget=pages_per_round)
        page = system.region.page_size
        mapping = system.mmap(512 * page)
        base = mapping.base_addr
        payload = b"flushme!"
        for round_index in range(rounds):
            for slot in range(pages_per_round):
                pfn_index = (round_index * pages_per_round + slot) % 512
                system.write(base + pfn_index * page, payload)
            system.sim.run_until(system.sim.now + 50_000_000)
        system.sim.run_until(system.sim.now + 1_000_000_000)
        return system

    system = one_pass()
    sim = {
        "rounds": rounds,
        "pages_flushed": system.stats.pages_flushed,
        "flush_completions": system.stats.flush_completions,
        "bytes_flushed": system.stats.bytes_flushed,
        "sim_elapsed_ns": system.sim.now,
    }
    return MicroBench(
        "flusher_throughput",
        "page flushes",
        int(system.stats.pages_flushed),
        sim,
        one_pass,
    )


def bench_tlb_hot_path(quick: bool) -> MicroBench:
    """Repeated stores+loads to one hot page: the TLB-hit fast path."""
    ops = 40_000 if quick else 120_000

    def one_pass() -> FullBatteryNVDRAM:
        sim = Simulation()
        system = FullBatteryNVDRAM(sim, num_pages=64)
        system.start()
        mapping = system.mmap(16 * system.region.page_size)
        addr = mapping.base_addr
        payload = b"hotpage!"
        for index in range(ops):
            system.write(addr + (index % 256) * 8, payload)
            system.read(addr + (index % 256) * 8, 8)
        return system

    system = one_pass()
    sim = {
        "ops": 2 * ops,
        "tlb_hits": system.tlb.hits,
        "tlb_misses": system.tlb.misses,
        "sim_elapsed_ns": system.sim.now,
    }
    return MicroBench("tlb_hot_path", "accesses", 2 * ops, sim, one_pass)


def bench_compile_stream(quick: bool) -> MicroBench:
    """One-pass YCSB-A compilation into struct-of-arrays form."""
    ops = 50_000 if quick else 200_000
    records = 2_000

    def one_pass() -> str:
        stream = compile_workload(YCSB_A, records, ops)
        return stream.checksum()

    checksum = one_pass()
    sim = {"ops": ops, "records": records, "stream_sha256": checksum}
    return MicroBench("compile_stream", "ops compiled", ops, sim, one_pass)


def bench_ops_roundtrip(quick: bool) -> MicroBench:
    """``.ops`` save + verified memmap reopen + full-array replay scan.

    The stream is compiled once at construction; each pass pays the
    serialization, the checksum verification, and one vectorized pass
    over every section (the aggregation a scale replay performs).
    """
    ops = 50_000 if quick else 200_000
    records = 2_000
    stream = compile_workload(YCSB_A, records, ops)

    def one_pass() -> int:
        with tempfile.TemporaryDirectory(prefix="repro-perf-ops-") as d:
            path = os.path.join(d, "bench.ops")
            save_ops(stream, path)
            reopened = open_ops(path)
            kinds = np.bincount(np.asarray(reopened.codes), minlength=5)
            touched = int(kinds.sum()) + int(
                np.asarray(reopened.key_indices).max()
            )
        return touched

    touched = one_pass()
    sim = {
        "ops": ops,
        "records": records,
        "stream_sha256": stream.checksum(),
        "replay_touched": touched,
    }
    return MicroBench("ops_roundtrip", "ops replayed", ops, sim, one_pass)


#: Suite order is report order.
MICRO_BENCHES: List[Callable[[bool], MicroBench]] = [
    bench_write_fault_path,
    bench_epoch_scan,
    bench_victim_ranking,
    bench_flusher_throughput,
    bench_tlb_hot_path,
    bench_compile_stream,
    bench_ops_roundtrip,
]
