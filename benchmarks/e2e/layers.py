"""Short isolated drives of single layers, through their public calls.

Each returns one host number and takes well under a second.  They exist
for the layers a workload's driver loop cannot see inside: what one MMU
access, one epoch scan, one SSD submission and one simulation event cost
the host, so a workload's wall time can be read as counts x unit costs.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from typing import Optional

import adapters as A
from common import wall


def mem_access_ns(rounds: int = 20_000) -> float:
    """Host ns per read or write of a TLB-hot, unprotected page."""
    spec = A.TraceWorkload(system="nvdram", num_pages=64, hot_pages=8)
    system = A.build_system(A.Simulation(), spec)
    addr = system.mmap(system.region.page_size).base_addr
    payload = b"\x5a" * 8
    system.write(addr, payload)  # fills the TLB entry and sets its dirty bit
    read, write = system.read, system.write
    started = wall()
    for _ in range(rounds):
        write(addr, payload)
        read(addr, 8)
    return (wall() - started) / (2 * rounds) * 1e9


def mem_epoch_scan_us(
    region_pages: int, dirty_pages_per_epoch: int, rounds: int = 40
) -> float:
    """Median host us of ``MMU.epoch_scan()`` at a workload's size and density.

    Before each timed scan, ``dirty_pages_per_epoch`` distinct pages are
    written (untimed) so the scan finds the workload's typical number of
    dirty bits to read and clear.
    """
    spec = A.TraceWorkload(
        system="nvdram", num_pages=region_pages, hot_pages=region_pages
    )
    system = A.build_system(A.Simulation(), spec)
    page_size = system.region.page_size
    base = system.mmap(region_pages * page_size).base_addr
    dirty = max(0, min(dirty_pages_per_epoch, region_pages))
    stride = max(1, region_pages // max(1, dirty))
    samples = []
    for _ in range(rounds):
        for index in range(dirty):
            system.write(base + (index * stride % region_pages) * page_size, b"d")
        started = wall()
        system.mmu.epoch_scan()
        samples.append(wall() - started)
    return statistics.median(samples) * 1e6


def storage_submit_us(
    size_bytes: int = 4096, gap_ns: int = 10_000, rounds: int = 20_000
) -> float:
    """Host us per ``SSD.submit_write`` of one page, submissions ``gap_ns`` apart."""
    ssd = A.SSD()
    submit = ssd.submit_write
    started = wall()
    for index in range(rounds):
        submit(index * gap_ns, size_bytes)
    return (wall() - started) / rounds * 1e6


def sim_event_us(rounds: int = 20_000) -> float:
    """Host us per event: one ``schedule_after`` plus its share of ``run_until``."""
    sim = A.Simulation()
    fired = [0]

    def action() -> None:
        fired[0] += 1

    started = wall()
    for index in range(rounds):
        sim.schedule_after(index * 10 + 1, action)
    count = sim.run_until(rounds * 10 + 1)
    elapsed = wall() - started
    if count != rounds or fired[0] != rounds:
        raise RuntimeError(f"event drive fired {count} of {rounds} events")
    return elapsed / rounds * 1e6


def ops_open_ms(stream) -> float:
    """Host ms to ``save_ops`` a compiled stream and ``open_ops(verify=True)`` it."""
    with tempfile.TemporaryDirectory(prefix="e2e-ops-") as directory:
        path = os.path.join(directory, "stream.ops")
        started = wall()
        A.save_ops(stream, path)
        A.open_ops(path, verify=True)
        return (wall() - started) * 1e3


def dirty_pages_per_epoch(counts) -> int:
    """A workload's typical new dirty pages per epoch (0 with no epochs)."""
    epochs: Optional[float] = counts.get("core.epochs")
    faults: Optional[float] = counts.get("core.write_faults")
    if not epochs or not faults:
        return 0
    return round(faults / epochs)
