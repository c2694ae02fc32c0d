"""One image per clean page: the region and the backing store share it.

A flush freezes the page (``NVDRAMRegion.freeze``) and persists that same
``bytes`` object, so a clean page costs one 4 KiB image of host memory,
not two.  The next store thaws the page with one copy and leaves the
durable image untouched.
"""

import tracemalloc

import pytest

from repro.core.crash import CrashSimulator, viyojit_battery
from repro.core.flusher import FlushFailure
from repro.obs.harness import TraceWorkload, build_system, iter_op_batches
from repro.power.power_model import PowerModel
from repro.sim.events import Simulation
from repro.storage.ssd import SSDFaultError
from tests.conftest import make_hardware_viyojit, make_viyojit
from tests.core.test_finegrain import make_finegrain

PAGE = 4096


SYSTEMS = {
    "viyojit": make_viyojit,
    "hardware": make_hardware_viyojit,
    "finegrain": lambda sim, num_pages, budget: make_finegrain(
        sim, num_pages, budget_pages=budget
    ),
}


def always_fail_hook(op, now_ns, size_bytes):
    raise SSDFaultError(op, now_ns, size_bytes)


def write_pages(system, pages, rounds=3):
    mapping = system.mmap(pages * PAGE)
    for step in range(rounds * pages):
        page = (step * 7) % pages
        addr = mapping.base_addr + page * PAGE + step % 200
        system.write(addr, bytes([step % 251]) * 48)
    return mapping


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_drained_clean_pages_share_the_durable_image(kind):
    system = SYSTEMS[kind](Simulation(), num_pages=256, budget=16)
    write_pages(system, 64)
    system.drain()
    assert system.dirty_count == 0
    touched = list(system.region.touched_pages())
    assert len(touched) == 64
    for pfn, version in touched:
        image = system.region._pages[pfn]
        assert type(image) is bytes
        assert image is system.backing.read(pfn)
        assert system.backing.version(pfn) == version


@pytest.mark.parametrize("kind", sorted(SYSTEMS))
def test_store_after_flush_thaws_and_keeps_the_durable_image(kind):
    system = SYSTEMS[kind](Simulation(), num_pages=64, budget=4)
    mapping = system.mmap(8 * PAGE)
    system.write(mapping.base_addr, b"before")
    system.drain()
    pfn = mapping.base_page
    durable = system.backing.read(pfn)
    version = system.backing.version(pfn)
    assert system.region._pages[pfn] is durable

    system.write(mapping.base_addr, b"after!")
    image = system.region._pages[pfn]
    assert type(image) is bytearray
    assert image[:6] == b"after!"
    assert system.backing.read(pfn) is durable
    assert durable[:6] == b"before"
    assert system.backing.version(pfn) == version
    assert system.region.page_version[pfn] == version + 1


def test_exhausted_flush_leaves_a_frozen_dirty_writable_page(sim):
    system = make_viyojit(sim, num_pages=64, budget=4, proactive=False,
                          max_flush_retries=0)
    model = PowerModel()
    crash = CrashSimulator(system, model, viyojit_battery(model, 4 * PAGE))
    mapping = system.mmap(8 * PAGE)
    system.write(mapping.base_addr, b"a")
    pfn = mapping.base_page
    system.ssd.fault_hook = always_fail_hook
    with pytest.raises(FlushFailure):
        system.flusher.issue(pfn)
    system.ssd.fault_hook = None
    assert type(system.region._pages[pfn]) is bytes
    assert pfn in system.dirty_pages()
    assert system.backing.read(pfn) is None
    assert crash.crash_and_recover().intact

    faults_before = system.mmu.faults
    system.write(mapping.base_addr, b"b")
    assert system.mmu.faults == faults_before
    assert type(system.region._pages[pfn]) is bytearray
    assert system.region.page_bytes(pfn)[:1] == b"b"
    assert crash.crash_and_recover().intact


def test_page_trace_holds_one_image_per_clean_page():
    """4,096 hot pages at a 64-page budget: traced peak < 1.25 x touched pages.

    Two images per flushed page (a region copy and a store copy) would
    put the peak above 2 x.
    """
    spec = TraceWorkload(num_pages=6144, hot_pages=4096, dirty_budget_pages=64,
                         ops=10_000, value_bytes=96, read_every=5, seed=7)
    tracemalloc.start()
    try:
        sim = Simulation()
        system = build_system(sim, spec)
        page_size = system.region.page_size
        base = system.mmap(spec.hot_pages * page_size).base_addr
        for batch in iter_op_batches(spec, page_size):
            addrs = [base + page * page_size + offset
                     for page, offset in zip(batch.pages, batch.offsets)]
            system.run_ops(batch.writes, addrs, batch.payloads)
        system.drain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    touched = sum(1 for _ in system.region.touched_pages())
    assert touched > 1000
    assert peak < 1.25 * touched * page_size, (peak, touched)
