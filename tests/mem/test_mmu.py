"""Unit tests for the MMU: faults, dirty-bit side effects, scan costs.

The probes are checked against the method-call reference forms of
``tests/mem/reference_mmu.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU, HardwareAssistedMMU
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB

from tests.mem.reference_mmu import ReferenceMMU


@pytest.fixture
def build_mmu(page_table_cls, tlb_cls):
    def build(num_pages=32, hardware=False, machine=None):
        machine = machine if machine is not None else MachineModel()
        cls = HardwareAssistedMMU if hardware else MMU
        return cls(
            page_table_cls(num_pages),
            tlb_cls(num_pages, machine.tlb_entries),
            machine,
        )

    return build


class TestReadAccess:
    def test_read_never_faults_even_when_protected(self, build_mmu):
        mmu = build_mmu()
        assert mmu.page_table.is_write_protected(0)
        assert mmu.read_cost(0) >= 0
        assert mmu.faults == 0
        assert mmu.read_accesses == 1

    def test_read_charges_dram_plus_miss(self, build_mmu):
        mmu = build_mmu()
        expected = mmu.machine.dram_access_cost_ns + mmu.machine.tlb_miss_cost_ns
        assert mmu.read_cost(0) == expected

    def test_second_read_is_cheaper(self, build_mmu):
        mmu = build_mmu()
        first = mmu.read_cost(0)
        second = mmu.read_cost(0)
        assert second < first
        assert second == mmu.machine.dram_access_cost_ns


class TestWriteAccess:
    def test_write_to_protected_page_faults(self, build_mmu):
        mmu = build_mmu()
        assert mmu.write_probe(0) < 0
        assert mmu.faults == 1

    def test_faulted_write_does_not_set_dirty(self, build_mmu):
        mmu = build_mmu()
        mmu.write_probe(0)
        assert not mmu.page_table.is_dirty(0)
        assert not mmu.page_table.is_shadow_dirty(0)

    def test_write_after_unprotect_succeeds_and_dirties(self, build_mmu):
        mmu = build_mmu()
        mmu.unprotect_page(0)
        assert mmu.write_probe(0) >= 0
        assert mmu.page_table.is_dirty(0)
        assert mmu.page_table.is_shadow_dirty(0)
        assert mmu.tlb._entries[0] is True  # the dirty flag is cached

    def test_repeat_write_does_not_redirty(self, build_mmu):
        """The TLB caches the dirty flag; later writes skip the PTE."""
        mmu = build_mmu()
        mmu.unprotect_page(0)
        mmu.write_probe(0)
        # Clear the PTE bit behind the TLB's back: a store through the
        # cached dirty translation must not set it again.
        mmu.page_table.scan_and_clear_dirty()
        assert mmu.write_probe(0) == mmu.machine.dram_access_cost_ns
        assert not mmu.page_table.is_dirty(0)

    def test_write_after_scan_redirties_only_with_flush(self, build_mmu):
        """The stale-dirty-bit mechanism of section 6.3."""
        mmu = build_mmu()
        mmu.unprotect_page(0)
        mmu.write_probe(0)

        # Scan WITHOUT a TLB flush: translation keeps its cached dirty
        # flag, so the next write leaves the PTE clean (stale view).
        mmu.epoch_scan(flush_tlb=False)
        mmu.write_probe(0)
        assert not mmu.page_table.is_dirty(0)

        # Scan WITH a flush: the write re-marks the PTE.
        mmu.epoch_scan(flush_tlb=True)
        mmu.write_probe(0)
        assert mmu.page_table.is_dirty(0)


def _reference(mmu, hardware=False):
    """A :class:`ReferenceMMU` over a fresh pair shaped like ``mmu``'s."""
    return ReferenceMMU(
        PageTable(mmu.page_table.num_pages),
        TLB(mmu.tlb.num_pages, mmu.tlb.capacity),
        mmu.machine,
        hardware=hardware,
    )


class TestWriteProbe:
    """The int probe, and its negative fault encoding."""

    def test_probe_matches_access_on_success(self, build_mmu):
        mmu = build_mmu()
        mmu.unprotect_page(0)
        probed = mmu.write_probe(0)
        assert probed >= 0
        reference = _reference(mmu)
        reference.unprotect_page(0)
        outcome = reference.write_access(0)
        assert (probed, outcome.faulted, outcome.newly_dirtied) == (
            outcome.cost_ns, False, True
        )

    def test_probe_encodes_fault_as_negative(self, build_mmu):
        mmu = build_mmu()
        probed = mmu.write_probe(0)
        assert probed < 0
        # The encoding round-trips: cost = -(probed + 1).
        outcome = _reference(mmu).write_access(0)
        assert outcome.faulted
        assert -(probed + 1) == outcome.cost_ns
        assert mmu.faults == 1

    def test_repeated_probes_on_faulted_page_keep_faulting(self, build_mmu):
        """An already-faulted page is not sticky state: every probe on a
        still-protected page re-faults with the same negative encoding."""
        mmu = build_mmu()
        first = mmu.write_probe(0)
        second = mmu.write_probe(0)
        third = mmu.write_probe(0)
        assert first < 0
        # Retries hit a now-resident translation: same fault, cheaper walk.
        expected_retry = -(mmu.machine.dram_access_cost_ns) - 1
        assert second == third == expected_retry
        assert mmu.faults == 3
        assert not mmu.page_table.is_dirty(0)

    def test_probe_after_fault_resolution_succeeds(self, build_mmu):
        mmu = build_mmu()
        assert mmu.write_probe(5) < 0
        mmu.unprotect_page(5)
        assert mmu.write_probe(5) >= 0
        assert mmu.page_table.is_dirty(5)

    def test_hardware_probe_negative_encoding_on_faulted_page(self, build_mmu):
        """Hardware mode still faults on flusher-protected pages; the
        probe must not touch the dirty counter on that path."""
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        mmu.protect_page(5)
        first = mmu.write_probe(5)
        second = mmu.write_probe(5)
        assert first < 0 and second < 0
        assert mmu.faults == 2
        assert mmu.dirty_counter == 0


_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "protect", "unprotect", "scan", "clean"]),
        # Mostly a few pages, so that four TLB entries see hits, clean
        # re-touches and evictions; and one frame past each end of the
        # 12-page table: the inlined bounds checks must raise exactly
        # where the canonical ones do.
        st.one_of(st.integers(0, 5), st.integers(-1, 12)),
        # ``scan``: flush the TLB first.  ``write`` on the hardware MMU:
        # the ``on_new_dirty`` hook flushes the TLB, as an epoch that
        # fires inside the budget interrupt would.
        st.booleans(),
    ),
    max_size=60,
)


def _outcome(call, *args):
    """``call(*args)``'s result, or ``IndexError`` if it raised one."""
    try:
        return call(*args)
    except IndexError:
        return IndexError


@settings(max_examples=500, deadline=None)
@given(hardware=st.booleans(), steps=_STEPS)
def test_inlined_probes_match_canonical_accesses(hardware, steps):
    """``read_cost``/``write_probe`` inline the TLB lookup and the PTE
    updates, and ``protect_page``/``unprotect_page`` inline the page
    table's bit toggle and the TLB shootdown; step for step they must
    leave exactly the state (costs, counters, LRU order, cached dirty
    flags, PTE bits and their popcounts) that the reference's
    ``read_access``/``write_access`` and method-call toggles leave.

    On the hardware MMU the dirty counter, the shadow bits and the order
    and timing of the ``on_new_dirty`` calls (what each call saw) must
    match too, including across ``page_cleaned`` and a hook that drops
    the translation before the dirty flag would be cached."""
    machine = MachineModel(tlb_entries=4)
    fast = (HardwareAssistedMMU if hardware else MMU)(
        PageTable(12), TLB(12, machine.tlb_entries), machine
    )
    canonical = ReferenceMMU(
        PageTable(12), TLB(12, machine.tlb_entries), machine, hardware=hardware
    )
    calls = {id(fast): [], id(canonical): []}
    flush_in_hook = False

    def recording_hook(mmu):
        def on_new_dirty(pfn):
            pt = mmu.page_table
            calls[id(mmu)].append(
                (pfn, pt.is_dirty(pfn), pt.is_shadow_dirty(pfn),
                 mmu.dirty_counter, pfn in mmu.tlb)
            )
            if flush_in_hook:
                mmu.tlb.flush_all()

        return on_new_dirty

    if hardware:
        fast.on_new_dirty = recording_hook(fast)
        canonical.on_new_dirty = recording_hook(canonical)

    def state(mmu):
        pt, tlb = mmu.page_table, mmu.tlb
        return (
            mmu.read_accesses, mmu.write_accesses, mmu.faults,
            getattr(mmu, "dirty_counter", 0), calls[id(mmu)],
            tlb.hits, tlb.misses, tlb.capacity_evictions,
            tlb.single_invalidations, tlb.flushes,
            list(tlb._entries.items()),
            pt.write_protected.tolist(), pt.dirty.tolist(),
            pt.shadow_dirty.tolist(), pt.dirty_count, pt.shadow_dirty_count,
        )

    for op, pfn, flag in steps:
        if op == "read":
            assert _outcome(fast.read_cost, pfn) == _outcome(
                lambda p: canonical.read_access(p).cost_ns, pfn
            )
        elif op == "write":
            flush_in_hook = flag
            assert _outcome(fast.write_probe, pfn) == _outcome(
                canonical.write_probe, pfn
            )
        elif op == "scan":
            assert fast.epoch_scan(flag)[0].tolist() == (
                canonical.epoch_scan(flag)[0].tolist()
            )
        elif op == "clean":
            if hardware:
                assert _outcome(fast.page_cleaned, pfn) == _outcome(
                    canonical.page_cleaned, pfn
                )
        else:
            method = f"{op}_page"
            assert _outcome(getattr(fast, method), pfn) == _outcome(
                getattr(canonical, method), pfn
            )
        assert state(fast) == state(canonical)


class TestProtectionOps:
    def test_protect_page_invalidates_tlb(self, build_mmu):
        mmu = build_mmu()
        mmu.unprotect_page(3)
        mmu.write_probe(3)
        assert 3 in mmu.tlb
        mmu.protect_page(3)
        assert 3 not in mmu.tlb

    def test_protect_cost(self, build_mmu):
        mmu = build_mmu()
        assert mmu.protect_page(0) == mmu.machine.pte_update_cost_ns
        assert mmu.unprotect_page(0) == mmu.machine.pte_update_cost_ns


class TestEpochScan:
    def test_scan_reports_updated_pages(self, build_mmu):
        mmu = build_mmu()
        for pfn in (1, 4, 9):
            mmu.unprotect_page(pfn)
            mmu.write_probe(pfn)
        updated, _cost = mmu.epoch_scan()
        assert sorted(updated.tolist()) == [1, 4, 9]

    def test_scan_cost_includes_flush(self, build_mmu):
        mmu = build_mmu()
        _updated, with_flush = mmu.epoch_scan(flush_tlb=True)
        _updated, without = mmu.epoch_scan(flush_tlb=False)
        assert with_flush > without

    def test_mismatched_sizes_rejected(self, page_table_cls, tlb_cls):
        machine = MachineModel()
        with pytest.raises(ValueError):
            MMU(page_table_cls(8), tlb_cls(16, machine.tlb_entries), machine)


class TestHardwareAssistedMMU:
    def test_no_fault_on_unprotected_first_write(self, build_mmu):
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        assert mmu.write_probe(0) >= 0
        assert mmu.dirty_counter == 1

    def test_counter_counts_unique_pages_only(self, build_mmu):
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        mmu.write_probe(0)
        mmu.write_probe(0)
        mmu.write_probe(1)
        assert mmu.dirty_counter == 2

    def test_on_new_dirty_fires_before_commit(self, build_mmu):
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        observed = []
        mmu.on_new_dirty = lambda pfn: observed.append(
            (pfn, mmu.page_table.is_shadow_dirty(pfn), mmu.dirty_counter)
        )
        mmu.write_probe(7)
        # At hook time the shadow bit was still clear and counter not bumped.
        assert observed == [(7, False, 0)]

    def test_page_cleaned_decrements(self, build_mmu):
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        mmu.write_probe(0)
        mmu.page_cleaned(0)
        assert mmu.dirty_counter == 0
        assert not mmu.page_table.is_shadow_dirty(0)

    def test_page_cleaned_idempotent(self, build_mmu):
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        mmu.write_probe(0)
        mmu.page_cleaned(0)
        mmu.page_cleaned(0)
        assert mmu.dirty_counter == 0

    def test_still_faults_on_protected_page(self, build_mmu):
        """The flusher protects pages mid-IO even in hardware mode."""
        mmu = build_mmu(hardware=True)
        mmu.unprotect_all()
        mmu.protect_page(5)
        assert mmu.write_probe(5) < 0
        assert mmu.dirty_counter == 0
