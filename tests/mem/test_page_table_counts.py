"""Cached dirty-bit popcounts stay equivalent to recomputation (S2).

``dirty_count`` / ``shadow_dirty_count`` are maintained incrementally by
the MMU's store (which sets both bits) and the page table's clears;
hypothesis drives arbitrary interleavings of them (and of the
protection toggles) and checks the caches against a fresh
``np.count_nonzero`` after every step, and the public numpy views
against the byte columns they are views of.  The deterministic tests
pin the boundary cases: an empty table (the budget-0 shape, where the
cache must stay exactly zero through scans) and a fully dirty table
(every page's bit set).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU
from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB

NUM_PAGES = 24

#: One class; the ``object`` id keeps test ids stable (see conftest.py).
KERNEL_PARAMS = [pytest.param(PageTable, id="object")]

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["set_dirty", "clear_shadow", "protect", "unprotect"]),
            st.integers(0, NUM_PAGES - 1),
        ),
        st.tuples(
            st.sampled_from(["scan", "protect_all", "unprotect_all"]),
            st.just(0),
        ),
    ),
    max_size=200,
)


class Bits:
    """Per-page bit writes, made as the MMU makes them.

    ``set_dirty`` is a store through a fresh translation to a writable
    page, so it always sets the dirty and shadow bits; ``protect`` and
    ``unprotect`` are the MMU's toggles.
    """

    def __init__(self, table) -> None:
        self.table = table
        self.mmu = MMU(table, TLB(table.num_pages), MachineModel())

    def set_dirty(self, pfn: int) -> None:
        self.mmu.unprotect_page(pfn)
        assert self.mmu.write_probe(pfn) >= 0

    def protect(self, pfn: int) -> None:
        self.mmu.protect_page(pfn)

    def unprotect(self, pfn: int) -> None:
        self.mmu.unprotect_page(pfn)

    def clear_shadow(self, pfn: int) -> None:
        self.table.clear_shadow(pfn)


def _assert_views_match(table) -> None:
    """Each public bool column is a view of its byte column, not a copy."""
    for view, column in (
        (table.write_protected, table._wp_bits),
        (table.dirty, table._dirty_bits),
        (table.shadow_dirty, table._shadow_bits),
    ):
        assert view.dtype == np.bool_
        assert np.shares_memory(view, np.frombuffer(column, dtype=np.uint8))
        assert view.tobytes() == bytes(column)
        assert set(column) <= {0, 1}


def _assert_counts_match(table) -> None:
    _assert_views_match(table)
    assert table.dirty_count == int(np.count_nonzero(table.dirty))
    assert table.shadow_dirty_count == int(
        np.count_nonzero(table.shadow_dirty)
    )


@pytest.mark.parametrize("table_cls", KERNEL_PARAMS)
@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_cached_counts_equal_recomputed(table_cls, ops):
    table = table_cls(NUM_PAGES)
    bits = Bits(table)
    _assert_counts_match(table)
    for name, pfn in ops:
        if name == "scan":
            table.scan_and_clear_dirty()
        elif name in ("protect_all", "unprotect_all"):
            getattr(table, name)()
        else:
            getattr(bits, name)(pfn)
        _assert_counts_match(table)


@pytest.mark.parametrize("table_cls", KERNEL_PARAMS)
def test_bulk_updates_reach_the_byte_columns(table_cls):
    """Vectorized writes through the views land in the bytes the MMU
    reads, and byte writes show through the views."""
    table = table_cls(8)
    bits = Bits(table)
    assert bytes(table._wp_bits) == b"\x01" * 8
    table.unprotect_all()
    assert bytes(table._wp_bits) == bytes(8)
    assert not table.write_protected.any()
    bits.protect(5)
    assert table.write_protected.tolist() == [False] * 5 + [True] + [False] * 2
    table.protect_all()
    assert bytes(table._wp_bits) == b"\x01" * 8
    assert table.protected_count() == 8
    bits.set_dirty(2)
    bits.set_dirty(6)
    assert np.flatnonzero(table.dirty).tolist() == [2, 6]
    assert table.scan_and_clear_dirty().tolist() == [2, 6]
    assert bytes(table._dirty_bits) == bytes(8)
    assert bytes(table._shadow_bits) == bytes([0, 0, 1, 0, 0, 0, 1, 0])
    _assert_counts_match(table)


@pytest.mark.parametrize("table_cls", KERNEL_PARAMS)
def test_counts_start_at_zero_and_track_duplicates(table_cls):
    table = table_cls(8)
    bits = Bits(table)
    assert table.dirty_count == 0
    bits.set_dirty(3)
    bits.set_dirty(3)  # idempotent: no double count
    assert table.dirty_count == 1
    assert table.shadow_dirty_count == 1
    bits.set_dirty(5)
    assert table.dirty_count == 2
    table.scan_and_clear_dirty()
    assert table.dirty_count == 0
    assert table.shadow_dirty_count == 2  # shadow survives the scan
    table.clear_shadow(3)
    table.clear_shadow(3)  # idempotent: no negative count
    assert table.shadow_dirty_count == 1


@pytest.mark.parametrize("table_cls", KERNEL_PARAMS)
def test_counts_on_empty_table_survive_scans(table_cls):
    """The budget-0 shape: nothing ever dirtied, counts pinned at zero."""
    table = table_cls(8)
    for _ in range(3):
        updated = table.scan_and_clear_dirty()
        assert updated.size == 0
        assert table.dirty_count == 0
        assert table.shadow_dirty_count == 0
    _assert_counts_match(table)


@pytest.mark.parametrize("table_cls", KERNEL_PARAMS)
def test_counts_at_full_table_dirty(table_cls):
    """Every page dirty: counts saturate, scan drains them all at once."""
    table = table_cls(NUM_PAGES)
    bits = Bits(table)
    for pfn in range(NUM_PAGES):
        bits.set_dirty(pfn)
    assert table.dirty_count == NUM_PAGES
    assert table.shadow_dirty_count == NUM_PAGES
    _assert_counts_match(table)
    updated = table.scan_and_clear_dirty()
    assert updated.tolist() == list(range(NUM_PAGES))
    assert table.dirty_count == 0
    assert table.shadow_dirty_count == NUM_PAGES
    for pfn in range(NUM_PAGES):
        table.clear_shadow(pfn)
    assert table.shadow_dirty_count == 0
    _assert_counts_match(table)
