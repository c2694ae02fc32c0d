"""Unit tests for the simulated page table.

Per-page bit writes are the MMU's (a store sets the dirty and shadow
bits, a toggle the protection bit); the tests make them through an
:class:`MMU` or, to set up state, through the reference forms of
``tests/mem/reference_mmu.py``.
"""

import numpy as np
import pytest

from repro.mem.machine import MachineModel
from repro.mem.mmu import MMU
from repro.mem.tlb import TLB

from tests.mem.reference_mmu import pt_set_dirty


def _mmu(table):
    return MMU(table, TLB(table.num_pages), MachineModel())


class TestConstruction:
    def test_all_pages_start_protected(self, page_table_cls):
        table = page_table_cls(16)
        assert table.protected_count() == 16

    def test_no_dirty_bits_initially(self, page_table_cls):
        table = page_table_cls(16)
        assert not table.dirty.any()
        assert not table.shadow_dirty.any()

    def test_invalid_size_rejected(self, page_table_cls):
        with pytest.raises(ValueError):
            page_table_cls(0)
        with pytest.raises(ValueError):
            page_table_cls(-5)


class TestProtectionBits:
    def test_unprotect_and_protect(self, page_table_cls):
        table = page_table_cls(8)
        table.unprotect(3)
        assert not table.is_write_protected(3)
        _mmu(table).protect_page(3)
        assert table.is_write_protected(3)
        assert table.protected_count() == 8

    def test_protect_all(self, page_table_cls):
        table = page_table_cls(8)
        for pfn in range(8):
            table.unprotect(pfn)
        table.protect_all()
        assert table.protected_count() == 8

    def test_out_of_range_rejected(self, page_table_cls):
        table = page_table_cls(8)
        with pytest.raises(IndexError):
            _mmu(table).protect_page(8)
        with pytest.raises(IndexError):
            table.unprotect(-1)
        with pytest.raises(IndexError):
            table.is_write_protected(100)


class TestDirtyBits:
    def test_set_dirty_sets_shadow_too(self, page_table_cls):
        """A store through a clean translation sets both bits."""
        table = page_table_cls(8)
        mmu = _mmu(table)
        mmu.unprotect_page(2)
        mmu.write_probe(2)
        assert table.is_dirty(2)
        assert table.is_shadow_dirty(2)
        assert table.shadow_dirty[2]

    def test_scan_returns_and_clears(self, page_table_cls):
        table = page_table_cls(8)
        pt_set_dirty(table, 1)
        pt_set_dirty(table, 5)
        updated = table.scan_and_clear_dirty()
        assert sorted(updated.tolist()) == [1, 5]
        assert not table.dirty.any()

    def test_scan_preserves_shadow(self, page_table_cls):
        table = page_table_cls(8)
        pt_set_dirty(table, 1)
        table.scan_and_clear_dirty()
        assert table.shadow_dirty[1]

    def test_scan_counts_walks(self, page_table_cls):
        table = page_table_cls(8)
        table.scan_and_clear_dirty()
        table.scan_and_clear_dirty()
        assert table.walks == 2

    def test_empty_scan(self, page_table_cls):
        table = page_table_cls(8)
        updated = table.scan_and_clear_dirty()
        assert len(updated) == 0
        assert updated.dtype == np.int64 or updated.dtype == np.intp

    def test_clear_shadow(self, page_table_cls):
        table = page_table_cls(8)
        pt_set_dirty(table, 4)
        table.clear_shadow(4)
        assert not table.shadow_dirty[4]
        assert not table.is_shadow_dirty(4)

    def test_dirty_out_of_range(self, page_table_cls):
        table = page_table_cls(8)
        with pytest.raises(IndexError):
            table.is_dirty(9)
        with pytest.raises(IndexError):
            table.clear_shadow(-1)
        with pytest.raises(IndexError):
            _mmu(table).write_probe(9)
