"""Unit tests for the NV-DRAM region's data plane."""

import pytest

from repro.mem.nvdram import NVDRAMRegion


class TestConstruction:
    def test_size(self):
        region = NVDRAMRegion(num_pages=4, page_size=4096)
        assert region.size == 16384

    def test_invalid_page_count(self):
        with pytest.raises(ValueError):
            NVDRAMRegion(0)

    def test_non_power_of_two_page_size(self):
        with pytest.raises(ValueError):
            NVDRAMRegion(4, page_size=1000)


class TestAddressing:
    def test_page_of(self):
        region = NVDRAMRegion(4, page_size=4096)
        assert region.page_of(0) == 0
        assert region.page_of(4095) == 0
        assert region.page_of(4096) == 1

    def test_page_of_out_of_range(self):
        region = NVDRAMRegion(4)
        with pytest.raises(IndexError):
            region.page_of(region.size)

    def test_pages_of_range_single(self):
        region = NVDRAMRegion(4)
        assert list(region.pages_of_range(100, 10)) == [0]

    def test_pages_of_range_spanning(self):
        region = NVDRAMRegion(4)
        assert list(region.pages_of_range(4090, 10)) == [0, 1]

    def test_pages_of_range_empty(self):
        region = NVDRAMRegion(4)
        assert list(region.pages_of_range(0, 0)) == []

    def test_pages_of_range_negative_length(self):
        region = NVDRAMRegion(4)
        with pytest.raises(ValueError):
            region.pages_of_range(0, -1)


class TestReadWrite:
    def test_unwritten_reads_as_zero(self):
        region = NVDRAMRegion(2)
        assert region.read(10, 4) == b"\x00\x00\x00\x00"

    def test_roundtrip(self):
        region = NVDRAMRegion(2)
        region.write(100, b"hello")
        assert region.read(100, 5) == b"hello"

    def test_write_spanning_pages(self):
        region = NVDRAMRegion(2)
        data = bytes(range(20))
        region.write(4090, data)
        assert region.read(4090, 20) == data

    def test_write_out_of_range(self):
        region = NVDRAMRegion(1)
        with pytest.raises(IndexError):
            region.write(4090, b"too long for page")

    def test_read_out_of_range(self):
        region = NVDRAMRegion(1)
        with pytest.raises(IndexError):
            region.read(4000, 200)

    def test_overwrite(self):
        region = NVDRAMRegion(1)
        region.write(0, b"aaaa")
        region.write(2, b"bb")
        assert region.read(0, 4) == b"aabb"


class TestVersions:
    def test_version_bumps_on_write(self):
        region = NVDRAMRegion(2)
        assert region.page_version[0] == 0
        region.write(0, b"x")
        assert region.page_version[0] == 1
        region.write(0, b"y")
        assert region.page_version[0] == 2

    def test_spanning_write_bumps_both(self):
        region = NVDRAMRegion(2)
        region.write(4090, bytes(10))
        assert region.page_version[0] == 1
        assert region.page_version[1] == 1

    def test_touched_pages(self):
        region = NVDRAMRegion(4)
        region.write(0, b"a")
        region.write(2 * 4096, b"b")
        touched = list(region.touched_pages())
        assert touched == [(0, 1), (2, 1)]


class TestPageSnapshots:
    def test_page_bytes_of_untouched(self):
        region = NVDRAMRegion(2)
        assert region.page_bytes(1) == bytes(4096)

    def test_page_bytes_reflects_writes(self):
        region = NVDRAMRegion(2)
        region.write(4096 + 5, b"zz")
        page = region.page_bytes(1)
        assert page[5:7] == b"zz"
        assert len(page) == 4096

    def test_load_page(self):
        region = NVDRAMRegion(2)
        data = bytes([7]) * 4096
        region.load_page(0, data, version=9)
        assert region.page_bytes(0) == data
        assert region.page_version[0] == 9

    def test_load_page_wrong_size(self):
        region = NVDRAMRegion(2)
        with pytest.raises(ValueError):
            region.load_page(0, b"short", 1)

    def test_load_page_rejects_bad_pfn_and_version(self):
        region = NVDRAMRegion(4)
        with pytest.raises(IndexError):
            region.load_page(-1, bytes(4096), 5)
        with pytest.raises(IndexError):
            region.load_page(4, bytes(4096), 5)
        with pytest.raises(ValueError):
            region.load_page(0, bytes(4096), -1)
        assert list(region.touched_pages()) == []
        assert region.page_version == [0, 0, 0, 0]

    def test_load_page_installs_a_frozen_image(self):
        region = NVDRAMRegion(2)
        data = bytearray(b"r" * 4096)
        region.load_page(1, data, version=3)
        data[0] = 0
        assert region._pages[1] == b"r" * 4096
        assert type(region._pages[1]) is bytes

    def test_page_bytes_has_no_side_effects(self):
        region = NVDRAMRegion(2)
        region.write(0, b"live")
        region.page_bytes(0)
        region.page_bytes(1)
        assert type(region._pages[0]) is bytearray
        assert list(region.touched_pages()) == [(0, 1)]

    def test_freeze_installs_the_snapshot_as_the_image(self):
        region = NVDRAMRegion(2)
        region.write(0, b"flush me")
        frozen = region.freeze(0)
        assert frozen[:8] == b"flush me"
        assert region._pages[0] is frozen
        assert region.freeze(0) is frozen  # already frozen: no copy
        with pytest.raises(TypeError):
            region._pages[0][0:1] = b"x"  # type: ignore[index]

    def test_freeze_of_untouched_page_reads_zeros_and_stays_absent(self):
        region = NVDRAMRegion(2)
        assert region.freeze(1) == bytes(4096)
        assert list(region.touched_pages()) == []
        with pytest.raises(IndexError):
            region.freeze(2)

    def test_stores_thaw_a_frozen_page(self):
        region = NVDRAMRegion(2)
        region.write(0, b"aaaa")
        frozen = region.freeze(0)
        region.write(1, b"b")
        assert region.read(0, 4) == b"abaa"
        assert frozen[:4] == b"aaaa"
        frozen = region.freeze(0)
        region.write(2, b"c")
        assert region.read(0, 4) == b"abca"
        assert frozen[:4] == b"abaa"
        assert region.page_version[0] == 3

    def test_page_bytes_out_of_range(self):
        region = NVDRAMRegion(2)
        with pytest.raises(IndexError):
            region.page_bytes(2)
