"""Unit tests for the backing store's version semantics."""

import pytest

from repro.storage.backing_store import BackingStore


class TestBasics:
    def test_empty_store(self):
        store = BackingStore(num_pages=4)
        assert store.read(0) is None
        assert store.version(0) == 0
        assert store.persisted_count() == 0

    def test_persist_and_read(self):
        store = BackingStore(4, page_size=16)
        store.persist(1, b"x" * 16, version=3)
        assert store.read(1) == b"x" * 16
        assert store.version(1) == 3

    def test_wrong_size_rejected(self):
        store = BackingStore(4, page_size=16)
        with pytest.raises(ValueError):
            store.persist(0, b"short", 1)

    def test_out_of_range(self):
        store = BackingStore(4)
        with pytest.raises(IndexError):
            store.read(4)
        with pytest.raises(IndexError):
            store.persist(-1, bytes(4096), 1)

    def test_negative_version(self):
        store = BackingStore(4, page_size=16)
        with pytest.raises(ValueError):
            store.persist(0, bytes(16), -1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BackingStore(0)


class TestVersionOrdering:
    def test_newer_version_wins(self):
        store = BackingStore(4, page_size=4)
        store.persist(0, b"old!", 1)
        store.persist(0, b"new!", 2)
        assert store.read(0) == b"new!"
        assert store.version(0) == 2

    def test_stale_flush_never_regresses(self):
        """A late-arriving stale IO must not clobber newer durable data."""
        store = BackingStore(4, page_size=4)
        store.persist(0, b"newv", 5)
        store.persist(0, b"oldv", 3)
        assert store.read(0) == b"newv"
        assert store.version(0) == 5

    def test_same_version_overwrites(self):
        store = BackingStore(4, page_size=4)
        store.persist(0, b"aaaa", 2)
        store.persist(0, b"bbbb", 2)
        assert store.read(0) == b"bbbb"


class TestHoldsVersion:
    def test_version_zero_always_durable(self):
        """A never-written page is trivially durable (all zeros)."""
        store = BackingStore(4)
        assert store.holds_version(0, 0) is True

    def test_out_of_range_page_rejected_even_at_version_zero(self):
        store = BackingStore(4)
        with pytest.raises(IndexError):
            store.holds_version(99, 0)
        with pytest.raises(IndexError):
            store.holds_version(-1, 1)

    def test_missing_page_not_durable(self):
        store = BackingStore(4)
        assert store.holds_version(0, 1) is False

    def test_holds_at_least(self):
        store = BackingStore(4, page_size=4)
        store.persist(0, b"data", 5)
        assert store.holds_version(0, 5)
        assert store.holds_version(0, 4)
        assert not store.holds_version(0, 6)
