"""Unit tests for the least-recently-updated history."""

import numpy as np
import pytest

from repro.core.history import UpdateHistory, _popcount


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 0xFF, 2**63], dtype=np.uint64)
        assert _popcount(values).tolist() == [0, 1, 2, 8, 1]

    def test_all_ones(self):
        values = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert _popcount(values).tolist() == [64]


class TestRecordScan:
    def test_epoch_advances(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([0]))
        history.record_scan(np.array([], dtype=np.int64))
        assert history.epoch == 2

    def test_last_update_tracked(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([3]))      # epoch 0
        history.record_scan(np.array([], dtype=np.int64))  # epoch 1
        history.record_scan(np.array([3, 5]))   # epoch 2
        assert history.last_update_epoch(3) == 2
        assert history.last_update_epoch(5) == 2
        assert history.last_update_epoch(0) == -1

    def test_update_count_window(self):
        history = UpdateHistory(8, history_epochs=4)
        for _ in range(3):
            history.record_scan(np.array([1]))
        assert history.update_count(1) == 3

    def test_window_forgets_old_epochs(self):
        history = UpdateHistory(8, history_epochs=2)
        history.record_scan(np.array([1]))
        history.record_scan(np.array([], dtype=np.int64))
        history.record_scan(np.array([], dtype=np.int64))
        assert history.update_count(1) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            UpdateHistory(0)
        with pytest.raises(ValueError):
            UpdateHistory(8, history_epochs=65)
        with pytest.raises(ValueError):
            UpdateHistory(8, history_epochs=0)

    def test_full_64_epoch_window(self):
        history = UpdateHistory(4, history_epochs=64)
        for _ in range(70):
            history.record_scan(np.array([2]))
        assert history.update_count(2) == 64


class TestColdest:
    def test_never_updated_is_coldest(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1]))
        assert history.coldest([1, 2], k=1) == [2]

    def test_older_update_is_colder(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1]))  # epoch 0
        history.record_scan(np.array([2]))  # epoch 1
        assert history.coldest([1, 2], k=2) == [1, 2]

    def test_tie_broken_by_popularity(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1, 2]))  # both epoch 0
        history.record_scan(np.array([], dtype=np.int64))
        history.record_scan(np.array([1, 2]))  # both epoch 2; equal so far
        history.record_scan(np.array([1]))     # 1 gains popularity
        # last update: 1 -> epoch 3, 2 -> epoch 2; 2 is older hence colder.
        assert history.coldest([1, 2], k=1) == [2]

    def test_deterministic_page_number_tiebreak(self):
        history = UpdateHistory(8)
        assert history.coldest([5, 3, 7], k=3) == [3, 5, 7]

    def test_k_larger_than_candidates(self):
        history = UpdateHistory(8)
        assert history.coldest([2, 1], k=10) == [1, 2]

    def test_empty_candidates(self):
        history = UpdateHistory(8)
        assert history.coldest([], k=3) == []
        assert history.coldest([1], k=0) == []


class TestColdestPartitionEquivalence:
    """The argpartition fast path orders exactly like the lexsort."""

    @staticmethod
    def _reference_coldest(history, candidates, k):
        pfns = np.asarray(candidates, dtype=np.int64)
        last, counts = history._ranking_keys(pfns)
        order = np.lexsort((pfns, counts, last))
        return [int(p) for p in pfns[order[: min(k, len(pfns))]]]

    def test_matches_lexsort_on_random_histories(self):
        import random

        rng = random.Random(13)
        for trial in range(50):
            num_pages = rng.randrange(4, 64)
            history = UpdateHistory(num_pages, history_epochs=rng.choice([2, 8, 64]))
            for _ in range(rng.randrange(0, 30)):
                updated = sorted(
                    rng.sample(range(num_pages), rng.randrange(0, num_pages))
                )
                history.record_scan(np.array(updated, dtype=np.int64))
            candidates = rng.sample(range(num_pages), rng.randrange(1, num_pages + 1))
            for k in (1, 2, len(candidates) // 2, len(candidates), len(candidates) + 5):
                if k <= 0:
                    continue
                assert history.coldest(candidates, k) == self._reference_coldest(
                    history, candidates, k
                ), (trial, k)

    def test_overflow_guard_falls_back_to_lexsort(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1]))
        expected = history.coldest([1, 2, 3], k=2)
        # Keys are packed when a scan records them, so an epoch counter
        # past the exact-arithmetic bound cannot reorder a ranking; the
        # next scan refuses to pack a key that could wrap.
        history.epoch = 2**60
        assert history.coldest([1, 2, 3], k=2) == expected
        with pytest.raises(OverflowError):
            history.record_scan(np.array([2]))


class TestHottest:
    def test_hottest_is_reverse_of_coldest_ordering(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1]))
        history.record_scan(np.array([2]))
        assert history.hottest([1, 2, 3], k=1) == [2]

    def test_hottest_prefers_popular(self):
        history = UpdateHistory(8)
        history.record_scan(np.array([1, 2]))
        history.record_scan(np.array([1, 2]))
        history.record_scan(np.array([1]))
        assert history.hottest([1, 2], k=1) == [1]
