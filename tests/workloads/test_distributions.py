"""Unit tests for the request-key distributions."""

import random

import numpy as np
import pytest

from repro.workloads.distributions import (
    CounterGenerator,
    HotspotGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    uniforms,
    zeta,
)


class TestUniforms:
    """``uniforms`` is ``n`` calls to ``random()``: values and RNG state."""

    @staticmethod
    def _assert_same_as_random(seed, advance, count):
        expected_rng = random.Random(seed)
        actual_rng = random.Random(seed)
        for rng in (expected_rng, actual_rng):
            for _ in range(advance):
                rng.random()
        expected = np.array(
            [expected_rng.random() for _ in range(count)], dtype=np.float64
        )
        actual = uniforms(actual_rng, count)
        assert actual.dtype == np.float64
        assert actual.tobytes() == expected.tobytes()
        assert actual_rng.getstate() == expected_rng.getstate()

    # 312 draws consume one 624-word Mersenne Twister block.
    @pytest.mark.parametrize("count", [0, 1, 311, 312, 313, 623, 624, 625])
    @pytest.mark.parametrize("advance", [0, 1, 311])
    def test_block_edges(self, count, advance):
        self._assert_same_as_random(7, advance, count)

    @pytest.mark.parametrize("count", [2, 3, 95, 96, 97])
    def test_small_sizes(self, count):
        self._assert_same_as_random(11, 2, count)

    def test_large_draw_from_an_advanced_state(self):
        rng = random.Random(99)
        rng.getrandbits(1_000)
        self._assert_same_as_random(rng.getrandbits(64), 17, 100_003)


class TestZeta:
    def test_known_harmonic(self):
        assert zeta(3, 1.0 - 1e-12) == pytest.approx(1 + 1 / 2 + 1 / 3, rel=1e-6)

    def test_incremental_matches_direct(self):
        direct = zeta(100, 0.99)
        partial = zeta(60, 0.99)
        incremental = zeta(100, 0.99, initial_sum=partial, from_n=60)
        assert incremental == pytest.approx(direct)

    def test_invalid(self):
        with pytest.raises(ValueError):
            zeta(5, 0.99, from_n=10)


class TestZipfian:
    def test_range(self):
        gen = ZipfianGenerator(100, seed=1)
        draws = [gen.next() for _ in range(1000)]
        assert all(0 <= d < 100 for d in draws)

    def test_rank_zero_most_popular(self):
        gen = ZipfianGenerator(1000, seed=2)
        draws = [gen.next() for _ in range(5000)]
        counts = np.bincount(draws, minlength=1000)
        assert counts[0] == counts.max()

    def test_skew_head_heavy(self):
        """With theta=0.99 over 1000 items, the top 10% takes most draws."""
        gen = ZipfianGenerator(1000, seed=3)
        draws = np.array([gen.next() for _ in range(20_000)])
        head = (draws < 100).mean()
        assert head > 0.6

    def test_deterministic(self):
        a = [ZipfianGenerator(50, seed=9).next() for _ in range(20)]
        b = [ZipfianGenerator(50, seed=9).next() for _ in range(20)]
        assert a == b

    def test_sample_matches_distribution_shape(self):
        gen = ZipfianGenerator(1000, seed=4)
        batch = gen.sample(20_000)
        assert batch.min() >= 0 and batch.max() < 1000
        counts = np.bincount(batch, minlength=1000)
        assert counts[0] == counts.max()

    @pytest.mark.parametrize(
        "items, theta, seed", [(4_096, 0.99, 42), (64, 0.5, 7), (1, 0.2, 3)]
    )
    def test_sample_equals_repeated_next(self, items, theta, seed):
        per_draw = ZipfianGenerator(items, theta=theta, seed=seed)
        bulk = ZipfianGenerator(items, theta=theta, seed=seed)
        expected = [per_draw.next() for _ in range(60_000)]
        actual = []
        for count in (0, 1, 95, 96, 97, 2_048, 57_663):
            actual.extend(bulk.sample(count).tolist())
        assert actual == expected
        assert bulk.next() == per_draw.next()

    def test_two_items(self):
        gen = ZipfianGenerator(2, seed=6)
        draws = [gen.next() for _ in range(200)] + gen.sample(200).tolist()
        assert set(draws) == {0, 1}
        grown = ZipfianGenerator(1, seed=6)
        grown.grow_to(2)
        assert [grown.next() for _ in range(200)] == draws[:200]

    def test_grow(self):
        gen = ZipfianGenerator(10, seed=5)
        gen.grow_to(100)
        draws = [gen.next() for _ in range(500)]
        assert max(draws) >= 10  # new items reachable

    def test_grow_shrink_rejected(self):
        gen = ZipfianGenerator(10)
        with pytest.raises(ValueError):
            gen.grow_to(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.0)


class TestScrambledZipfian:
    def test_popular_items_scattered(self):
        """The head should NOT be concentrated at low ids."""
        gen = ScrambledZipfianGenerator(1000, seed=6)
        draws = np.array([gen.next() for _ in range(20_000)])
        head_mass = (draws < 100).mean()
        assert head_mass < 0.4  # scrambling spreads the head

    def test_still_skewed(self):
        gen = ScrambledZipfianGenerator(1000, seed=7)
        draws = [gen.next() for _ in range(20_000)]
        counts = np.bincount(draws, minlength=1000)
        top = np.sort(counts)[::-1][:100].sum()
        assert top / len(draws) > 0.5

    def test_sample_agrees_with_next_in_range(self):
        gen = ScrambledZipfianGenerator(500, seed=8)
        batch = gen.sample(1000)
        assert batch.min() >= 0 and batch.max() < 500


class TestLatest:
    def test_newest_most_popular(self):
        gen = LatestGenerator(1000, seed=9)
        draws = np.array([gen.next() for _ in range(10_000)])
        assert (draws > 900).mean() > 0.5

    def test_grow_shifts_popularity(self):
        gen = LatestGenerator(100, seed=10)
        gen.grow_to(200)
        draws = np.array([gen.next() for _ in range(5000)])
        assert (draws > 150).mean() > 0.4


class TestUniform:
    def test_range_and_spread(self):
        gen = UniformGenerator(100, seed=11)
        draws = np.array([gen.next() for _ in range(10_000)])
        counts = np.bincount(draws, minlength=100)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 3

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)


class TestHotspot:
    def test_hot_set_dominates(self):
        gen = HotspotGenerator(1000, hot_fraction=0.1, hot_access_fraction=0.9, seed=12)
        draws = np.array([gen.next() for _ in range(10_000)])
        assert (draws < 100).mean() > 0.85

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotGenerator(0)
        with pytest.raises(ValueError):
            HotspotGenerator(10, hot_fraction=0)
        with pytest.raises(ValueError):
            HotspotGenerator(10, hot_access_fraction=2)


class TestCounter:
    def test_monotonic(self):
        gen = CounterGenerator(5)
        assert [gen.next() for _ in range(3)] == [5, 6, 7]
        assert gen.last == 7
