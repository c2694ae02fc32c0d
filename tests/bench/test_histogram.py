"""Tests for the log-bucketed latency histogram."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bench.histogram import LatencyHistogram, _bucket_of, _bucket_midpoint


class TestBucketMapping:
    def test_small_values_exact(self):
        for value in (0, 1, 5, 127):
            index = _bucket_of(value)
            assert _bucket_midpoint(index) == float(value)

    def test_monotone(self):
        values = [0, 1, 100, 1000, 10_000, 10**6, 10**9]
        indices = [_bucket_of(v) for v in values]
        assert indices == sorted(indices)

    def test_relative_error_bound(self):
        rng = random.Random(1)
        for _ in range(500):
            value = rng.randrange(1, 10**9)
            mid = _bucket_midpoint(_bucket_of(value))
            assert abs(mid - value) / value < 0.01


class TestRecording:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean_ns == 0.0
        assert hist.percentile(99) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_mean_exact(self):
        hist = LatencyHistogram()
        hist.record_many([100, 200, 300])
        assert hist.mean_ns == pytest.approx(200)

    def test_min_max(self):
        hist = LatencyHistogram()
        hist.record_many([500, 5, 50])
        assert hist.min_ns == 5
        assert hist.max_ns == 500

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)


#: Bucket-boundary values: 0, the linear/log seam, and every power of two
#: up to 2**50 with its neighbours.
_EDGES = [0, 127, 128] + [
    value for k in range(1, 51) for value in ((1 << k) - 1, 1 << k, (1 << k) + 1)
]
_SAMPLES = st.lists(
    st.one_of(st.sampled_from(_EDGES), st.integers(0, 1 << 50)), max_size=120
)


def _state(hist):
    return (dict(hist._buckets), hist.count, hist._sum_ns, hist.min_ns, hist.max_ns)


class TestRecordMany:
    @given(earlier=_SAMPLES, values=_SAMPLES, as_generator=st.booleans())
    def test_equals_per_sample_record(self, earlier, values, as_generator):
        one, many = LatencyHistogram(), LatencyHistogram()
        for value in earlier:
            one.record(value)
            many.record(value)
        for value in values:
            one.record(value)
        many.record_many((v for v in values) if as_generator else values)
        assert _state(many) == _state(one)
        buckets, count, total, low, high = _state(many)
        plain = [count, total, *buckets, *buckets.values()]
        plain += [v for v in (low, high) if v is not None]
        assert all(type(v) is int for v in plain)

    def test_negative_raises_and_leaves_state(self):
        hist = LatencyHistogram()
        hist.record_many([5, 300, 1 << 40])
        before = _state(hist)
        with pytest.raises(ValueError, match="negative"):
            hist.record_many([7, -1, 9])
        assert _state(hist) == before


class TestPercentiles:
    def test_against_numpy_on_lognormal(self):
        rng = np.random.default_rng(2)
        samples = (np.exp(rng.normal(10, 1.2, size=20_000))).astype(np.int64)
        hist = LatencyHistogram()
        hist.record_many(int(s) for s in samples)
        for pct in (50, 90, 99):
            exact = float(np.percentile(samples, pct))
            approx = hist.percentile(pct)
            assert approx == pytest.approx(exact, rel=0.02), pct

    def test_percentile_monotone(self):
        rng = random.Random(3)
        hist = LatencyHistogram()
        hist.record_many(rng.randrange(1, 10**7) for _ in range(5000))
        values = [hist.percentile(p) for p in (10, 50, 90, 99, 99.9, 100)]
        assert values == sorted(values)

    def test_summary_ms(self):
        hist = LatencyHistogram()
        hist.record_many([1_000_000] * 99 + [100_000_000])
        summary = hist.summary_ms()
        assert summary["count"] == 100
        assert summary["avg_ms"] == pytest.approx(1.99, rel=0.02)
        assert summary["p50_ms"] == pytest.approx(1.0, rel=0.01)
        assert summary["p999_ms"] == pytest.approx(100.0, rel=0.01)


class TestMerge:
    def test_merge_counts_and_extremes(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([10, 20])
        b.record_many([30])
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.min_ns == 10
        assert merged.max_ns == 30
        assert merged.mean_ns == pytest.approx(20)

    def test_merge_empty(self):
        a = LatencyHistogram()
        a.record(5)
        merged = a.merge(LatencyHistogram())
        assert merged.count == 1
        assert merged.percentile(100) == 5

    def test_merge_matches_union(self):
        rng = random.Random(4)
        xs = [rng.randrange(1, 10**6) for _ in range(2000)]
        ys = [rng.randrange(1, 10**6) for _ in range(2000)]
        a, b, union = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        a.record_many(xs)
        b.record_many(ys)
        union.record_many(xs + ys)
        merged = a.merge(b)
        for pct in (50, 95, 99):
            assert merged.percentile(pct) == union.percentile(pct)

    def test_nonzero_buckets_sorted(self):
        hist = LatencyHistogram()
        hist.record_many([1, 1000, 10**6])
        buckets = hist.nonzero_buckets()
        mids = [mid for mid, _count in buckets]
        assert mids == sorted(mids)
        assert sum(count for _mid, count in buckets) == 3
