"""Log-bucketed latency histogram (HdrHistogram-style).

The runner records one latency sample per operation; at paper scale
(10M ops) storing raw samples is wasteful, and the evaluation needs exact
enough percentiles (Fig 8 plots average + p99).  This histogram keeps
sub-1% relative error across nanoseconds-to-seconds using
logarithmically-spaced buckets with linear subdivision, supports merge
(for combining per-type or per-run distributions), and answers arbitrary
percentile queries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

_SUBBUCKETS = 128  # linear subdivisions per power of two: <1% rel. error
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


def _bucket_of(value_ns: int) -> int:
    """Map a nanosecond value to its bucket index."""
    if value_ns < _SUBBUCKETS:
        return int(value_ns)
    magnitude = value_ns.bit_length() - _SUBBUCKETS.bit_length()
    base = value_ns >> magnitude
    return magnitude * _SUBBUCKETS + int(base)


def _bucket_midpoint(index: int) -> float:
    """Representative value of bucket ``index``.

    Inverse of :func:`_bucket_of`: for index >= SUBBUCKETS the encoding is
    ``magnitude * SUBBUCKETS + base`` with ``base`` in
    [SUBBUCKETS, 2*SUBBUCKETS); the bucket spans
    [base << magnitude, (base + 1) << magnitude).
    """
    if index < _SUBBUCKETS:
        return float(index)
    magnitude = index // _SUBBUCKETS - 1
    base = index % _SUBBUCKETS + _SUBBUCKETS
    low = base << magnitude
    high = (base + 1) << magnitude
    return (low + high) / 2.0


class LatencyHistogram:
    """Nanosecond latency distribution with percentile queries."""

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self._sum_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    def record(self, value_ns: int) -> None:
        """Add one sample."""
        if value_ns < 0:
            raise ValueError(f"latency cannot be negative: {value_ns}")
        index = _bucket_of(int(value_ns))
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self._sum_ns += value_ns
        if self.min_ns is None or value_ns < self.min_ns:
            self.min_ns = value_ns
        if self.max_ns is None or value_ns > self.max_ns:
            self.max_ns = value_ns

    def record_many(self, values_ns: Iterable[int]) -> None:
        """Add many integer samples at once (any iterable, int64 range).

        The same state as :meth:`record` per sample — bucket counts,
        ``count``, sum, min and max, all plain ``int`` — from one
        vectorized bucket mapping.  A negative sample raises
        ``ValueError`` before anything is recorded.
        """
        values = np.fromiter(values_ns, dtype=np.int64)
        if values.size == 0:
            return
        low = int(values.min())
        if low < 0:
            raise ValueError(f"latency cannot be negative: {low}")
        high = int(values.max())
        # _bucket_of, vectorized: bit_length(v) is the count of powers of
        # two <= v (an exact integer search), and values below
        # _SUBBUCKETS get magnitude 0, i.e. their own bucket.
        magnitude = np.maximum(
            np.searchsorted(_POWERS_OF_TWO, values, side="right")
            - _SUBBUCKETS.bit_length(),
            0,
        )
        indices, counts = np.unique(
            magnitude * _SUBBUCKETS + (values >> magnitude), return_counts=True
        )
        buckets = self._buckets
        for index, count in zip(indices.tolist(), counts.tolist()):
            buckets[index] = buckets.get(index, 0) + count
        self.count += values.size
        self._sum_ns += sum(values.tolist())
        if self.min_ns is None or low < self.min_ns:
            self.min_ns = low
        if self.max_ns is None or high > self.max_ns:
            self.max_ns = high

    @property
    def mean_ns(self) -> float:
        if self.count == 0:
            return 0.0
        return self._sum_ns / self.count

    def percentile(self, pct: float) -> float:
        """Approximate value at percentile ``pct`` (0 < pct <= 100)."""
        if not 0 < pct <= 100:
            raise ValueError(f"pct must be in (0, 100]: {pct}")
        if self.count == 0:
            return 0.0
        target = pct / 100.0 * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= target:
                return _bucket_midpoint(index)
        return _bucket_midpoint(max(self._buckets))

    def percentiles(self, pcts: Iterable[float]) -> Dict[float, float]:
        return {pct: self.percentile(pct) for pct in pcts}

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Combine two distributions into a new histogram."""
        merged = LatencyHistogram()
        for source in (self, other):
            for index, count in source._buckets.items():
                merged._buckets[index] = merged._buckets.get(index, 0) + count
        merged.count = self.count + other.count
        merged._sum_ns = self._sum_ns + other._sum_ns
        mins = [m for m in (self.min_ns, other.min_ns) if m is not None]
        maxs = [m for m in (self.max_ns, other.max_ns) if m is not None]
        merged.min_ns = min(mins) if mins else None
        merged.max_ns = max(maxs) if maxs else None
        return merged

    def summary_ms(self) -> Dict[str, float]:
        """The Fig 8 quantities, in milliseconds."""
        return {
            "count": float(self.count),
            "avg_ms": self.mean_ns / 1e6,
            "p50_ms": self.percentile(50) / 1e6,
            "p90_ms": self.percentile(90) / 1e6,
            "p99_ms": self.percentile(99) / 1e6,
            "p999_ms": self.percentile(99.9) / 1e6,
        }

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """(midpoint_ns, count) pairs, ascending — for plotting."""
        return [
            (_bucket_midpoint(index), self._buckets[index])
            for index in sorted(self._buckets)
        ]
