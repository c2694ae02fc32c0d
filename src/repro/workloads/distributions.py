"""Request-key distributions, matching YCSB's reference generators.

The zipfian generator follows the Gray et al. "Quickly generating
billion-record synthetic databases" algorithm used verbatim by YCSB, with
``theta = 0.99`` by default.  ScrambledZipfian spreads the zipfian head
uniformly over the key space via FNV hashing (YCSB's default for
workloads A/B/C/F); Latest references the most recently inserted items
(workload D).

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

import random
import numpy as np

from repro.kvstore.hashing import fnv1a, fnv1a_le8

ZIPFIAN_CONSTANT = 0.99


def uniforms(rng: random.Random, count: int) -> np.ndarray:
    """``count`` draws equal to ``[rng.random() for _ in range(count)]``.

    Bit for bit, and leaving ``rng`` in the identical state: CPython's
    ``random()`` is ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53`` over two
    consecutive 32-bit Mersenne Twister outputs ``a``, ``b``, and
    ``getrandbits(64 * count)`` emits exactly ``2 * count`` such outputs,
    least significant word first.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4"
    )
    # In place, one float64 array: every step is exact, so the result
    # is the same as the expression's.
    draws = (words[0::2] >> 5).astype(np.float64)
    draws *= 67108864.0
    draws += words[1::2] >> 6
    draws *= 1.0 / 9007199254740992.0
    return draws


def zeta(n: int, theta: float, initial_sum: float = 0.0, from_n: int = 0) -> float:
    """Incremental generalized harmonic number: sum_{i=1..n} 1/i^theta."""
    if n < from_n:
        raise ValueError(f"n ({n}) must be >= from_n ({from_n})")
    i = np.arange(from_n + 1, n + 1, dtype=np.float64)
    return initial_sum + float(np.sum(1.0 / np.power(i, theta)))


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n), rank 0 most popular."""

    def __init__(self, items: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 1) -> None:
        if items <= 0:
            raise ValueError(f"items must be positive: {items}")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1): {theta}")
        self.items = int(items)
        self.theta = float(theta)
        self._rng = random.Random(seed)
        self._zeta2 = zeta(2, theta)
        self._zetan = zeta(self.items, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._recompute()

    def _recompute(self) -> None:
        spread = 1.0 - self._zeta2 / self._zetan
        # With two items every draw resolves to rank 0 or 1 before eta
        # is read, and the formula is 0/0.
        self._eta = (
            (1.0 - (2.0 / self.items) ** (1.0 - self.theta)) / spread
            if spread
            else 0.0
        )

    def grow_to(self, items: int) -> None:
        """Extend the item space (used under insert workloads)."""
        if items < self.items:
            raise ValueError(f"cannot shrink item space: {items} < {self.items}")
        if items == self.items:
            return
        self._zetan = zeta(items, self.theta, self._zetan, self.items)
        self.items = int(items)
        self._recompute()

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.items * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def sample(self, count: int) -> np.ndarray:
        """Vectorized batch of ``count`` draws (same distribution as next)."""
        if count < 0:
            raise ValueError(f"count must be non-negative: {count}")
        u = uniforms(self._rng, count)
        uz = u * self._zetan
        # ``items * (eta * u - eta + 1) ** alpha``, in place in ``u``.
        u *= self._eta
        u -= self._eta
        u += 1.0
        u **= self._alpha
        u *= self.items
        ranks = u.astype(np.int64)
        del u
        ranks[uz < 1.0 + 0.5**self.theta] = 1
        ranks[uz < 1.0] = 0
        return np.minimum(ranks, self.items - 1, out=ranks)


class ScrambledZipfianGenerator:
    """Zipfian popularity spread uniformly over the item space (YCSB default).

    Ranks from an underlying zipfian are FNV-hashed so the popular items
    are scattered instead of clustered at low ids — without this, zipf
    rank i and page i coincide and spatial locality is unrealistically
    perfect.
    """

    def __init__(self, items: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 1) -> None:
        self.items = int(items)
        self._zipf = ZipfianGenerator(items, theta, seed)

    def grow_to(self, items: int) -> None:
        self._zipf.grow_to(items)
        self.items = int(items)

    def next(self) -> int:
        rank = self._zipf.next()
        return fnv1a(rank.to_bytes(8, "little")) % self.items

    def sample(self, count: int) -> np.ndarray:
        ranks = self._zipf.sample(count)
        return (fnv1a_le8(ranks) % np.uint64(self.items)).astype(np.int64)


class LatestGenerator:
    """YCSB's 'latest' distribution: recent inserts are most popular.

    Draws a zipfian rank r and returns ``newest - r`` — workload D's
    "social media posts read right after they are written" pattern.
    """

    def __init__(self, items: int, theta: float = ZIPFIAN_CONSTANT, seed: int = 1) -> None:
        self._zipf = ZipfianGenerator(items, theta, seed)
        self.items = int(items)

    def grow_to(self, items: int) -> None:
        self._zipf.grow_to(items)
        self.items = int(items)

    def next(self) -> int:
        rank = self._zipf.next()
        return max(0, self.items - 1 - rank)

    def sample(self, count: int) -> np.ndarray:
        """Vectorized batch of draws (same RNG stream as ``next``)."""
        ranks = self._zipf.sample(count)
        return np.maximum(0, np.int64(self.items - 1) - ranks)


class UniformGenerator:
    """Uniform integers in [0, n)."""

    def __init__(self, items: int, seed: int = 1) -> None:
        if items <= 0:
            raise ValueError(f"items must be positive: {items}")
        self.items = int(items)
        self._rng = random.Random(seed)

    def grow_to(self, items: int) -> None:
        if items < self.items:
            raise ValueError(f"cannot shrink item space: {items} < {self.items}")
        self.items = int(items)

    def next(self) -> int:
        return self._rng.randrange(self.items)

    def sample(self, count: int) -> np.ndarray:
        return np.array([self._rng.randrange(self.items) for _ in range(count)], dtype=np.int64)


class HotspotGenerator:
    """A fraction of accesses hit a small hot set (YCSB's hotspot dist)."""

    def __init__(
        self,
        items: int,
        hot_fraction: float = 0.2,
        hot_access_fraction: float = 0.8,
        seed: int = 1,
    ) -> None:
        if items <= 0:
            raise ValueError(f"items must be positive: {items}")
        if not 0 < hot_fraction <= 1:
            raise ValueError(f"hot_fraction must be in (0, 1]: {hot_fraction}")
        if not 0 <= hot_access_fraction <= 1:
            raise ValueError(
                f"hot_access_fraction must be in [0, 1]: {hot_access_fraction}"
            )
        self.items = int(items)
        self.hot_items = max(1, int(items * hot_fraction))
        self.hot_access_fraction = float(hot_access_fraction)
        self._rng = random.Random(seed)

    def next(self) -> int:
        if self._rng.random() < self.hot_access_fraction:
            return self._rng.randrange(self.hot_items)
        return self.hot_items + self._rng.randrange(self.items - self.hot_items) \
            if self.items > self.hot_items else self._rng.randrange(self.items)


class CounterGenerator:
    """Monotonic counter for insert keys."""

    def __init__(self, start: int = 0) -> None:
        self._next = int(start)

    def next(self) -> int:
        value = self._next
        self._next += 1
        return value

    @property
    def last(self) -> int:
        return self._next - 1
