"""Deterministic hashing shared across the KV store and workloads.

Python's built-in ``hash`` is randomized per process (PYTHONHASHSEED),
which would make simulations non-reproducible; everything in this package
hashes with FNV-1a instead.

The vectorized variants below hash many fixed-width inputs in one numpy
pass.  They are bit-for-bit equivalent to :func:`fnv1a` (uint64 wrapping
multiplication is exactly the scalar ``& mask``), which the batched
op-generation tests pin down against the scalar reference.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a(
    data: bytes,
    _offset: int = _FNV_OFFSET,
    _prime: int = _FNV_PRIME,
    _mask: int = 0xFFFFFFFFFFFFFFFF,
) -> int:
    """64-bit FNV-1a hash of ``data``."""
    value = _offset
    for byte in data:
        value = ((value ^ byte) * _prime) & _mask
    return value


def fnv1a_rows(rows: np.ndarray) -> np.ndarray:
    """64-bit FNV-1a of every row of a ``(n, width)`` uint8 matrix.

    One vectorized multiply-xor per byte column instead of a Python-level
    loop per input — the batched workload generators hash thousands of
    keys per call through this.
    """
    if rows.ndim != 2 or rows.dtype != np.uint8:
        raise ValueError(f"expected a 2-D uint8 matrix, got {rows.dtype} "
                         f"with shape {rows.shape}")
    values = np.full(rows.shape[0], _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    with np.errstate(over="ignore"):  # uint64 wraparound == the scalar mask
        for column in range(rows.shape[1]):
            np.bitwise_xor(values, rows[:, column], out=values)
            np.multiply(values, prime, out=values)
    return values


def fnv1a_le8(values: np.ndarray) -> np.ndarray:
    """FNV-1a of each value's 8-byte little-endian encoding, vectorized.

    Equivalent to ``fnv1a(int(v).to_bytes(8, "little"))`` per element —
    the scramble step of the zipfian key generator.
    """
    arr = np.ascontiguousarray(np.asarray(values).astype("<u8"))
    rows = arr.view(np.uint8).reshape(-1, 8)
    return fnv1a_rows(rows)
