"""The store's operations, under the name the benchmark adapter imports.

:class:`~repro.kvstore.store.KVStore` binds its operations once, at
construction, as closures over the system's lane.
:func:`build_fast_ops` returns the store itself; it exists because
``benchmarks/e2e/adapters.py`` imports it.
"""

from __future__ import annotations

from repro.kvstore.store import KVStore


def build_fast_ops(store: KVStore) -> KVStore:
    """The store itself: its ``get``/``put`` are the lane-bound closures."""
    return store
