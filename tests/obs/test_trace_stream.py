"""The compiled trace stream equals the per-op fold it replaced.

``repro.obs.harness`` resolves every read with array searches over a
chunk of ops; ``tests/obs/reference_trace.py`` is the per-op fold with a
running ``written`` dict.  These tests hold the two equal op for op —
over random specs, batch sizes and chunk sizes, at the repo benchmark's
``page_write_b02`` parameters, and where the payload stamp widens — and
check that a value that cannot fit in a page is refused up front.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import harness
from repro.obs.harness import TraceWorkload, iter_op_batches, run_traced_workload
from tests.obs.reference_trace import reference_payload, reference_workload_ops

PAGE_SIZE = 4096


def _flat_batches(spec, page_size, batch_size=512):
    writes, pages, offsets, payloads = [], [], [], []
    for batch in iter_op_batches(spec, page_size, batch_size=batch_size):
        writes.extend(batch.writes)
        pages.extend(batch.pages)
        offsets.extend(batch.offsets)
        payloads.extend(batch.payloads)
    return writes, pages, offsets, payloads


def _flat_reference(spec, page_size):
    columns = zip(*reference_workload_ops(spec, page_size))
    return tuple(list(column) for column in columns)


@st.composite
def _specs(draw):
    hot_pages = draw(st.integers(1, 300))
    page_size = draw(st.sampled_from([64, PAGE_SIZE]))
    spec = TraceWorkload(
        num_pages=hot_pages,
        hot_pages=hot_pages,
        ops=draw(st.integers(1, 700)),
        value_bytes=draw(st.integers(1, page_size - 1)),
        read_every=draw(st.integers(1, 9)),
        seed=draw(st.integers(0, 2**32)),
        theta=draw(st.floats(0.01, 0.99)),
    )
    return spec, page_size


@given(
    case=_specs(),
    batch_size=st.integers(1, 800),
    chunk=st.sampled_from([1, 5, 333, 2048]),
)
@settings(max_examples=60, deadline=None)
def test_flattened_batches_equal_per_op_oracle(case, batch_size, chunk):
    spec, page_size = case
    with mock.patch.object(harness, "_CHUNK_OPS", chunk):
        actual = _flat_batches(spec, page_size, batch_size)
    assert actual == _flat_reference(spec, page_size)


@pytest.mark.parametrize("seed", [42, 1234])
def test_page_write_b02_stream_equals_oracle(seed):
    """The benchmark's exact stream (150k ops over 4,096 hot pages)."""
    spec = TraceWorkload(
        num_pages=6_144,
        dirty_budget_pages=64,
        hot_pages=4_096,
        ops=150_000,
        value_bytes=96,
        read_every=5,
        seed=seed,
    )
    assert _flat_batches(spec, PAGE_SIZE) == _flat_reference(spec, PAGE_SIZE)


@pytest.mark.parametrize("value_bytes", [1, 7, 13, 14, 96, 301])
def test_stamps_widen_past_six_op_and_four_page_digits(value_bytes):
    sources = np.array(
        [5, 999_999, 1_000_000, 12_345_678, 1_000_000, 3], dtype=np.int64
    )
    pages = np.array([123_456, 9_999, 10_000, 3, 42, 0], dtype=np.int64)
    assert harness._payloads(sources, pages, value_bytes) == [
        reference_payload(op, page, value_bytes)
        for op, page in zip(sources.tolist(), pages.tolist())
    ]


@pytest.mark.parametrize("value_bytes", [PAGE_SIZE, 5_000])
def test_value_that_cannot_fit_a_page_is_refused_by_both_views(value_bytes):
    spec = TraceWorkload(value_bytes=value_bytes)
    message = rf"value_bytes \({value_bytes}\).*page_size \({PAGE_SIZE}\)"
    with pytest.raises(ValueError, match=message):
        iter_op_batches(spec, PAGE_SIZE)
    with pytest.raises(ValueError, match=message):
        run_traced_workload(spec)
