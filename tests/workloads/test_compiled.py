"""The compiled op-stream contract: one-pass lowering, zero drift.

:func:`repro.workloads.compiled.compile_workload` lowers a seeded
workload run into struct-of-arrays form exactly once; everything the
repo replays from it — per-op tuples, batches, epoch segments, hotspot
rotation, ``.ops`` round-trips — must be element-for-element identical
to the original generators.  Hypothesis drives the equivalence across
workload mixes, scales, seeds, batch sizes, and rotation amounts; the
binary-format tests pin the checksummed ``.ops`` envelope including
corruption detection.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.workloads import compiled as compiled_module
from repro.workloads.compiled import (
    _COMPILE_BLOCK,
    CODE_OF,
    KIND_NAMES,
    CompiledStream,
    OpsChecksumError,
    OpsFormatError,
    compile_workload,
    key_array,
    key_rows,
    open_ops,
    ops_checksum,
    save_ops,
)
from repro.workloads.ycsb import (
    YCSB_WORKLOADS,
    generate_operations,
    iter_op_batches,
    make_key,
)

from tests.cluster.reference_shard import iter_segment_ops

WORKLOADS = sorted(YCSB_WORKLOADS)


def _params():
    return dict(record_count=120, operation_count=700, value_size=512,
                theta=0.9, seed=11)


# --------------------------------------------------------------------------
# Element-for-element equivalence with the generators.


@given(
    workload=st.sampled_from(WORKLOADS),
    record_count=st.integers(min_value=5, max_value=400),
    operation_count=st.integers(min_value=0, max_value=900),
    seed=st.integers(min_value=0, max_value=2**31),
    theta=st.floats(min_value=0.5, max_value=0.99),
)
@settings(max_examples=60, deadline=None)
def test_compiled_equals_generate_operations(
    workload, record_count, operation_count, seed, theta
):
    spec = YCSB_WORKLOADS[workload]
    stream = compile_workload(
        spec, record_count, operation_count, value_size=256,
        theta=theta, seed=seed,
    )
    expected = list(
        generate_operations(
            spec, record_count, operation_count, value_size=256,
            theta=theta, seed=seed,
        )
    )
    assert list(stream.operations()) == expected
    # The derived per-op sizes are what a version-1 file stored: the
    # generator's ``value_size`` field, op for op.
    assert stream.value_sizes.dtype == np.int32
    assert stream.value_sizes.tolist() == [op.value_size for op in expected]
    assert not stream.value_sizes.flags.writeable


@given(
    workload=st.sampled_from(WORKLOADS),
    batch_size=st.integers(min_value=1, max_value=900),
)
@settings(max_examples=40, deadline=None)
def test_compiled_batches_equal_iter_op_batches(workload, batch_size):
    spec = YCSB_WORKLOADS[workload]
    params = _params()
    stream = compile_workload(spec, **params)
    plain = list(iter_op_batches(spec, batch_size=batch_size, **params))
    backed = list(
        iter_op_batches(
            spec, batch_size=batch_size, compiled=stream, **params
        )
    )
    assert backed == plain
    # Plain and backed batches share one producer, so hold them to the
    # per-op generator: each batch is the next ``batch_size`` chunk.
    ops = generate_operations(spec, **params)
    for batch in plain:
        assert list(batch.operations()) == list(islice(ops, batch_size))
    assert next(ops, None) is None


@given(
    epochs=st.integers(min_value=1, max_value=9),
    rotate=st.integers(min_value=0, max_value=300),
    workload=st.sampled_from(["YCSB-A", "YCSB-D"]),
)
@settings(max_examples=30, deadline=None)
def test_rotation_and_segments_match_iter_segment_ops(
    epochs, rotate, workload
):
    params = _params()
    stream = compile_workload(
        YCSB_WORKLOADS[workload], epochs=epochs, hotspot_rotate_keys=rotate,
        **params,
    )
    expected = list(
        iter_segment_ops(
            workload,
            params["record_count"],
            params["operation_count"],
            params["value_size"],
            params["theta"],
            params["seed"],
            epochs,
            rotate,
        )
    )
    assert list(stream.operations()) == [op for _, _, op in expected]
    bounds = stream.segment_bounds
    for position, segment, _ in expected:
        assert bounds[segment] <= position < bounds[segment + 1]
    assert int(bounds[0]) == 0
    assert int(bounds[epochs]) == len(stream)


def test_key_array_matches_make_key():
    indices = np.array([0, 7, 12345, 10**12], dtype=np.int64)
    assert key_array(indices).tolist() == [make_key(i) for i in indices]
    assert key_array(np.empty(0, dtype=np.int64)).tolist() == []
    rows = key_rows(indices)
    assert rows.shape == (4, 24)
    assert bytes(rows[1]) == make_key(7)
    assert key_rows(np.empty(0, dtype=np.int64)).shape == (0, 24)


def test_kind_vocabulary_is_pinned():
    assert KIND_NAMES == ("read", "update", "insert", "rmw", "scan")
    assert {KIND_NAMES[code] for code in CODE_OF.values()} == set(CODE_OF)


# --------------------------------------------------------------------------
# Replay memory: one key table per stream, no decoded-batch memo.


def test_replay_memory_is_the_key_table_plus_one_batch():
    # The CI scale-smoke stream's shape: a memo of its decoded batches
    # would hold 500k keys (~35 MB); the key table is 5,000.
    stream = compile_workload(
        YCSB_WORKLOADS["YCSB-A"], 5_000, 500_000, epochs=4
    )
    # Decode a tiny stream first so numpy's lazy imports are not traced.
    list(compile_workload(YCSB_WORKLOADS["YCSB-A"], 5, 5).batches())
    tracemalloc.start()
    try:
        for _ in range(2):
            for batch in stream.batches():
                pass
        del batch
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"decode peaked at {peak} traced bytes"
    table = stream.key_table
    table_bytes = table.nbytes + sum(map(sys.getsizeof, table.tolist()))
    assert current <= table_bytes + 32 * 2**10, (current, table_bytes)


def test_has_scans_memory_is_one_block():
    # A whole-stream comparison held one bool per op: 978 KB here.
    stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], 1_000, 1_000_000)
    # Reduce a tiny stream first so lazy imports are not traced.
    assert compile_workload(YCSB_WORKLOADS["YCSB-E"], 5, 5).has_scans
    tracemalloc.start()
    try:
        assert stream.has_scans is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _COMPILE_BLOCK, peak


@pytest.mark.parametrize("workload", WORKLOADS)
def test_has_scans_matches_the_whole_stream_comparison(workload):
    stream = compile_workload(YCSB_WORKLOADS[workload], **_params())
    assert stream.has_scans is bool((stream.codes == CODE_OF["scan"]).any())
    # A lone scan in the last, partial block is found.
    codes = np.zeros(3 * _COMPILE_BLOCK + 5, dtype=np.uint8)
    codes[-1] = CODE_OF["scan"]
    assert dataclasses.replace(stream, codes=codes).has_scans is True


@pytest.mark.parametrize("rotate", [0, 13])
def test_compile_and_save_memory_is_the_stream_plus_one_block(
    tmp_path, rotate
):
    # The stored sections are 7 bytes per op; one whole-stream int64
    # temporary adds 1.14x them and a bytes copy of the file 1.0x.
    spec = YCSB_WORKLOADS["YCSB-A"]
    # Save a tiny stream first so lazy imports are not traced.
    save_ops(compile_workload(spec, 5, 5), str(tmp_path / "warm.ops"))
    tracemalloc.start()
    try:
        stream = compile_workload(
            spec, 5_000, 200_000, epochs=4, hotspot_rotate_keys=rotate
        )
        save_ops(stream, str(tmp_path / "a.ops"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sections = sum(
        getattr(stream, name).nbytes
        for name in ("codes", "key_indices", "scan_lengths", "segment_bounds")
    )
    assert sections == 7 * len(stream) + 4 * 5
    assert peak < 1.25 * sections, (peak, sections)


def test_segment_bounds_match_the_searchsorted_definition():
    spec = YCSB_WORKLOADS["YCSB-A"]
    for n in range(201):
        for epochs in range(1, 17):
            segments = np.minimum(epochs - 1, np.arange(n) * epochs // n)
            expected = np.searchsorted(segments, np.arange(epochs)).tolist()
            stream = compile_workload(spec, 10, n, epochs=epochs)
            assert stream.segment_bounds.dtype == np.int32
            assert stream.segment_bounds.tolist() == expected + [n], (
                n,
                epochs,
            )


@pytest.mark.parametrize("workload", ["YCSB-A", "YCSB-D"])
def test_keys_batches_and_operations_match_make_key(workload):
    stream = compile_workload(YCSB_WORKLOADS[workload], **_params())
    indices = stream.key_indices.tolist()
    if workload == "YCSB-D":
        assert max(indices) >= stream.record_count  # inserts extend it
    expected = key_array(stream.key_indices).tolist()
    assert expected == [make_key(index) for index in indices]
    assert stream.keys() == expected
    assert stream.keys(100, 333) == expected[100:333]
    assert [key for batch in stream.batches(97) for key in batch.keys] == (
        expected
    )
    assert [op.key for op in stream.operations()] == expected
    assert stream.key_table.tolist() == [
        make_key(index) for index in range(stream.record_count)
    ]


def test_loaded_key_occurrences_are_one_object():
    stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], **_params())
    seen = {}
    for two, index in enumerate(stream.key_indices.tolist()):
        if index in seen:
            one = seen[index]
            break
        seen[index] = two
    keys = stream.keys()
    assert keys[one] is keys[two]
    # Across batch boundaries too: batch size 1 puts them in different
    # batches.
    batched = [batch.keys[0] for batch in stream.batches(1)]
    assert batched[one] is batched[two] is keys[one]


# --------------------------------------------------------------------------
# The .ops binary envelope.


class TestOpsFormat:
    def _stream(self, **overrides) -> CompiledStream:
        params = {**_params(), **overrides}
        return compile_workload(YCSB_WORKLOADS["YCSB-A"], **params)

    def test_round_trip_preserves_everything(self, tmp_path):
        stream = self._stream(epochs=4, hotspot_rotate_keys=13)
        path = str(tmp_path / "a.ops")
        written = save_ops(stream, path)
        reopened = open_ops(path)
        assert reopened.meta() == stream.meta()
        assert np.array_equal(reopened.codes, stream.codes)
        assert np.array_equal(reopened.key_indices, stream.key_indices)
        assert np.array_equal(reopened.value_sizes, stream.value_sizes)
        assert np.array_equal(reopened.scan_lengths, stream.scan_lengths)
        assert np.array_equal(
            reopened.segment_bounds, stream.segment_bounds
        )
        assert list(reopened.operations()) == list(stream.operations())
        assert written == stream.checksum() == ops_checksum(path)
        assert reopened.checksum() == stream.checksum()

    def test_resaving_an_opened_stream_writes_the_same_bytes(self, tmp_path):
        one, two = str(tmp_path / "1.ops"), str(tmp_path / "2.ops")
        save_ops(self._stream(epochs=3, hotspot_rotate_keys=7), one)
        opened = open_ops(one)  # read-only memmapped sections
        assert save_ops(opened, two) == ops_checksum(one)
        assert opened.checksum() == ops_checksum(one)
        with open(one, "rb") as f1, open(two, "rb") as f2:
            assert f1.read() == f2.read()

    def test_serialization_is_deterministic(self, tmp_path):
        one, two = str(tmp_path / "1.ops"), str(tmp_path / "2.ops")
        save_ops(self._stream(), one)
        save_ops(self._stream(), two)
        with open(one, "rb") as f1, open(two, "rb") as f2:
            assert f1.read() == f2.read()

    def test_sections_are_memmapped_read_only(self, tmp_path):
        path = str(tmp_path / "a.ops")
        save_ops(self._stream(), path)
        reopened = open_ops(path)
        assert isinstance(reopened.codes, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            reopened.codes[0] = 9

    @given(damage=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20, deadline=None)
    def test_any_flipped_byte_is_detected(self, tmp_path_factory, damage):
        tmp_path = tmp_path_factory.mktemp("ops")
        path = str(tmp_path / "a.ops")
        save_ops(self._stream(operation_count=300), path)
        size = os.path.getsize(path)
        offset = 48 + damage % (size - 48)  # past the header: payload
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(OpsChecksumError):
            open_ops(path)

    def test_verify_false_skips_the_checksum(self, tmp_path):
        path = str(tmp_path / "a.ops")
        save_ops(self._stream(operation_count=300), path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        open_ops(path, verify=False)  # caller opted out; no raise

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "a.ops")
        save_ops(self._stream(operation_count=300), path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with pytest.raises(OpsFormatError):
            open_ops(path)

    def test_not_an_ops_file_rejected(self, tmp_path):
        path = str(tmp_path / "a.ops")
        with open(path, "wb") as handle:
            handle.write(b"definitely not an ops file")
        with pytest.raises(OpsFormatError):
            open_ops(path)
        with pytest.raises(OpsFormatError):
            ops_checksum(path)

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_format_versions_are_rejected(self, tmp_path, version):
        path = str(tmp_path / "a.ops")
        save_ops(self._stream(operation_count=300), path)
        # The version word sits before the checksummed bytes, so only
        # the version check can refuse the file.
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write(version.to_bytes(4, "little"))
        with pytest.raises(
            OpsFormatError, match=f"unsupported .ops version {version} "
        ):
            open_ops(path)

    def test_sections_are_stored_at_replay_width(self, tmp_path):
        stream = self._stream(epochs=3)
        path = str(tmp_path / "a.ops")
        save_ops(stream, path)
        reopened = open_ops(path)
        widths = {
            name: getattr(reopened, name).dtype.str
            for name in ("codes", "key_indices", "scan_lengths", "segment_bounds")
        }
        assert widths == {
            "codes": "|u1",
            "key_indices": "<i4",
            "scan_lengths": "<u2",
            "segment_bounds": "<i4",
        }
        assert b"value_sizes" not in (tmp_path / "a.ops").read_bytes()
        assert np.array_equal(reopened.value_sizes, stream.value_sizes)


class TestWidthLimits:
    """Counts past the stored widths are refused before anything is
    allocated.  ``_compile_indices`` (the first allocation) is replaced
    by a tripwire, so a missing check fails fast instead of allocating
    a 2**31-op stream."""

    class Compiled(Exception):
        pass

    @pytest.fixture(autouse=True)
    def tripwire(self, monkeypatch):
        def compile_indices(*args):
            raise self.Compiled

        monkeypatch.setattr(
            compiled_module, "_compile_indices", compile_indices
        )

    @pytest.mark.parametrize(
        "record_count, operation_count",
        [(2**31 - 2, 1), (1, 2**31 - 2), (2**31 - 1, 0)],
    )
    def test_largest_int32_keyspace_passes_validation(
        self, record_count, operation_count
    ):
        with pytest.raises(self.Compiled):
            compile_workload(
                YCSB_WORKLOADS["YCSB-A"], record_count, operation_count
            )

    @pytest.mark.parametrize(
        "record_count, operation_count",
        [(2**31 - 1, 1), (1, 2**31 - 1), (2**31, 0), (5_000, 2**40)],
    )
    def test_keyspace_past_int32_is_refused(
        self, record_count, operation_count
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must fit an int32 key"):
                compile_workload(
                    YCSB_WORKLOADS["YCSB-A"], record_count, operation_count
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, peak

    def test_scan_length_past_uint16_is_refused(self):
        spec = YCSB_WORKLOADS["YCSB-E"]
        with pytest.raises(self.Compiled):
            compile_workload(
                dataclasses.replace(spec, max_scan_length=2**16 - 1), 10, 10
            )
        with pytest.raises(ValueError, match="must fit a uint16 scan"):
            compile_workload(
                dataclasses.replace(spec, max_scan_length=2**16), 10, 10
            )
        # A mix without scans never stores a scan length.
        with pytest.raises(self.Compiled):
            compile_workload(
                dataclasses.replace(
                    YCSB_WORKLOADS["YCSB-A"], max_scan_length=2**16
                ),
                10,
                10,
            )

    def test_cli_exits_2_with_one_line(self, capsys, tmp_path):
        out = str(tmp_path / "big.ops")
        argv = ["compile", "--records", "5000", "--ops", str(2**31), "--out", out]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro: error: record_count + operation_count must fit an int32 "
            f"key index: 5000 + {2**31} > {2**31 - 1}\n"
        )
        assert captured.out == ""
        assert not os.path.exists(out)


def _doctored(stream: CompiledStream, case: str) -> CompiledStream:
    if case == "op code 9":
        codes = np.array(stream.codes)
        codes[5] = 9
        return dataclasses.replace(stream, codes=codes)
    if case == "short key_indices":
        return dataclasses.replace(
            stream, key_indices=np.array(stream.key_indices[:-1])
        )
    if case == "key index -3":
        indices = np.array(stream.key_indices)
        indices[7] = -3
        return dataclasses.replace(stream, key_indices=indices)
    if case == "bounds past the end":
        return dataclasses.replace(
            stream,
            segment_bounds=np.array([0, 2 * len(stream)], dtype=np.int32),
        )
    assert case == "key index 1100"
    # 100 records + 1,000 ops: 1100 is the first index past the keyspace.
    indices = np.array(stream.key_indices)
    indices[3] = stream.record_count + len(stream)
    assert indices[3] == 1100
    return dataclasses.replace(stream, key_indices=indices)


class TestOpsContents:
    """A well-checksummed ``.ops`` file with contents no compiler writes
    raises :class:`OpsFormatError` at open, not an ``IndexError`` or a
    silently wrong replay later."""

    CASES = [
        "op code 9",
        "short key_indices",
        "key index -3",
        "bounds past the end",
        "key index 1100",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_doctored_section_is_rejected(self, tmp_path, case):
        stream = compile_workload(
            YCSB_WORKLOADS["YCSB-A"], 100, 1_000, epochs=1
        )
        path = str(tmp_path / "doctored.ops")
        save_ops(_doctored(stream, case), path)
        with pytest.raises(OpsFormatError, match="invalid .ops sections"):
            open_ops(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"count":2,', b'"count":9,'),  # segment_bounds overruns EOF
            (b'"seed":11', b'"seed":""'),
        ],
    )
    def test_doctored_meta_is_rejected(self, tmp_path, old, new):
        path = str(tmp_path / "meta.ops")
        save_ops(
            compile_workload(YCSB_WORKLOADS["YCSB-A"], 100, 1_000, seed=11),
            path,
        )
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        at = data.index(old)
        data[at : at + len(old)] = new
        data[16:48] = hashlib.sha256(bytes(data[48:])).digest()
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(OpsFormatError, match="unreadable .ops"):
            open_ops(path)

    def test_verify_false_still_checks_section_lengths(self, tmp_path):
        stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], 100, 1_000)
        path = str(tmp_path / "short.ops")
        save_ops(_doctored(stream, "short key_indices"), path)
        with pytest.raises(OpsFormatError, match="key_indices has 999"):
            open_ops(path, verify=False)
        save_ops(_doctored(stream, "op code 9"), path)
        open_ops(path, verify=False)  # values are the caller's to trust

    def test_compiled_streams_pass(self, tmp_path):
        for workload in WORKLOADS:
            stream = compile_workload(
                YCSB_WORKLOADS[workload], 50, 300, epochs=3
            )
            path = str(tmp_path / f"{workload}.ops")
            save_ops(stream, path)
            assert open_ops(path).meta() == stream.meta()
        empty = compile_workload(YCSB_WORKLOADS["YCSB-A"], 50, 0, epochs=3)
        save_ops(empty, path)
        assert len(open_ops(path)) == 0


# --------------------------------------------------------------------------
# The require() guard: a stream can never silently stand in for the
# wrong workload.


class TestRequire:
    def test_matching_parameters_pass(self):
        params = _params()
        stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], **params)
        stream.require(
            YCSB_WORKLOADS["YCSB-A"],
            params["record_count"],
            params["operation_count"],
            params["value_size"],
            params["theta"],
            params["seed"],
        )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("record_count", 121),
            ("operation_count", 699),
            ("value_size", 513),
            ("theta", 0.91),
            ("seed", 12),
        ],
    )
    def test_any_drifted_parameter_raises(self, field, value):
        params = _params()
        stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], **params)
        drifted = {**params, field: value}
        with pytest.raises(ValueError, match="compiled stream does not match"):
            stream.require(
                YCSB_WORKLOADS["YCSB-A"],
                drifted["record_count"],
                drifted["operation_count"],
                drifted["value_size"],
                drifted["theta"],
                drifted["seed"],
            )

    def test_wrong_workload_raises(self):
        params = _params()
        stream = compile_workload(YCSB_WORKLOADS["YCSB-A"], **params)
        with pytest.raises(ValueError, match="compiled stream does not match"):
            stream.require(
                YCSB_WORKLOADS["YCSB-B"],
                params["record_count"],
                params["operation_count"],
                params["value_size"],
                params["theta"],
                params["seed"],
            )

    def test_epoch_consumers_must_match_epochs(self):
        params = _params()
        stream = compile_workload(
            YCSB_WORKLOADS["YCSB-A"], epochs=4, **params
        )
        with pytest.raises(ValueError, match="compiled stream does not match"):
            stream.require(
                YCSB_WORKLOADS["YCSB-A"],
                params["record_count"],
                params["operation_count"],
                params["value_size"],
                params["theta"],
                params["seed"],
                epochs=5,
            )
