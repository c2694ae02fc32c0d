"""One-pass workload compiler: op streams as struct-of-arrays.

:func:`generate_operations` is a Python generator — perfectly
deterministic, but every consumer pays ~microseconds per op, and a
cluster's coordinator and shard workers all consume the *global*
stream.  This module lowers any seeded YCSB workload into flat numpy
arrays once:

====================  ======  =================================================
section               dtype   meaning
====================  ======  =================================================
``codes``             u1      op kind (0 read, 1 update, 2 insert, 3 rmw,
                              4 scan)
``key_indices``       <i4     the integer each key encodes (``make_key``
                              inverse); rotation already applied
``scan_lengths``      <u2     scan span, 0 for non-scans
``segment_bounds``    <i4     ``epochs + 1`` offsets; segment ``e`` is
                              ``[bounds[e], bounds[e + 1])``
====================  ======  =================================================

Seven bytes per op.  The widths are the replay's: key indices stay
below ``record_count + operation_count`` (inserts mint one new index
each), which :func:`compile_workload` requires to fit ``int32``, and a
scan spans at most ``max_scan_length`` keys, which it requires to fit
``uint16``; both are checked before anything is allocated.  A mutating
op writes ``value_size`` bytes and nothing else does, so the per-op
value size is not stored: :attr:`CompiledStream.value_sizes` derives
it from ``codes``.

The compiled stream is **element-for-element equivalent** to
:func:`generate_operations` (and, segmented and rotated, to the per-op
segment oracle in ``tests/cluster/reference_shard.py``): same RNG
streams, same interleaving of insert-driven ``grow_to`` calls, pinned by
the hypothesis suite in ``tests/workloads/test_compiled.py``.  Compiling
is a *wall-clock* optimization only — every simulated stat stays
byte-identical.

``.ops`` on-disk format (little-endian throughout)::

    offset  0  magic   b"REPROOPS"
    offset  8  u32     format version (2; any other is rejected)
    offset 12  u32     meta length in bytes
    offset 16  32 B    sha256 over every byte from offset 48 to EOF
    offset 48  meta    JSON: stream parameters + section table
    ...        pad     zeros to the next 8-byte boundary
    ...        data    sections in table order, each 8-byte aligned

Section offsets in the table are relative to the (aligned) end of the
meta block, so the header never needs a fixpoint pass.  The checksum
covers meta *and* data: :func:`open_ops` verifies it in 1 MiB chunks
before handing out arrays, and :meth:`CompiledStream.checksum` hashes
the chunks :func:`save_ops` writes (views of the section arrays, never
a ``bytes`` copy), so a saved file's integrity can be asserted without
reopening it.  The compiler fills each section in its dtype one
``_COMPILE_BLOCK`` at a time and rotates keys in place one segment at a
time: compile and save cost the stream plus one block.

:func:`open_ops` maps each section with ``np.memmap(..., mode="r")``:
zero-copy, page-cache shared, and safely distributable to process-pool
workers *by path* — read-only mappings cannot race.  (The P1
fork-safety lint pins that a writable memmap in a worker is still
flagged.)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.workloads.distributions import (
    CounterGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZIPFIAN_CONSTANT,
    uniforms,
)
from repro.workloads.ycsb import (
    OpBatch,
    Operation,
    WorkloadSpec,
    YCSB_WORKLOADS,
    generate_operations,
    key_index,
)

OPS_MAGIC = b"REPROOPS"
OPS_VERSION = 2

_HEADER_LEN = 48
_CHECKSUM_CHUNK = 1 << 20

#: Code vocabulary: index = code, value = :attr:`Operation.kind`.
KIND_NAMES: Tuple[str, ...] = ("read", "update", "insert", "rmw", "scan")
CODE_OF: Dict[str, int] = {kind: code for code, kind in enumerate(KIND_NAMES)}

CODE_READ, CODE_UPDATE, CODE_INSERT, CODE_RMW, CODE_SCAN = range(5)

#: Section table: fixed order and dtypes of the on-disk format.
_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("codes", "u1"),
    ("key_indices", "<i4"),
    ("scan_lengths", "<u2"),
    ("segment_bounds", "<i4"),
)

#: Largest ``record_count + operation_count`` an ``<i4`` key index holds.
_INDEX_LIMIT = int(np.iinfo(np.int32).max)

#: Longest scan a ``<u2`` scan length holds.
_SCAN_LIMIT = int(np.iinfo(np.uint16).max)

#: Chooser draws per classification block.  Any value yields the same
#: stream (the draws are consumed in stream order regardless of
#: chunking).
_COMPILE_BLOCK = 8192

_KEY_WIDTH = 24


class OpsFormatError(ValueError):
    """A ``.ops`` file is malformed or from an incompatible version."""


class OpsChecksumError(OpsFormatError):
    """A ``.ops`` file's contents do not match its stored sha256."""


def key_array(indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.workloads.ycsb.make_key`: an ``|S24`` array."""
    if len(indices) == 0:
        return np.empty(0, dtype=f"S{_KEY_WIDTH}")
    digits = np.char.zfill(indices.astype("S20"), 20)
    return np.char.add(b"user", digits)


def key_rows(indices: np.ndarray) -> np.ndarray:
    """Keys as a ``(n, 24)`` uint8 matrix for ``fnv1a_rows`` routing."""
    if len(indices) == 0:
        return np.empty((0, _KEY_WIDTH), dtype=np.uint8)
    keys = np.ascontiguousarray(key_array(indices))
    return keys.view(np.uint8).reshape(len(indices), _KEY_WIDTH)


@dataclass(frozen=True)
class CompiledStream:
    """A workload's full op stream in struct-of-arrays form.

    Arrays may be in-memory (fresh from :func:`compile_workload`) or
    read-only memmaps (from :func:`open_ops`); consumers cannot tell
    the difference.  Frozen: a stream is a value, shared freely.
    """

    workload: str
    record_count: int
    operation_count: int
    value_size: int
    theta: float
    seed: int
    epochs: int
    hotspot_rotate_keys: int
    codes: np.ndarray
    key_indices: np.ndarray
    scan_lengths: np.ndarray
    segment_bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def has_scans(self) -> bool:
        # Block by block, stopping at the first scan: a whole-stream
        # comparison would hold one bool per op.
        codes = self.codes
        return any(
            (codes[lo : lo + _COMPILE_BLOCK] == CODE_SCAN).any()
            for lo in range(0, len(codes), _COMPILE_BLOCK)
        )

    @property
    def value_sizes(self) -> np.ndarray:
        """Bytes each op writes, as read-only ``int32``: ``value_size``
        for update, insert and rmw, 0 for read and scan.

        Derived from ``codes`` on each access and not kept, so a stream
        holds 7 bytes per op however it is read; a caller that reads the
        sizes twice keeps the array itself.
        """
        sizes = _value_sizes(self.codes, self.value_size)
        sizes.flags.writeable = False
        return sizes

    def meta(self) -> Dict[str, object]:
        """The stream's identifying parameters (what ``require`` checks)."""
        return {
            "workload": self.workload,
            "record_count": self.record_count,
            "operation_count": self.operation_count,
            "value_size": self.value_size,
            "theta": self.theta,
            "seed": self.seed,
            "epochs": self.epochs,
            "hotspot_rotate_keys": self.hotspot_rotate_keys,
        }

    def require(
        self,
        spec: WorkloadSpec,
        record_count: int,
        operation_count: int,
        value_size: int,
        theta: float,
        seed: int,
        epochs: Optional[int] = None,
        hotspot_rotate_keys: Optional[int] = None,
    ) -> None:
        """Assert this stream is the one those parameters would compile.

        ``epochs`` / ``hotspot_rotate_keys`` default to "must be the
        plain un-rotated stream" — what :func:`generate_operations`
        equivalence needs; segmentation without rotation does not
        change the ops, so any ``epochs`` is acceptable then.  A caller
        that consumes ``segment_bounds`` (the cluster pipeline) passes
        ``epochs`` explicitly, which is then checked unconditionally.
        """
        wanted = {
            "workload": spec.name,
            "record_count": record_count,
            "operation_count": operation_count,
            "value_size": value_size,
            "theta": theta,
            "seed": seed,
        }
        have = self.meta()
        mismatched = {
            name: (have[name], value)
            for name, value in wanted.items()
            if have[name] != value
        }
        if hotspot_rotate_keys is None:
            if self.hotspot_rotate_keys != 0:
                mismatched["hotspot_rotate_keys"] = (
                    self.hotspot_rotate_keys,
                    0,
                )
        elif self.hotspot_rotate_keys != hotspot_rotate_keys:
            mismatched["hotspot_rotate_keys"] = (
                self.hotspot_rotate_keys,
                hotspot_rotate_keys,
            )
        if epochs is not None and self.epochs != epochs:
            mismatched["epochs"] = (self.epochs, epochs)
        if mismatched:
            detail = ", ".join(
                f"{name}: stream has {have!r}, run wants {want!r}"
                for name, (have, want) in sorted(mismatched.items())
            )
            raise ValueError(f"compiled stream does not match run: {detail}")

    # -- consumption -------------------------------------------------------

    @cached_property
    def key_table(self) -> np.ndarray:
        """The loaded keys: ``key_table[i] == make_key(i)`` for ``i <
        record_count``, as one object array built once per stream.

        Every op on a loaded key hands out the same ``bytes`` object,
        so its hash is computed once per run, and replay holds
        ``record_count`` keys however many ops it decodes.
        """
        return np.array(
            key_array(np.arange(self.record_count, dtype=np.int64)).tolist(),
            dtype=object,
        )

    def keys_at(self, indices: np.ndarray) -> List[bytes]:
        """The keys of a key-index array as Python bytes.

        Loaded keys come from :attr:`key_table`; inserted keys (index
        ``>= record_count``) are formatted per op.
        """
        table = self.key_table
        inserted = indices >= self.record_count
        if not inserted.any():
            return table[indices].tolist()
        keys = table[np.where(inserted, 0, indices)]
        keys[inserted] = key_array(indices[inserted]).tolist()
        return keys.tolist()

    def keys(self, lo: int = 0, hi: Optional[int] = None) -> List[bytes]:
        """The encoded keys of ``[lo, hi)`` as Python bytes."""
        stop = len(self) if hi is None else hi
        return self.keys_at(np.asarray(self.key_indices[lo:stop]))

    def segment_slice(self, epoch: int) -> Tuple[int, int]:
        """The op positions ``[lo, hi)`` belonging to epoch ``epoch``."""
        if not 0 <= epoch < self.epochs:
            raise ValueError(f"epoch {epoch} outside [0, {self.epochs})")
        return (
            int(self.segment_bounds[epoch]),
            int(self.segment_bounds[epoch + 1]),
        )

    def operations(self) -> Iterator[Operation]:
        """The stream as per-op :class:`Operation` tuples.

        Decodes in blocks so per-element numpy access never lands on
        the hot path; the yielded tuples are indistinguishable from
        :func:`generate_operations` output.
        """
        n = len(self)
        for lo in range(0, n, _COMPILE_BLOCK):
            hi = min(n, lo + _COMPILE_BLOCK)
            codes = np.asarray(self.codes[lo:hi])
            keys = self.keys(lo, hi)
            sizes = _value_sizes(codes, self.value_size).tolist()
            scans = self.scan_lengths[lo:hi].tolist()
            for code, key, size, scan in zip(
                codes.tolist(), keys, sizes, scans
            ):
                yield Operation(
                    KIND_NAMES[code], key, value_size=size, scan_length=scan
                )

    def batches(self, batch_size: int = 2048) -> Iterator[OpBatch]:
        """The stream as :class:`OpBatch` chunks (array-slice reads).

        Chunks are ``batch_size`` ops long (the last may be shorter),
        whatever backs the stream.  Each batch is decoded when it is
        asked for and nothing keeps it afterwards, so a replay holds
        the key table plus one batch: O(``record_count`` + batch) host
        memory for any op count.  A second replay decodes again.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        n = len(self)
        scans = self.has_scans
        for lo in range(0, n, batch_size):
            hi = min(n, lo + batch_size)
            kinds = tuple(
                KIND_NAMES[code] for code in self.codes[lo:hi].tolist()
            )
            keys = tuple(self.keys(lo, hi))
            if scans:
                yield OpBatch(
                    kinds=kinds,
                    keys=keys,
                    value_size=self.value_size,
                    scan_lengths=tuple(self.scan_lengths[lo:hi].tolist()),
                )
            else:
                yield OpBatch(
                    kinds=kinds, keys=keys, value_size=self.value_size
                )

    def checksum(self) -> str:
        """sha256 hex of the stream's canonical serialization.

        Identical to the digest stored in (and verified against) a
        ``.ops`` file written by :func:`save_ops`.
        """
        digest = hashlib.sha256()
        for chunk in _body(self):
            digest.update(chunk)
        return digest.hexdigest()


def _value_sizes(codes: np.ndarray, value_size: int) -> np.ndarray:
    """``value_size`` where ``codes`` mutate (update, insert, rmw: the
    contiguous codes 1..3), else 0, as ``int32``; no temporary is wider
    than one bool per op."""
    sizes = ((codes >= CODE_UPDATE) & (codes <= CODE_RMW)).astype(np.int32)
    sizes *= value_size
    return sizes


def _keygen(spec: WorkloadSpec, record_count: int, theta: float, seed: int):
    if spec.request_distribution == "zipfian":
        return ScrambledZipfianGenerator(record_count, theta, seed + 1)
    if spec.request_distribution == "latest":
        return LatestGenerator(record_count, theta, seed + 1)
    return UniformGenerator(record_count, seed + 1)


def _compile_indices(
    spec: WorkloadSpec,
    record_count: int,
    operation_count: int,
    value_size: int,
    theta: float,
    seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The un-rotated stream's three per-op sections, in table order.

    The one vectorized producer of YCSB operations (every batch of
    :func:`iter_op_batches` is a slice of its output): the chooser
    draws are consumed in blocks (stream-order invariant), kinds
    classify with one threshold compare, insert-free runs take batch
    ``sample`` draws, and every insert interleaves its ``grow_to``
    just like the per-op :func:`generate_operations`.  Scan mixes interleave
    ``randrange`` calls in the chooser stream, so they fall back to
    consuming :func:`generate_operations` op by op (correct, just not
    vectorized) and recover indices via :func:`key_index`.
    """
    codes_out = np.empty(operation_count, dtype=np.uint8)
    index_out = np.empty(operation_count, dtype=np.int32)
    scans_out = np.zeros(operation_count, dtype=np.uint16)

    if spec.scan_proportion > 0:
        ops = generate_operations(
            spec, record_count, operation_count, value_size, theta, seed
        )
        for at, op in enumerate(ops):
            codes_out[at] = CODE_OF[op.kind]
            index_out[at] = key_index(op.key)
            scans_out[at] = op.scan_length
        return codes_out, index_out, scans_out

    chooser = random.Random(seed)
    keygen = _keygen(spec, record_count, theta, seed)
    inserter = CounterGenerator(record_count)
    read_bound = spec.read_proportion
    update_bound = read_bound + spec.update_proportion
    insert_bound = update_bound + spec.insert_proportion

    done = 0
    while done < operation_count:
        n = min(_COMPILE_BLOCK, operation_count - done)
        draws = uniforms(chooser, n)
        codes = np.full(n, CODE_RMW, dtype=np.uint8)
        codes[draws < insert_bound] = CODE_INSERT
        codes[draws < update_bound] = CODE_UPDATE
        codes[draws < read_bound] = CODE_READ
        del draws  # freed before the key draws allocate theirs
        codes_out[done : done + n] = codes
        inserts_at = np.flatnonzero(codes == CODE_INSERT)
        if len(inserts_at) == 0:
            index_out[done : done + n] = keygen.sample(n)
            done += n
            continue
        position = 0
        for insert_at in inserts_at.tolist() + [n]:
            run = insert_at - position
            if run:
                index_out[done + position : done + insert_at] = keygen.sample(
                    run
                )
            if insert_at < n:
                new_index = inserter.next()
                keygen.grow_to(new_index + 1)
                index_out[done + insert_at] = new_index
            position = insert_at + 1
        done += n
    return codes_out, index_out, scans_out


def compile_workload(
    spec: WorkloadSpec,
    record_count: int,
    operation_count: int,
    value_size: int = 1024,
    theta: float = ZIPFIAN_CONSTANT,
    seed: int = 42,
    epochs: int = 1,
    hotspot_rotate_keys: int = 0,
) -> CompiledStream:
    """Lower one seeded workload run into a :class:`CompiledStream`.

    At the defaults the stream matches :func:`generate_operations`.
    ``epochs`` splits it into equal-count segments; ``hotspot_rotate_keys``
    shifts each non-insert op's key index by ``segment *
    hotspot_rotate_keys`` (mod ``record_count``), baked into
    ``key_indices`` — the zipfian hotspot rotates through the keyspace
    at epoch boundaries, which is the skew-shifting workload the EWMA
    predictors exist for.  Inserts are never rotated (their keys extend
    the keyspace rather than address it).
    """
    if record_count <= 0:
        raise ValueError(f"record_count must be positive: {record_count}")
    if operation_count < 0:
        raise ValueError(
            f"operation_count must be non-negative: {operation_count}"
        )
    if value_size <= 0:
        raise ValueError(f"value_size must be positive: {value_size}")
    if epochs <= 0:
        raise ValueError(f"epochs must be positive: {epochs}")
    if hotspot_rotate_keys < 0:
        raise ValueError(
            f"hotspot_rotate_keys must be non-negative: {hotspot_rotate_keys}"
        )
    if record_count + operation_count > _INDEX_LIMIT:
        raise ValueError(
            "record_count + operation_count must fit an int32 key index: "
            f"{record_count} + {operation_count} > {_INDEX_LIMIT}"
        )
    if spec.scan_proportion > 0 and spec.max_scan_length > _SCAN_LIMIT:
        raise ValueError(
            f"max_scan_length must fit a uint16 scan length: "
            f"{spec.max_scan_length} > {_SCAN_LIMIT}"
        )

    codes, indices, scan_lengths = _compile_indices(
        spec, record_count, operation_count, value_size, theta, seed
    )
    # Segment e starts at the first position p with p * epochs //
    # operation_count >= e, which is ceil(e * operation_count / epochs).
    segment_bounds = np.array(
        [-(-epoch * operation_count // epochs) for epoch in range(epochs + 1)],
        dtype=np.int32,
    )
    for epoch in range(1, epochs):
        shift = epoch * hotspot_rotate_keys % record_count
        if shift:
            lo, hi = segment_bounds[epoch], segment_bounds[epoch + 1]
            segment = indices[lo:hi]
            # Inserts mint indices >= record_count, so they stay put.  A
            # loaded index at or past ``wrap`` wraps by subtracting
            # ``wrap``, so no intermediate leaves int32.
            wrap = record_count - shift
            wrapping = segment >= wrap
            wrapping &= segment < record_count
            np.add(segment, shift, out=segment, where=segment < wrap)
            np.subtract(segment, wrap, out=segment, where=wrapping)

    return CompiledStream(
        workload=spec.name,
        record_count=record_count,
        operation_count=operation_count,
        value_size=value_size,
        theta=theta,
        seed=seed,
        epochs=epochs,
        hotspot_rotate_keys=hotspot_rotate_keys,
        codes=codes,
        key_indices=indices,
        scan_lengths=scan_lengths,
        segment_bounds=segment_bounds,
    )


# -- .ops binary format ----------------------------------------------------


def _body(stream: CompiledStream) -> Iterator[memoryview]:
    """Every byte past the fixed header, one chunk at a time: the meta
    JSON, then each section's array viewed in place (copied only if not
    contiguous in its dtype), each zero-padded to an 8-byte boundary."""
    table: List[Dict[str, object]] = []
    arrays: List[np.ndarray] = []
    at = 0
    for name, dtype in _SECTIONS:
        array = np.ascontiguousarray(getattr(stream, name), dtype=dtype)
        table.append(
            {"name": name, "dtype": dtype, "count": len(array), "offset": at}
        )
        arrays.append(array)
        at += array.nbytes + -array.nbytes % 8
    meta = dict(stream.meta())
    meta["sections"] = table
    meta_blob = json.dumps(
        meta, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    yield memoryview(meta_blob)
    yield memoryview(bytes(-(_HEADER_LEN + len(meta_blob)) % 8))
    for array in arrays:
        yield memoryview(array).cast("B")
        yield memoryview(bytes(-array.nbytes % 8))


def save_ops(stream: CompiledStream, path: str) -> str:
    """Write ``stream`` as a ``.ops`` file, hashing each chunk as it is
    written; returns the sha256 hex.  ``path`` must not be the file
    ``stream`` is mapped from."""
    chunks = _body(stream)
    meta_blob = next(chunks)
    digest = hashlib.sha256(meta_blob)
    with open(path, "wb") as handle:
        handle.write(
            OPS_MAGIC
            + OPS_VERSION.to_bytes(4, "little")
            + len(meta_blob).to_bytes(4, "little")
            + bytes(32)
            + meta_blob
        )
        for chunk in chunks:
            digest.update(chunk)
            handle.write(chunk)
        handle.seek(16)
        handle.write(digest.digest())
    return digest.hexdigest()


def ops_checksum(path: str) -> str:
    """The sha256 hex a ``.ops`` file claims for its contents."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER_LEN)
    if len(header) < _HEADER_LEN or header[:8] != OPS_MAGIC:
        raise OpsFormatError(f"not a .ops file: {path}")
    return header[16:48].hex()


def open_ops(path: str, verify: bool = True) -> CompiledStream:
    """Open a ``.ops`` file zero-copy (read-only ``np.memmap`` sections).

    ``verify`` streams the file once through sha256 and raises
    :class:`OpsChecksumError` on any corruption before a single array
    element is served, then checks every section's values in one
    vectorized pass (:func:`_check_sections`), so a well-checksummed
    file with contents no compiler writes raises :class:`OpsFormatError`
    instead of crashing or replaying wrong keys.  ``verify=False``
    reads only the header and meta: section lengths are still checked,
    their contents are trusted.  The mappings are ``mode="r"``: safe to
    open in any number of pool workers at once (the page cache shares
    the physical bytes).
    """
    with open(path, "rb") as handle:
        header = handle.read(_HEADER_LEN)
        if len(header) < _HEADER_LEN or header[:8] != OPS_MAGIC:
            raise OpsFormatError(f"not a .ops file: {path}")
        version = int.from_bytes(header[8:12], "little")
        if version != OPS_VERSION:
            raise OpsFormatError(
                f"unsupported .ops version {version} "
                f"(this build reads {OPS_VERSION}): {path}"
            )
        meta_len = int.from_bytes(header[12:16], "little")
        stored = header[16:48]
        if verify:
            digest = hashlib.sha256()
            for chunk in iter(lambda: handle.read(_CHECKSUM_CHUNK), b""):
                digest.update(chunk)
            if digest.digest() != stored:
                raise OpsChecksumError(
                    f"checksum mismatch (corrupt or truncated): {path}"
                )
            handle.seek(_HEADER_LEN)
        meta_blob = handle.read(meta_len)
        if len(meta_blob) < meta_len:
            raise OpsFormatError(f"truncated .ops meta: {path}")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except ValueError as exc:
        raise OpsFormatError(f"unreadable .ops meta: {path}: {exc}") from exc
    for field_name in (
        "workload",
        "record_count",
        "operation_count",
        "value_size",
        "theta",
        "seed",
        "epochs",
        "hotspot_rotate_keys",
        "sections",
    ):
        if field_name not in meta:
            raise OpsFormatError(f"missing .ops meta field {field_name!r}")
    if meta["workload"] not in YCSB_WORKLOADS:
        raise OpsFormatError(f"unknown workload in .ops: {meta['workload']!r}")
    data_start = _HEADER_LEN + meta_len
    data_start += -data_start % 8
    arrays: Dict[str, np.ndarray] = {}
    table = {section["name"]: section for section in meta["sections"]}
    for name, dtype in _SECTIONS:
        section = table.get(name)
        if section is None or section["dtype"] != dtype:
            raise OpsFormatError(f"missing .ops section {name!r}: {path}")
        try:
            count = int(section["count"])
            arrays[name] = (
                np.memmap(
                    path,
                    dtype=np.dtype(dtype),
                    mode="r",
                    offset=data_start + int(section["offset"]),
                    shape=(count,),
                )
                if count
                else np.empty(0, dtype=np.dtype(dtype))
            )
        except (TypeError, ValueError) as exc:
            raise OpsFormatError(
                f"unreadable .ops section {name!r}: {path}: {exc}"
            ) from exc
    try:
        stream = CompiledStream(
            workload=str(meta["workload"]),
            record_count=int(meta["record_count"]),
            operation_count=int(meta["operation_count"]),
            value_size=int(meta["value_size"]),
            theta=float(meta["theta"]),
            seed=int(meta["seed"]),
            epochs=int(meta["epochs"]),
            hotspot_rotate_keys=int(meta["hotspot_rotate_keys"]),
            codes=arrays["codes"],
            key_indices=arrays["key_indices"],
            scan_lengths=arrays["scan_lengths"],
            segment_bounds=arrays["segment_bounds"],
        )
    except (TypeError, ValueError) as exc:
        raise OpsFormatError(f"unreadable .ops meta: {path}: {exc}") from exc
    problems = _check_sections(stream, values=verify)
    if problems:
        raise OpsFormatError(
            f"invalid .ops sections: {path}: {'; '.join(problems)}"
        )
    return stream


def _check_sections(stream: CompiledStream, values: bool) -> List[str]:
    """What makes ``stream`` unreplayable; empty when it is sound.

    Lengths come from the meta alone.  ``values`` also reads every
    element, one numpy reduction per check: codes inside
    :data:`KIND_NAMES`, key indices in ``[0, record_count +
    operation_count)``, and ``segment_bounds`` non-decreasing from 0 to
    ``operation_count``.
    """
    n = stream.operation_count
    if stream.record_count < 1 or stream.epochs < 1 or n < 0:
        return [
            "record_count and epochs must be positive and "
            f"operation_count non-negative: {stream.record_count}, "
            f"{stream.epochs}, {n}"
        ]
    problems = [
        f"{name} has {len(getattr(stream, name))} entries, "
        f"operation_count is {n}"
        for name in ("codes", "key_indices", "scan_lengths")
        if len(getattr(stream, name)) != n
    ]
    bounds = stream.segment_bounds
    if len(bounds) != stream.epochs + 1:
        problems.append(
            f"segment_bounds has {len(bounds)} entries, "
            f"epochs + 1 is {stream.epochs + 1}"
        )
    if problems or not values:
        return problems
    if n and int(stream.codes.max()) >= len(KIND_NAMES):
        problems.append(
            f"op code {int(stream.codes.max())} outside "
            f"[0, {len(KIND_NAMES)})"
        )
    if n:
        low, high = int(stream.key_indices.min()), int(stream.key_indices.max())
        span = stream.record_count + n
        if low < 0 or high >= span:
            problems.append(
                f"key_indices run {low} .. {high}, outside [0, {span})"
            )
    first, last = int(bounds[0]), int(bounds[-1])
    falls = (np.diff(bounds.astype(np.int64)) < 0).any()
    if first != 0 or last != n or falls:
        problems.append(
            f"segment_bounds must not decrease from 0 to {n}: "
            f"runs {first} .. {last}"
        )
    return problems


__all__ = [
    "CODE_OF",
    "CompiledStream",
    "KIND_NAMES",
    "OPS_MAGIC",
    "OPS_VERSION",
    "OpsChecksumError",
    "OpsFormatError",
    "compile_workload",
    "key_array",
    "key_rows",
    "open_ops",
    "ops_checksum",
    "save_ops",
]
