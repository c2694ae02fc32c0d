"""YCSB workload mixes A/B/C/D/F (section 6.1 of the paper).

====  ==========================  =========================  ============
name  mix                         request distribution       paper's gloss
====  ==========================  =========================  ============
A     50% read / 50% update       scrambled zipfian          interactive apps creating content rapidly
B     95% read / 5% update        scrambled zipfian          document serving
C     100% read                   scrambled zipfian          image-serving cache front end
D     95% read / 5% insert        latest                     social-media posts
F     50% read / 50% RMW          scrambled zipfian          user-record databases
====  ==========================  =========================  ============

YCSB-E (scans) needs cross-key transactions the paper's NV-DRAM Redis does
not support, so it is omitted here exactly as in the paper.

Operations are produced as a deterministic stream of
:class:`Operation` tuples that any executor (the bench runner, an example
script) replays against a KV store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.workloads.distributions import (
    CounterGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZIPFIAN_CONSTANT,
)

import random


@dataclass(frozen=True)
class Operation:
    """One benchmark operation.

    ``kind`` is one of ``read``, ``update``, ``insert``, ``rmw``,
    ``scan``.  ``value_size`` is set for mutating operations;
    ``scan_length`` for scans.
    """

    kind: str
    key: bytes
    value_size: int = 0
    scan_length: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """An operation mix plus a request distribution."""

    name: str
    read_proportion: float
    update_proportion: float
    insert_proportion: float
    rmw_proportion: float
    request_distribution: str  # "zipfian" | "latest" | "uniform"
    description: str = ""
    scan_proportion: float = 0.0
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion
            + self.scan_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions must sum to 1, got {total}")
        if self.request_distribution not in ("zipfian", "latest", "uniform"):
            raise ValueError(
                f"unknown request distribution: {self.request_distribution}"
            )
        if self.max_scan_length <= 0:
            raise ValueError(
                f"max_scan_length must be positive: {self.max_scan_length}"
            )


YCSB_A = WorkloadSpec(
    name="YCSB-A",
    read_proportion=0.5,
    update_proportion=0.5,
    insert_proportion=0.0,
    rmw_proportion=0.0,
    request_distribution="zipfian",
    description="update heavy: interactive applications creating content rapidly",
)

YCSB_B = WorkloadSpec(
    name="YCSB-B",
    read_proportion=0.95,
    update_proportion=0.05,
    insert_proportion=0.0,
    rmw_proportion=0.0,
    request_distribution="zipfian",
    description="read mostly: document serving, rare edits",
)

YCSB_C = WorkloadSpec(
    name="YCSB-C",
    read_proportion=1.0,
    update_proportion=0.0,
    insert_proportion=0.0,
    rmw_proportion=0.0,
    request_distribution="zipfian",
    description="read only: image-serving front-end cache",
)

YCSB_D = WorkloadSpec(
    name="YCSB-D",
    read_proportion=0.95,
    update_proportion=0.0,
    insert_proportion=0.05,
    rmw_proportion=0.0,
    request_distribution="latest",
    description="read latest: social-media posts read right after insertion",
)

YCSB_E = WorkloadSpec(
    name="YCSB-E",
    read_proportion=0.0,
    update_proportion=0.0,
    insert_proportion=0.05,
    rmw_proportion=0.0,
    scan_proportion=0.95,
    request_distribution="zipfian",
    description="short ranges: threaded conversations, scans over recent posts "
    "(omitted in the paper for lack of cross-key support; enabled here by "
    "the ordered skip-list index)",
)

YCSB_F = WorkloadSpec(
    name="YCSB-F",
    read_proportion=0.5,
    update_proportion=0.0,
    insert_proportion=0.0,
    rmw_proportion=0.5,
    request_distribution="zipfian",
    description="read-modify-write: user-record databases",
)

YCSB_WORKLOADS = {
    spec.name: spec
    for spec in (YCSB_A, YCSB_B, YCSB_C, YCSB_D, YCSB_E, YCSB_F)
}


def make_key(index: int) -> bytes:
    """YCSB-style key for item ``index``."""
    return b"user%020d" % index


def key_index(key: bytes) -> int:
    """Inverse of :func:`make_key`: the item index a key encodes.

    The stream compiler uses this to lower per-op keys back to indices,
    so it must reject anything that did not come out of
    :func:`make_key` rather than guess.
    """
    if len(key) != 24 or not key.startswith(b"user"):
        raise ValueError(f"not a YCSB key: {key!r}")
    digits = key[4:]
    if not digits.isdigit():
        raise ValueError(f"not a YCSB key: {key!r}")
    return int(digits)


def generate_operations(
    spec: WorkloadSpec,
    record_count: int,
    operation_count: int,
    value_size: int = 1024,
    theta: float = ZIPFIAN_CONSTANT,
    seed: int = 42,
) -> Iterator[Operation]:
    """Deterministic operation stream for one workload run.

    ``record_count`` keys are assumed pre-loaded (the load phase); inserts
    extend the key space and, under the latest distribution, shift request
    popularity toward the new keys, as YCSB does.
    """
    if record_count <= 0:
        raise ValueError(f"record_count must be positive: {record_count}")
    if operation_count < 0:
        raise ValueError(f"operation_count must be non-negative: {operation_count}")
    if value_size <= 0:
        raise ValueError(f"value_size must be positive: {value_size}")

    chooser = random.Random(seed)
    if spec.request_distribution == "zipfian":
        keygen = ScrambledZipfianGenerator(record_count, theta, seed + 1)
    elif spec.request_distribution == "latest":
        keygen = LatestGenerator(record_count, theta, seed + 1)
    else:
        keygen = UniformGenerator(record_count, seed + 1)
    inserter = CounterGenerator(record_count)

    boundaries = (
        spec.read_proportion,
        spec.read_proportion + spec.update_proportion,
        spec.read_proportion + spec.update_proportion + spec.insert_proportion,
        spec.read_proportion
        + spec.update_proportion
        + spec.insert_proportion
        + spec.rmw_proportion,
    )
    for _ in range(operation_count):
        draw = chooser.random()
        if draw < boundaries[0]:
            yield Operation("read", make_key(keygen.next()))
        elif draw < boundaries[1]:
            yield Operation("update", make_key(keygen.next()), value_size)
        elif draw < boundaries[2]:
            new_index = inserter.next()
            keygen.grow_to(new_index + 1)
            yield Operation("insert", make_key(new_index), value_size)
        elif draw < boundaries[3]:
            yield Operation("rmw", make_key(keygen.next()), value_size)
        else:
            yield Operation(
                "scan",
                make_key(keygen.next()),
                scan_length=1 + chooser.randrange(spec.max_scan_length),
            )


@dataclass(frozen=True)
class OpBatch:
    """A chunk of the operation stream in structure-of-arrays form.

    ``kinds`` uses the same vocabulary as :attr:`Operation.kind`; ``keys``
    is parallel to it.  ``scan_lengths`` is parallel too and zero for
    non-scan operations.  Flattening every batch of
    :func:`iter_op_batches` reproduces :func:`generate_operations`
    element-for-element — the batched executors rely on that equivalence,
    and ``tests/workloads`` pins it.
    """

    kinds: Tuple[str, ...]
    keys: Tuple[bytes, ...]
    value_size: int
    scan_lengths: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.kinds)

    def operations(self) -> Iterator[Operation]:
        """The batch as per-op :class:`Operation` tuples."""
        scans = self.scan_lengths or (0,) * len(self.kinds)
        for kind, key, scan_length in zip(self.kinds, self.keys, scans):
            yield Operation(
                kind,
                key,
                value_size=0 if kind in ("read", "scan") else self.value_size,
                scan_length=scan_length,
            )


def iter_op_batches(
    spec: WorkloadSpec,
    record_count: int,
    operation_count: int,
    value_size: int = 1024,
    theta: float = ZIPFIAN_CONSTANT,
    seed: int = 42,
    batch_size: int = 2048,
    compiled=None,
) -> Iterator[OpBatch]:
    """The :func:`generate_operations` stream, materialized in chunks.

    Batches are slices of the workload's compiled stream
    (:func:`repro.workloads.compiled.compile_workload`), so the
    operations are identical for any ``batch_size``.  ``compiled`` is an
    optional pre-compiled :class:`repro.workloads.compiled.CompiledStream`
    to slice instead of compiling here; it must have been compiled from
    exactly these parameters (checked), so the output is the same
    stream either way.
    """
    from repro.workloads.compiled import compile_workload

    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive: {batch_size}")
    if compiled is None:
        compiled = compile_workload(
            spec, record_count, operation_count, value_size, theta, seed
        )
    else:
        compiled.require(
            spec, record_count, operation_count, value_size, theta, seed
        )
    yield from compiled.batches(batch_size)


def load_operations(
    record_count: int, value_size: int = 1024
) -> Iterator[Operation]:
    """The load phase: insert ``record_count`` records sequentially."""
    if record_count <= 0:
        raise ValueError(f"record_count must be positive: {record_count}")
    for index in range(record_count):
        yield Operation("insert", make_key(index), value_size)
