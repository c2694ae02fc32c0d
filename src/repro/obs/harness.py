"""Seeded trace workload: one zipfian write/read mix, fully observable.

This is the workload behind the ``repro trace`` CLI subcommand, the
golden-trace regression fixtures (``tests/obs/golden/``), the
crash-point explorer and the repo benchmark's ``page_write_b02``.
Everything that could perturb the event stream is pinned: the key
distribution, the write offsets, the payload bytes, and the read
schedule are all pure functions of the spec, so two runs with the same
:class:`TraceWorkload` produce byte-identical trace dumps.

The stream is compiled, like the YCSB streams of
:mod:`repro.workloads.compiled`, one fixed-size chunk at a time.  Which
ops read is fixed by the op index alone (every ``read_every``-th, once
op 0 has written), and a read's target and expected bytes follow from
two facts per page — the op of its first write and the op of its latest
write — so the running "what has been written" fold is a handful of
array searches per chunk rather than a Python loop per op (see
:func:`_fold`).  :func:`iter_op_batches` and :func:`iter_workload_ops`
are two views of that one implementation; the per-op fold it replaced is
the test oracle ``tests/obs/reference_trace.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.config import ViyojitConfig
from repro.core.runtime import (
    FullBatteryNVDRAM,
    HardwareViyojit,
    Mapping,
    NVDRAMSystem,
    Viyojit,
)
from repro.obs.export import events_to_rows
from repro.obs.tracer import RecordingTracer
from repro.sim.events import Simulation
from repro.workloads.distributions import ZipfianGenerator

#: CLI/system-name -> runtime class.
SYSTEM_KINDS = ("viyojit", "nvdram", "hardware")

#: Ops per fold step (rounded to whole batches).  Any value yields the
#: same stream; a few thousand keeps the per-chunk arrays small.
_CHUNK_OPS = 2048

#: Powers of ten: a payload stamp's op field widens past 6 digits at
#: 10**6 and its page field past 4 at 10**4.
_POW10 = 10 ** np.arange(19, dtype=np.int64)
#: ASCII of 0..9999 zero-padded to 4 digits, one row each.
_DIGITS4 = (
    np.arange(10_000, dtype=np.uint16)[:, None]
    // np.array([1000, 100, 10, 1], dtype=np.uint16)
    % 10
    + ord("0")
).astype(np.uint8)


@dataclass(frozen=True)
class TraceWorkload:
    """One deterministic trace run's full parameterisation."""

    system: str = "viyojit"
    num_pages: int = 192
    dirty_budget_pages: int = 12
    hot_pages: int = 64
    ops: int = 400
    value_bytes: int = 96
    read_every: int = 5          # every Nth op re-reads an earlier write
    seed: int = 7
    theta: float = 0.99

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_KINDS:
            raise ValueError(
                f"unknown system {self.system!r}; choose from {SYSTEM_KINDS}"
            )
        if not 0 < self.hot_pages <= self.num_pages:
            raise ValueError(
                f"hot_pages must be in (0, num_pages={self.num_pages}]: "
                f"{self.hot_pages}"
            )
        if self.ops <= 0:
            raise ValueError(f"ops must be positive: {self.ops}")
        if self.value_bytes <= 0:
            raise ValueError(f"value_bytes must be positive: {self.value_bytes}")
        if self.read_every <= 0:
            raise ValueError(f"read_every must be positive: {self.read_every}")

    def as_meta(self) -> Dict[str, object]:
        meta: Dict[str, object] = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.system == "nvdram":
            meta["dirty_budget_pages"] = None  # baseline has no budget
        return meta


def build_system(
    sim: Simulation, spec: TraceWorkload, tracer: Optional[RecordingTracer] = None
) -> NVDRAMSystem:
    """Construct (and start) the runtime variant named by ``spec.system``."""
    if spec.system == "nvdram":
        system: NVDRAMSystem = FullBatteryNVDRAM(
            sim, num_pages=spec.num_pages, tracer=tracer
        )
    else:
        cls = Viyojit if spec.system == "viyojit" else HardwareViyojit
        system = cls(
            sim,
            num_pages=spec.num_pages,
            config=ViyojitConfig(dirty_budget_pages=spec.dirty_budget_pages),
            tracer=tracer,
        )
    system.start()
    return system


@dataclass(frozen=True)
class WorkloadOp:
    """One operation of the deterministic op stream.

    ``payload`` is the bytes to write for a ``"write"`` op, and the
    expected read-back bytes (the durability oracle) for a ``"read"`` op.
    """

    kind: str  # "write" | "read"
    op: int
    page: int
    offset: int
    payload: bytes


@dataclass(frozen=True)
class WorkloadOpBatch:
    """A chunk of the trace op stream in structure-of-arrays form.

    Parallel tuples; ``writes[i]`` is True for a write, and ``payloads``
    carries the write bytes / read oracle exactly as
    :attr:`WorkloadOp.payload` does.  The batches of
    :func:`iter_op_batches` and the ops of :func:`iter_workload_ops` are
    one stream; the per-op oracle it must equal is
    ``tests/obs/reference_trace.py``.
    """

    writes: Tuple[bool, ...]
    pages: Tuple[int, ...]
    offsets: Tuple[int, ...]
    payloads: Tuple[bytes, ...]
    start_op: int = 0

    def __len__(self) -> int:
        return len(self.writes)

    def workload_ops(self) -> Iterator[WorkloadOp]:
        for index, is_write in enumerate(self.writes):
            yield WorkloadOp(
                "write" if is_write else "read",
                self.start_op + index,
                self.pages[index],
                self.offsets[index],
                self.payloads[index],
            )


def _fold(
    spec: TraceWorkload, chunk: int
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(start, writes, pages, sources)`` for each ``chunk`` ops.

    ``pages[i]`` is the page op ``start + i`` touches and ``sources[i]``
    the op whose write it carries: the op itself for a write, the write
    a read must observe for a read.  A read re-reads its zipf draw if
    that page has been written, else the page whose *first* write is
    latest (the per-op fold kept an insertion-ordered dict, and a
    re-write does not move a key), and observes the latest write to its
    target before it.  Both are searches over the chunk's writes,
    falling back to the state carried between chunks: each page's first
    and latest write op, and the newest first-written page.
    """
    zipf = ZipfianGenerator(spec.hot_pages, theta=spec.theta, seed=spec.seed)
    never = spec.ops
    first = np.full(spec.hot_pages, never, dtype=np.int64)
    latest = np.full(spec.hot_pages, -1, dtype=np.int64)
    newest = -1
    for start in range(0, spec.ops, chunk):
        count = min(chunk, spec.ops - start)
        pages = zipf.sample(count)
        sources = np.arange(start, start + count, dtype=np.int64)
        writes = (sources + 1) % spec.read_every != 0
        if start == 0:
            writes[0] = True  # nothing to re-read yet

        # The chunk's writes ordered by (page, op); a group per page.
        at = np.flatnonzero(writes)
        by_pos = at[np.argsort(pages[at], kind="stable")]
        by_page = pages[by_pos]
        head = np.ones(len(by_page), dtype=bool)
        head[1:] = by_page[1:] != by_page[:-1]
        tail = np.ones(len(by_page), dtype=bool)
        tail[:-1] = head[1:]

        # Pages written for the first time ever, in first-write order.
        fresh = by_page[head]
        fresh_ops = by_pos[head] + start
        unseen = first[fresh] == never
        fresh, fresh_ops = fresh[unseen], fresh_ops[unseen]
        by_time = np.argsort(fresh_ops)
        fresh, fresh_ops = fresh[by_time], fresh_ops[by_time]
        first[fresh] = fresh_ops

        reads = np.flatnonzero(~writes)
        if len(reads):
            read_ops = reads + start
            drawn = pages[reads]
            newest_before = np.concatenate(([newest], fresh))[
                np.searchsorted(fresh_ops, read_ops)
            ]
            target = np.where(first[drawn] < read_ops, drawn, newest_before)
            # Latest write to ``target`` before the read: in this chunk
            # if the (page, op) search lands in the target's group.
            keys = by_page * count + by_pos
            below = np.searchsorted(keys, target * count + reads)
            prior_page = np.concatenate(([-1], by_page))[below]
            prior_op = np.concatenate(([-1], by_pos + start))[below]
            pages[reads] = target
            sources[reads] = np.where(
                prior_page == target, prior_op, latest[target]
            )

        latest[by_page[tail]] = by_pos[tail] + start
        if len(fresh):
            newest = int(fresh[-1])
        yield start, writes, pages, sources


def _put_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``values`` as zero-padded ASCII decimals filling ``out``'s rows."""
    end = out.shape[1]
    while True:
        take = min(4, end)
        group = np.take(_DIGITS4, values % 10_000, axis=0)
        out[:, end - take : end] = group[:, 4 - take :]
        end -= take
        if not end:
            return
        values = values // 10_000


def _stamped(
    sources: np.ndarray,
    pages: np.ndarray,
    op_digits: int,
    page_digits: int,
    value_bytes: int,
) -> List[bytes]:
    """Payloads for rows whose stamps all have the given digit counts."""
    width = op_digits + page_digits + 4
    stamp = np.empty((len(sources), width), dtype=np.uint8)
    stamp[:, 0] = ord("o")
    stamp[:, 1] = ord("p")
    _put_digits(sources, stamp[:, 2 : 2 + op_digits])
    stamp[:, 2 + op_digits] = ord("p")
    _put_digits(pages, stamp[:, 3 + op_digits : -1])
    stamp[:, -1] = ord("|")
    # Whole stamps side by side, cut to ``value_bytes`` and copied to a
    # contiguous matrix, so each row reads out as one bytes object.
    tiled = np.tile(stamp, (1, -(-value_bytes // width)))
    rows = np.ascontiguousarray(tiled[:, :value_bytes])
    return rows.view(f"S{value_bytes}")[:, 0].tolist()


def _payloads(
    sources: np.ndarray, pages: np.ndarray, value_bytes: int
) -> List[bytes]:
    """``f"op{source:06d}p{page:04d}|"`` repeated to ``value_bytes``, per row."""
    if sources.max() < _POW10[6] and pages.max() < _POW10[4]:
        return _stamped(sources, pages, 6, 4, value_bytes)
    op_digits = 6 + np.searchsorted(_POW10[6:], sources, side="right")
    page_digits = 4 + np.searchsorted(_POW10[4:], pages, side="right")
    widths = op_digits * 64 + page_digits
    payloads: List[bytes] = [b""] * len(sources)
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        stamped = _stamped(
            sources[rows], pages[rows], width // 64, width % 64, value_bytes
        )
        for row, payload in zip(rows.tolist(), stamped):
            payloads[row] = payload
    return payloads


def iter_op_batches(
    spec: TraceWorkload, page_size: int, batch_size: int = 512
) -> Iterator[WorkloadOpBatch]:
    """The op stream of ``spec`` as a pure function of the spec, in batches.

    Shared by :func:`run_traced_workload`, the fault-injection /
    crash-point harnesses (:mod:`repro.faults`) and the repo benchmark:
    every consumer replays the exact same zipfian write/read mix, so a
    crash instant observed in one run can be reproduced in another.
    Identical ops in identical order for any ``batch_size``.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive: {batch_size}")
    if spec.value_bytes >= page_size:
        raise ValueError(
            f"value_bytes ({spec.value_bytes}) must be smaller than "
            f"page_size ({page_size})"
        )
    return _batches(spec, page_size, batch_size)


def _batches(
    spec: TraceWorkload, page_size: int, batch_size: int
) -> Iterator[WorkloadOpBatch]:
    modulus = page_size - spec.value_bytes
    chunk = batch_size * max(1, _CHUNK_OPS // batch_size)
    for start, writes, pages, sources in _fold(spec, chunk):
        offsets = sources * 131 % modulus
        for lo in range(0, len(writes), batch_size):
            hi = lo + batch_size
            yield WorkloadOpBatch(
                writes=tuple(writes[lo:hi].tolist()),
                pages=tuple(pages[lo:hi].tolist()),
                offsets=tuple(offsets[lo:hi].tolist()),
                payloads=tuple(
                    _payloads(sources[lo:hi], pages[lo:hi], spec.value_bytes)
                ),
                start_op=start + lo,
            )


def iter_workload_ops(
    spec: TraceWorkload, page_size: int
) -> Iterator[WorkloadOp]:
    """The :func:`iter_op_batches` stream one :class:`WorkloadOp` at a time."""
    batches = iter_op_batches(spec, page_size)
    return (wop for batch in batches for wop in batch.workload_ops())


def apply_op(
    system: NVDRAMSystem, mapping: Mapping, page_size: int, wop: WorkloadOp
) -> None:
    """Apply one :class:`WorkloadOp` to a started system.

    Read ops verify the oracle and raise ``AssertionError`` on mismatch —
    in-memory contents surviving the budget machinery is part of what the
    trace harness checks.
    """
    addr = mapping.addr(wop.page * page_size + wop.offset)
    if wop.kind == "read":
        data = system.read(addr, len(wop.payload))
        if data != wop.payload:
            raise AssertionError(
                f"read-back mismatch on page {wop.page} at op {wop.op}"
            )
    else:
        system.write(addr, wop.payload)


def run_traced_workload(
    spec: TraceWorkload, tracer: Optional[RecordingTracer] = None
) -> Dict[str, object]:
    """Replay the spec'd workload and return the full observable dump.

    The stream goes through :meth:`~repro.core.runtime.NVDRAMSystem.run_ops`
    in :func:`iter_op_batches` chunks (each op is exactly one
    :func:`apply_op`, and the reads verify their oracle), then the system
    drains.  The returned dict is the ``repro trace`` JSON document: see
    :func:`_trace_dump`.
    """
    if tracer is None:
        tracer = RecordingTracer()
    sim = Simulation()
    system = build_system(sim, spec, tracer)
    page_size = system.region.page_size
    base_addr = system.mmap(spec.hot_pages * page_size).base_addr
    for batch in iter_op_batches(spec, page_size):
        addresses = [
            base_addr + page * page_size + offset
            for page, offset in zip(batch.pages, batch.offsets)
        ]
        system.run_ops(batch.writes, addresses, batch.payloads)
    drain = getattr(system, "drain", None)
    if drain is not None:
        drain()
    return _trace_dump(spec, sim, system, tracer)


def _trace_dump(
    spec: TraceWorkload,
    sim: Simulation,
    system: NVDRAMSystem,
    tracer: RecordingTracer,
) -> Dict[str, object]:
    """The ``repro trace`` JSON document of a finished, drained replay.

    Workload meta, the ordered event log, the metrics snapshot (counters,
    gauges, histograms, epoch timeline), hardware-substrate counters, and
    the runtime's :class:`~repro.core.stats.ViyojitStats` summary (absent
    for the full-battery baseline, which keeps no such stats).
    """
    return {
        "meta": {"workload": spec.as_meta(), "page_size": system.region.page_size},
        "events": events_to_rows(tracer.events),
        "dropped_events": tracer.dropped,
        "metrics": tracer.metrics.snapshot(),
        "stats": (
            system.stats.summary() if hasattr(system, "stats") else None
        ),
        "substrate": {
            "mmu": {
                "read_accesses": system.mmu.read_accesses,
                "write_accesses": system.mmu.write_accesses,
                "faults": system.mmu.faults,
            },
            "tlb": {
                "hits": system.tlb.hits,
                "misses": system.tlb.misses,
                "flushes": system.tlb.flushes,
                "single_invalidations": system.tlb.single_invalidations,
                "capacity_evictions": system.tlb.capacity_evictions,
            },
            "ssd": (
                {
                    "writes": system.ssd.stats.writes,
                    "bytes_written": system.ssd.stats.bytes_written,
                }
                if hasattr(system, "ssd")
                else None
            ),
        },
        "final": {
            "now_ns": sim.now,
            "dirty_pages": (
                len(system.dirty_pages()) if hasattr(system, "tracker") else None
            ),
        },
    }
