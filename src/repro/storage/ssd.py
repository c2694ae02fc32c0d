"""Virtual-time SSD model.

Service model
-------------
The device has ``queue_depth`` independent service slots (flash channel
parallelism).  An IO submitted at time *t* occupies the earliest-free slot:

    start  = max(t, slot_free_time)
    finish = start + latency + size / bandwidth

This yields the two behaviours the experiments depend on:

* Peak IOPS saturates at ``queue_depth / service_time`` — with the default
  25.6 us per-4KiB-write service time and 16 slots, ~625 K-IOPS, matching
  the paper's device.
* A synchronous eviction behind a busy queue observes queueing delay,
  which is what throttles write-heavy YCSB workloads at small dirty
  budgets (section 6.3's "NV-DRAM writes being throttled by writes to the
  SSD").

Wear
----
``bytes_written`` accumulates all traffic; :meth:`SSD.drive_writes` turns
it into full-drive program-erase cycles so the Fig 9 discussion (proactive
flushing is an acceptable wear trade-off) can be checked quantitatively.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs.events import SSDWrite
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.clock import NS_PER_SEC


class SSDFaultError(IOError):
    """An injected device failure rejected one submission.

    Raised out of :meth:`SSD.submit_write` / :meth:`SSD.submit_read` when
    a fault hook (see :mod:`repro.faults`) decides the submission fails.
    The submission consumes no service slot and is not counted in
    :class:`SSDStats`; callers (the flusher) retry with backoff.
    """

    def __init__(self, op: str, now_ns: int, size_bytes: int) -> None:
        super().__init__(
            f"injected SSD {op} failure at t={now_ns} ({size_bytes} bytes)"
        )
        self.op = op
        self.now_ns = now_ns
        self.size_bytes = size_bytes


#: Fault-injection hook signature: ``(op, now_ns, size_bytes)`` returns
#: extra device latency in ns (usually 0) or raises :class:`SSDFaultError`.
SSDFaultHook = Callable[[str, int, int], int]


@dataclass
class SSDStats:
    """Cumulative device counters."""

    writes: int = 0
    reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    def write_rate_bytes_per_s(self, elapsed_ns: int) -> float:
        """Average write rate over ``elapsed_ns`` of virtual time."""
        if elapsed_ns <= 0:
            return 0.0
        return self.bytes_written * NS_PER_SEC / elapsed_ns


class SSD:
    """Bounded-queue SSD; all submissions and completions in virtual ns."""

    #: Observability hook; the runtime swaps in a recording tracer.
    tracer: Tracer = NULL_TRACER

    #: Fault-injection hook (:mod:`repro.faults`); consulted before a
    #: submission is accepted.  May raise :class:`SSDFaultError` to fail
    #: the submission or return extra latency ns to delay it.
    fault_hook: Optional[SSDFaultHook] = None

    def __init__(
        self,
        write_bandwidth_bytes_per_s: float = 2_000_000_000.0,
        read_bandwidth_bytes_per_s: float = 3_000_000_000.0,
        write_latency_ns: int = 23_500,
        read_latency_ns: int = 80_000,
        queue_depth: int = 16,
        capacity_bytes: int = 280 * 1024**3,
    ) -> None:
        if write_bandwidth_bytes_per_s <= 0 or read_bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidths must be positive")
        if write_latency_ns < 0 or read_latency_ns < 0:
            raise ValueError("latencies must be non-negative")
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive: {queue_depth}")
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.write_bandwidth = float(write_bandwidth_bytes_per_s)
        self.read_bandwidth = float(read_bandwidth_bytes_per_s)
        self.write_latency_ns = int(write_latency_ns)
        self.read_latency_ns = int(read_latency_ns)
        self.queue_depth = int(queue_depth)
        self.capacity_bytes = int(capacity_bytes)
        # Min-heap of slot free times; length == queue_depth.
        self._slots: List[int] = [0] * self.queue_depth
        heapq.heapify(self._slots)
        self.stats = SSDStats()

    def submit_write(self, now_ns: int, size_bytes: int) -> int:
        """Submit a write at ``now_ns``; returns its completion time.

        Raises :class:`SSDFaultError` when an armed fault hook rejects
        the submission; a rejected write consumes no slot and leaves the
        device counters untouched.
        """
        if size_bytes <= 0:
            raise ValueError(f"size must be positive: {size_bytes}")
        extra_ns = 0
        if self.fault_hook is not None:
            extra_ns = self.fault_hook("write", now_ns, size_bytes)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size_bytes
        # The earliest-free slot serves the IO; one heapreplace leaves the
        # same slot multiset as popping it and pushing ``finish``.
        slots = self._slots
        start = slots[0]
        if start < now_ns:
            start = now_ns
        finish = (
            start
            + (self.write_latency_ns + extra_ns)
            + round(size_bytes * NS_PER_SEC / self.write_bandwidth)
        )
        heapq.heapreplace(slots, finish)
        if self.tracer.enabled:
            self.tracer.emit(
                SSDWrite(
                    t=now_ns,
                    size_bytes=size_bytes,
                    queued_ns=start - now_ns,
                    completion_ns=finish,
                )
            )
        return finish

    def submit_read(self, now_ns: int, size_bytes: int) -> int:
        """Submit a read at ``now_ns``; returns its completion time.

        Subject to the same fault hook as :meth:`submit_write`.
        """
        if size_bytes <= 0:
            raise ValueError(f"size must be positive: {size_bytes}")
        extra_ns = 0
        if self.fault_hook is not None:
            extra_ns = self.fault_hook("read", now_ns, size_bytes)
        self.stats.reads += 1
        self.stats.bytes_read += size_bytes
        slots = self._slots
        finish = (
            max(now_ns, slots[0])
            + (self.read_latency_ns + extra_ns)
            + round(size_bytes * NS_PER_SEC / self.read_bandwidth)
        )
        heapq.heapreplace(slots, finish)
        return finish

    def earliest_free_slot(self) -> int:
        """Time at which the next service slot becomes free."""
        return self._slots[0]

    def outstanding(self, now_ns: int) -> int:
        """Number of IOs still in service at ``now_ns``."""
        return sum(1 for free_at in self._slots if free_at > now_ns)

    def drive_writes(self) -> float:
        """Full-drive program-erase cycles implied by the traffic so far."""
        return self.stats.bytes_written / self.capacity_bytes

    def peak_write_iops(self, io_size: int = 4096) -> float:
        """Theoretical peak write IOPS at the given IO size."""
        service_ns = self.write_latency_ns + io_size * NS_PER_SEC / self.write_bandwidth
        return self.queue_depth * NS_PER_SEC / service_ns
