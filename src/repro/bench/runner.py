"""Experiment runner: YCSB over the KV store over (Viyojit | baseline).

Scaling
-------
The paper's setup is a 60 GB NV-DRAM region, a 17.5 GB initial Redis heap,
10M operations, and dirty budgets of 1-19 GB.  Simulating 4.6M pages and
10M operations in Python is impractical, so :class:`ExperimentScale`
shrinks everything coherently: the *ratios* that determine the results —
dirty budget as a fraction of the initial heap, NV-DRAM size as a multiple
of the heap, write working-set skew — are preserved, and budgets are still
quoted as "GB" by mapping the scaled heap to the paper's 17.5 GB.

Methodology notes mirrored from section 6.1:

* The budget fraction's denominator is the *initial* heap size (even for
  YCSB-D, which grows the heap).
* The baseline ("NV-DRAM") runs the same store with a full-size battery:
  no protection, tracking, or flushing.
* Latency is reported per operation type; the paper plots the most
  trap-prone type per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.histogram import LatencyHistogram
from repro.core.config import ViyojitConfig
from repro.core.runtime import FullBatteryNVDRAM, NVDRAMSystem, Viyojit
from repro.kvstore.store import KVStore
from repro.kvstore.heap import size_class
from repro.mem.machine import MachineModel
from repro.sim.clock import NS_PER_SEC
from repro.sim.events import Simulation
from repro.workloads.ycsb import WorkloadSpec, iter_op_batches, make_key

PAPER_HEAP_GB = 17.5  # the paper's initial dataset, used to label budgets


@dataclass(frozen=True)
class ExperimentScale:
    """Coherent scale-down of the paper's experimental setup.

    ``record_count`` keys of ``value_size``-byte values form the initial
    heap; the NV-DRAM region is ``region_heap_multiple`` times the heap
    (the paper: 60 GB / 17.5 GB ~ 3.4x).
    """

    record_count: int = 6_000
    operation_count: int = 24_000
    value_size: int = 976  # 24B header + 24B key + 976B value = one 1 KiB block
    region_heap_multiple: float = 3.4
    zipf_theta: float = 0.99
    seed: int = 42
    # The paper's machine has a ~1.5K-entry TLB against 15M NV-DRAM pages:
    # only the hot pages stay resident.  A scaled-down region must scale
    # the TLB down too, or the stale-dirty-bit mechanism (section 6.3)
    # disappears — with every translation resident, re-writes to hot pages
    # are never re-marked in the page table for *any* page, so victim
    # selection degrades uniformly instead of inverting against hot pages.
    tlb_entries: int = 64

    def __post_init__(self) -> None:
        if self.record_count <= 0:
            raise ValueError(f"record_count must be positive: {self.record_count}")
        if self.operation_count < 0:
            raise ValueError(
                f"operation_count must be non-negative: {self.operation_count}"
            )
        if self.value_size <= 0:
            raise ValueError(f"value_size must be positive: {self.value_size}")
        if self.region_heap_multiple < 1.2:
            raise ValueError(
                "region must comfortably exceed the heap: "
                f"multiple {self.region_heap_multiple}"
            )
        if self.tlb_entries <= 0:
            raise ValueError(f"tlb_entries must be positive: {self.tlb_entries}")

    def machine(self) -> MachineModel:
        """The machine model at this scale (TLB sized to the region)."""
        return MachineModel(tlb_entries=self.tlb_entries)

    @property
    def record_block_bytes(self) -> int:
        """Allocator block per record (header + key + value, size-classed)."""
        return size_class(24 + 24 + self.value_size)

    def heap_bytes(self, headroom: float = 1.6) -> int:
        """Heap mapping size: initial records plus insert headroom."""
        return int(self.record_count * self.record_block_bytes * headroom)

    @property
    def initial_heap_pages(self) -> int:
        """Pages holding the initial dataset — the budget denominator."""
        page = MachineModel().page_size
        return -(-self.record_count * self.record_block_bytes // page)

    @property
    def region_pages(self) -> int:
        page = MachineModel().page_size
        heap_pages = -(-self.heap_bytes() // page)
        extra = 64  # header/buckets/stats mappings
        return int((heap_pages + extra) * self.region_heap_multiple)

    def budget_pages_for_fraction(self, fraction: float) -> int:
        """Dirty budget (pages) for a budget of ``fraction`` x initial heap."""
        if fraction <= 0:
            raise ValueError(f"fraction must be positive: {fraction}")
        return max(1, int(round(fraction * self.initial_heap_pages)))

    def budget_gb_label(self, fraction: float) -> float:
        """The paper's x-axis: the budget in (paper-equivalent) GB."""
        return fraction * PAPER_HEAP_GB


@dataclass
class LatencySummary:
    """Average and tail latency for one operation type, in milliseconds."""

    count: int
    avg_ms: float
    p99_ms: float

    @classmethod
    def from_histogram(cls, histogram) -> "LatencySummary":
        """Summarize a :class:`repro.bench.histogram.LatencyHistogram`."""
        if histogram.count == 0:
            return cls(count=0, avg_ms=0.0, p99_ms=0.0)
        return cls(
            count=histogram.count,
            avg_ms=histogram.mean_ns / 1e6,
            p99_ms=histogram.percentile(99) / 1e6,
        )


def rate_per_sim_s(count: int, elapsed_ns: int, unit: float) -> float:
    """``count`` per second of simulated time, in ``unit``s (0 if none passed).

    The one formula behind throughput (ops, ``unit=1e3``: kops) and the
    SSD write rate (bytes, ``unit=1e6``: MB/s).  :class:`RunResult` and
    the figure builders over sweep payloads both call it, so a rate
    recomputed from a payload's integers is the live rate, bit for bit.
    """
    if elapsed_ns <= 0:
        return 0.0
    return count / (elapsed_ns / NS_PER_SEC) / unit


@dataclass
class RunResult:
    """Everything one (workload, system, budget) run produced."""

    workload: str
    system_kind: str  # "viyojit" | "nvdram"
    budget_fraction: Optional[float]
    budget_pages: Optional[int]
    ops_executed: int
    elapsed_ns: int
    latency: Dict[str, LatencySummary] = field(default_factory=dict)
    histograms: Dict[str, "LatencyHistogram"] = field(
        default_factory=dict, repr=False
    )
    ssd_bytes_written: int = 0
    viyojit_stats: Optional[dict] = None

    @property
    def throughput_kops(self) -> float:
        return rate_per_sim_s(self.ops_executed, self.elapsed_ns, 1e3)

    @property
    def avg_write_rate_mb_s(self) -> float:
        """Fig 9's metric: bytes flushed per second of workload time."""
        return rate_per_sim_s(self.ssd_bytes_written, self.elapsed_ns, 1e6)


def build_viyojit(
    scale: ExperimentScale,
    budget_fraction: float,
    flush_tlb_on_scan: bool = True,
    budget_pages: Optional[int] = None,
    victim_policy: str = ViyojitConfig.victim_policy,
) -> Tuple[Simulation, Viyojit]:
    """A started Viyojit system at a budget fraction of the initial heap.

    ``budget_pages`` overrides the fraction-derived budget with an exact
    page count — the cluster layer leases budgets from a shared battery
    pool, and a leased shard must run at precisely its lease, not at a
    budget re-derived from a per-machine fraction.
    """
    sim = Simulation()
    config = ViyojitConfig(
        dirty_budget_pages=(
            budget_pages
            if budget_pages is not None
            else scale.budget_pages_for_fraction(budget_fraction)
        ),
        flush_tlb_on_scan=flush_tlb_on_scan,
        victim_policy=victim_policy,
    )
    system = Viyojit(
        sim=sim, num_pages=scale.region_pages, config=config, machine=scale.machine()
    )
    system.start()
    return sim, system


def build_baseline(scale: ExperimentScale) -> Tuple[Simulation, FullBatteryNVDRAM]:
    """The full-battery NV-DRAM baseline at the same scale."""
    sim = Simulation()
    system = FullBatteryNVDRAM(
        sim=sim, num_pages=scale.region_pages, machine=scale.machine()
    )
    system.start()
    return sim, system


def value_bytes(key: bytes, size: int, nonce: int = 0) -> bytes:
    """Deterministic, cheap pseudo-random value payload."""
    from repro.kvstore.store import fnv1a

    seed = fnv1a(key + nonce.to_bytes(8, "little")).to_bytes(8, "little")
    reps = -(-size // 8)
    return (seed * reps)[:size]


def value_seeds_batch(keys, nonces) -> List[bytes]:
    """The 8-byte :func:`value_bytes` seeds for many (key, nonce) pairs.

    One vectorized FNV pass over ``key + nonce`` rows — bit-identical to
    calling ``fnv1a`` per pair (all YCSB keys share one width, so the
    rows pack into a rectangular matrix).  ``(seed * reps)[:size]``
    reconstructs the exact :func:`value_bytes` payload.
    """
    from repro.kvstore.hashing import fnv1a_rows

    if not keys:
        return []
    width = len(keys[0]) + 8
    blob = b"".join(
        key + int(nonce).to_bytes(8, "little")
        for key, nonce in zip(keys, nonces)
    )
    rows = np.frombuffer(blob, dtype=np.uint8).reshape(len(keys), width)
    seeds = fnv1a_rows(rows).astype("<u8").tobytes()
    return [seeds[i : i + 8] for i in range(0, len(seeds), 8)]


class YCSBRunner:
    """Loads a store and replays YCSB operation streams against it.

    Both phases execute through one :class:`BatchedSession`; the per-op
    loop it replaced lives on as the test oracle
    (``tests/bench/reference_runner.py``).
    """

    def __init__(
        self,
        sim: Simulation,
        system: NVDRAMSystem,
        scale: ExperimentScale,
        ordered: bool = False,
    ) -> None:
        self.sim = sim
        self.system = system
        self.scale = scale
        buckets = 1 << max(8, (scale.record_count - 1).bit_length())
        self.store = KVStore(
            system,
            num_buckets=buckets,
            heap_bytes=scale.heap_bytes(),
            ordered=ordered,
        )
        self._nonce = 0

    def load_batched(self, batch_size: int = 2048) -> None:
        """The YCSB load phase (excluded from measurements)."""
        session = BatchedSession(self)
        for start in range(0, self.scale.record_count, batch_size):
            stop = min(start + batch_size, self.scale.record_count)
            session.put([make_key(index) for index in range(start, stop)])

    def run_batched(
        self, spec: WorkloadSpec, batch_size: int = 2048, compiled=None
    ) -> RunResult:
        """Replay one workload, measuring per-op latency as clock deltas.

        Operations are generated in chunks (:func:`iter_op_batches`) and
        applied through one :class:`BatchedSession`.

        ``compiled`` is an optional pre-compiled stream
        (:class:`repro.workloads.compiled.CompiledStream`): batches then
        come from array slices — the same ops, no generator re-run.
        """
        session = BatchedSession(self)
        session.begin()
        for batch in iter_op_batches(
            spec,
            record_count=self.scale.record_count,
            operation_count=self.scale.operation_count,
            value_size=self.scale.value_size,
            theta=self.scale.zipf_theta,
            seed=self.scale.seed,
            batch_size=batch_size,
            compiled=compiled,
        ):
            session.apply(batch.kinds, batch.keys, batch.scan_lengths)
        return session.finish(spec)

    def _result(
        self, spec, executed, elapsed, samples, ssd, bytes_before
    ) -> RunResult:
        stats = getattr(self.system, "stats", None)
        return RunResult(
            workload=spec.name,
            system_kind="viyojit" if isinstance(self.system, Viyojit) else "nvdram",
            budget_fraction=(
                self.system.config.dirty_budget_pages / self.scale.initial_heap_pages
                if isinstance(self.system, Viyojit)
                else None
            ),
            budget_pages=(
                self.system.config.dirty_budget_pages
                if isinstance(self.system, Viyojit)
                else None
            ),
            ops_executed=executed,
            elapsed_ns=elapsed,
            latency={
                kind: LatencySummary.from_histogram(hist)
                for kind, hist in samples.items()
            },
            histograms=samples,
            ssd_bytes_written=(
                ssd.stats.bytes_written - bytes_before if ssd is not None else 0
            ),
            viyojit_stats=stats.summary() if stats is not None else None,
        )


class BatchedSession:
    """One batched replay against a runner's store.

    ``begin`` opens the measured window, ``apply`` executes one batch of
    operations with the dispatch loop inline, ``finish`` closes the
    window into a :class:`RunResult`.  ``put`` stores nonce-0 payloads
    outside any operation's latency sample: the load phase, and the
    cluster's migration handoff between epoch segments.

    The loop calls the store's own operations (``KVStore`` binds them
    over the system's lane; a read is ``lookup``, which charges the
    value but does not copy it, because the loop discards it), and
    every simulated quantity is
    byte-identical to executing the operations one at a time on the
    method-chain store of ``tests/kvstore/reference_store.py`` — the
    per-op oracle in ``tests/bench/reference_runner.py`` pins it.
    """

    def __init__(self, runner: YCSBRunner) -> None:
        self._runner = runner
        self._clock = runner.sim.clock
        self._ssd = getattr(runner.system, "ssd", None)
        self._samples: Dict[str, LatencyHistogram] = {}
        self._executed = 0
        self._started = 0
        self._bytes_before = 0

    def put(self, keys: Sequence[bytes]) -> None:
        """Store each key's nonce-0 payload (one hash pass for all).

        The keys' buckets are memoized first, in one hash pass too.
        """
        store = self._runner.store
        store.cache_buckets(keys)
        put = store.put
        size = self._runner.scale.value_size
        reps = -(-size // 8)
        for key, seed in zip(keys, value_seeds_batch(keys, [0] * len(keys))):
            put(key, (seed * reps)[:size])

    def begin(self) -> None:
        ssd = self._ssd
        self._bytes_before = ssd.stats.bytes_written if ssd is not None else 0
        self._started = self._clock._now

    def apply(
        self,
        kinds: Sequence[str],
        keys: Sequence[bytes],
        scan_lengths: Sequence[int] = (),
    ) -> None:
        """Execute one batch; per-op latency is the clock delta.

        The batch's deltas are collected in op order and recorded once per
        kind (kinds in order of first appearance), which leaves every
        histogram exactly as one ``record`` per op would.
        """
        runner = self._runner
        store = runner.store
        lookup, put, rmw, scan = (
            store.lookup, store.put, store.read_modify_write, store.scan
        )
        clock = self._clock
        size = runner.scale.value_size
        reps = -(-size // 8)
        # One vectorized hash pass covers every non-read op's payload
        # seed; every non-read op spends one nonce (scans too), so the
        # numbering is independent of how the stream is batched.
        mutating = [
            index for index, kind in enumerate(kinds) if kind != "read"
        ]
        nonce = runner._nonce
        seeds = value_seeds_batch(
            [keys[index] for index in mutating],
            range(nonce + 1, nonce + 1 + len(mutating)),
        )
        runner._nonce = nonce + len(mutating)
        seed_at = dict(zip(mutating, seeds))
        latencies = [0] * len(kinds)
        for index, kind in enumerate(kinds):
            op_start = clock._now
            if kind == "read":
                lookup(keys[index])
            elif kind == "rmw":
                seed = seed_at[index]
                rmw(
                    keys[index],
                    lambda value, _seed=seed: (
                        _seed * (-(-len(value) // 8))
                    )[: len(value)],
                )
            elif kind == "scan":
                scan(keys[index], scan_lengths[index])
            else:  # update | insert
                put(keys[index], (seed_at[index] * reps)[:size])
            latencies[index] = clock._now - op_start
        samples = self._samples
        for kind in dict.fromkeys(kinds):
            histogram = samples.get(kind)
            if histogram is None:
                histogram = samples[kind] = LatencyHistogram()
            histogram.record_many(
                [
                    latency
                    for latency, op_kind in zip(latencies, kinds)
                    if op_kind == kind
                ]
            )
        self._executed += len(kinds)

    def finish(self, spec: WorkloadSpec) -> RunResult:
        return self._runner._result(
            spec,
            self._executed,
            self._clock._now - self._started,
            self._samples,
            self._ssd,
            self._bytes_before,
        )


def run_workload(
    spec: WorkloadSpec,
    scale: ExperimentScale,
    budget_fraction: Optional[float],
    flush_tlb_on_scan: bool = True,
    compiled=None,
    victim_policy: str = ViyojitConfig.victim_policy,
) -> RunResult:
    """Convenience: build, load, run.  ``budget_fraction=None`` = baseline.

    ``compiled`` replays a pre-compiled op stream
    (:class:`repro.workloads.compiled.CompiledStream`) instead of
    re-running the generators — it must match the scale's parameters
    (checked), so simulated results cannot change.
    """
    if compiled is not None:
        compiled.require(
            spec,
            scale.record_count,
            scale.operation_count,
            scale.value_size,
            scale.zipf_theta,
            scale.seed,
        )
    if budget_fraction is None:
        sim, system = build_baseline(scale)
    else:
        sim, system = build_viyojit(
            scale,
            budget_fraction,
            flush_tlb_on_scan=flush_tlb_on_scan,
            victim_policy=victim_policy,
        )
    runner = YCSBRunner(sim, system, scale, ordered=spec.scan_proportion > 0)
    runner.load_batched()
    return runner.run_batched(spec, compiled=compiled)
