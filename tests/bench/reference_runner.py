"""Reference oracle: the per-op YCSB executor, kept out of ``src/``.

This is ``YCSBRunner.load``/``run``/``_execute`` as they ran before the
batched session became the only executor: one :class:`Operation` at a
time through ``get/put/read_modify_write/scan``, one ``value_bytes``
hash per payload, one latency sample per clock delta.  Its store is the
method-chain :class:`~tests.kvstore.reference_store.ReferenceKVStore`,
not ``src/``'s lane-bound ``KVStore``, so it shares no dispatch,
payload, batching or KV-operation code with
:class:`repro.bench.runner.BatchedSession`, which is what makes it an
oracle: ``tests/perf/test_batched_equivalence.py`` requires
:func:`repro.bench.runner.run_workload` to reproduce its
:class:`RunResult` exactly, and ``tests/cluster/reference_shard.py``
builds the per-op shard worker on it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.bench.histogram import LatencyHistogram
from repro.bench.runner import (
    ExperimentScale,
    RunResult,
    YCSBRunner,
    build_baseline,
    build_viyojit,
    value_bytes,
)
from repro.core.runtime import NVDRAMSystem
from repro.sim.events import Simulation
from repro.workloads.ycsb import (
    Operation,
    WorkloadSpec,
    generate_operations,
    load_operations,
)

from tests.kvstore.reference_store import ReferenceKVStore


class ReferenceRunner(YCSBRunner):
    """A :class:`YCSBRunner` that executes one operation per call."""

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
        self.store = ReferenceKVStore(  # type: ignore[assignment]
            system,
            num_buckets=buckets,
            heap_bytes=scale.heap_bytes(),
            ordered=ordered,
        )
        self._nonce = 0

    def load(self) -> None:
        """The YCSB load phase (excluded from measurements)."""
        for op in load_operations(self.scale.record_count, self.scale.value_size):
            self.store.put(op.key, value_bytes(op.key, self.scale.value_size))

    def _execute(self, op: Operation) -> str:
        """Run one operation; returns the latency bucket it belongs to."""
        if op.kind == "read":
            self.store.get(op.key)
            return "read"
        self._nonce += 1
        if op.kind == "update":
            self.store.put(
                op.key, value_bytes(op.key, self.scale.value_size, self._nonce)
            )
            return "update"
        if op.kind == "insert":
            self.store.put(
                op.key, value_bytes(op.key, self.scale.value_size, self._nonce)
            )
            return "insert"
        if op.kind == "rmw":
            nonce = self._nonce

            def mutate(value: bytes) -> bytes:
                return value_bytes(op.key, len(value), nonce)

            self.store.read_modify_write(op.key, mutate)
            return "rmw"
        if op.kind == "scan":
            self.store.scan(op.key, op.scan_length)
            return "scan"
        raise ValueError(f"unknown operation kind: {op.kind}")

    def run(
        self,
        spec: WorkloadSpec,
        operations: Optional[Iterable[Operation]] = None,
    ) -> RunResult:
        """Replay one workload, measuring per-op latency as clock deltas."""
        if operations is None:
            operations = generate_operations(
                spec,
                record_count=self.scale.record_count,
                operation_count=self.scale.operation_count,
                value_size=self.scale.value_size,
                theta=self.scale.zipf_theta,
                seed=self.scale.seed,
            )
        samples: Dict[str, LatencyHistogram] = {}
        ssd = getattr(self.system, "ssd", None)
        bytes_before = ssd.stats.bytes_written if ssd is not None else 0
        started = self.sim.now
        executed = 0
        for op in operations:
            op_start = self.sim.now
            bucket = self._execute(op)
            samples.setdefault(bucket, LatencyHistogram()).record(
                self.sim.now - op_start
            )
            executed += 1
        elapsed = self.sim.now - started
        return self._result(spec, executed, elapsed, samples, ssd, bytes_before)


def run_workload_per_op(
    spec: WorkloadSpec,
    scale: ExperimentScale,
    budget_fraction: Optional[float],
) -> RunResult:
    """Build, load, run — per-op.  ``budget_fraction=None`` = baseline."""
    if budget_fraction is None:
        sim, system = build_baseline(scale)
    else:
        sim, system = build_viyojit(scale, budget_fraction)
    runner = ReferenceRunner(
        sim, system, scale, ordered=spec.scan_proportion > 0
    )
    runner.load()
    return runner.run(spec)
