"""The trace replay is byte-identical to a per-op replay.

The golden-trace fixtures pin ``run_traced_workload``'s dump; this module
pins that its one replay loop — :func:`replay_ops`, which drives
:func:`iter_op_batches` chunks through ``NVDRAMSystem.run_ops`` —
observes nothing a replay of the per-op oracle stream through
``system.write``/``system.read`` would not: not the event log, not the
metrics snapshot, not the substrate counters.  The one-op slices the
fault paths replay are held to the same dump.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.harness import (
    SYSTEM_KINDS,
    TraceWorkload,
    _trace_dump,
    build_system,
    iter_op_batches,
    replay_ops,
    run_traced_workload,
)
from repro.obs.tracer import RecordingTracer
from repro.sim.events import Simulation
from tests.obs.reference_trace import reference_workload_ops

PAGE_SIZE = 4096


def _dump(spec: TraceWorkload, replay) -> str:
    """``replay(system, mapping)`` on a fresh traced system, then drain."""
    tracer = RecordingTracer()
    sim = Simulation()
    system = build_system(sim, spec, tracer)
    replay(system, system.mmap(spec.hot_pages * system.region.page_size))
    drain = getattr(system, "drain", None)
    if drain is not None:
        drain()
    return json.dumps(_trace_dump(spec, sim, system, tracer), sort_keys=True)


def _per_op(spec: TraceWorkload):
    def replay(system, mapping):
        page_size = system.region.page_size
        ops = reference_workload_ops(spec, page_size)
        for op, (is_write, page, offset, payload) in enumerate(ops):
            addr = mapping.addr(page * page_size + offset)
            if is_write:
                system.write(addr, payload)
            elif system.read(addr, len(payload)) != payload:
                raise AssertionError(f"read-back mismatch at op {op}")

    return replay


def _one_op_slices(spec: TraceWorkload):
    def replay(system, mapping):
        done = list(replay_ops(system, mapping.base_addr, spec, per_op=True))
        assert done == list(range(1, spec.ops + 1))

    return replay


@pytest.mark.parametrize("batch_size", [1, 3, 64, 1_000])
def test_op_batches_flatten_to_workload_ops(batch_size):
    spec = TraceWorkload()
    actual = []
    for batch in iter_op_batches(spec, PAGE_SIZE, batch_size=batch_size):
        assert batch.start_op == len(actual)
        actual.extend(zip(batch.writes, batch.pages, batch.offsets, batch.payloads))
    assert actual == list(reference_workload_ops(spec, PAGE_SIZE))


@pytest.mark.parametrize("system", SYSTEM_KINDS)
def test_batched_trace_dump_is_byte_identical(system):
    spec = TraceWorkload(system=system)
    expected = _dump(spec, _per_op(spec))
    assert json.dumps(run_traced_workload(spec), sort_keys=True) == expected
    assert _dump(spec, _one_op_slices(spec)) == expected


def test_batch_size_validated():
    with pytest.raises(ValueError, match="batch_size"):
        next(iter_op_batches(TraceWorkload(), PAGE_SIZE, batch_size=0))
