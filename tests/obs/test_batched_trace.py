"""The trace replay is byte-identical to a per-op ``apply_op`` replay.

The golden-trace fixtures pin ``run_traced_workload``'s dump; this module
pins that its one replay loop — :func:`iter_op_batches` chunks through
``NVDRAMSystem.run_ops`` — observes nothing a per-op replay of the
per-op oracle stream would not: not the event log, not the metrics
snapshot, not the substrate counters.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.harness import (
    SYSTEM_KINDS,
    TraceWorkload,
    _trace_dump,
    apply_op,
    build_system,
    iter_op_batches,
    iter_workload_ops,
    run_traced_workload,
)
from repro.obs.tracer import RecordingTracer
from repro.sim.events import Simulation
from tests.obs.reference_trace import reference_workload_ops

PAGE_SIZE = 4096


def _per_op_dump(spec: TraceWorkload):
    tracer = RecordingTracer()
    sim = Simulation()
    system = build_system(sim, spec, tracer)
    page_size = system.region.page_size
    mapping = system.mmap(spec.hot_pages * page_size)
    for wop in reference_workload_ops(spec, page_size):
        apply_op(system, mapping, page_size, wop)
    drain = getattr(system, "drain", None)
    if drain is not None:
        drain()
    return _trace_dump(spec, sim, system, tracer)


@pytest.mark.parametrize("batch_size", [1, 3, 64, 1_000])
def test_op_batches_flatten_to_workload_ops(batch_size):
    spec = TraceWorkload()
    expected = list(reference_workload_ops(spec, PAGE_SIZE))
    actual = []
    for batch in iter_op_batches(spec, PAGE_SIZE, batch_size=batch_size):
        actual.extend(batch.workload_ops())
    assert actual == expected
    assert list(iter_workload_ops(spec, PAGE_SIZE)) == expected


@pytest.mark.parametrize("system", SYSTEM_KINDS)
def test_batched_trace_dump_is_byte_identical(system):
    spec = TraceWorkload(system=system)
    assert json.dumps(run_traced_workload(spec), sort_keys=True) == json.dumps(
        _per_op_dump(spec), sort_keys=True
    )


def test_batch_size_validated():
    with pytest.raises(ValueError, match="batch_size"):
        next(iter_op_batches(TraceWorkload(), PAGE_SIZE, batch_size=0))
