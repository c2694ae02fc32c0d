"""The per-op trace fold, kept as the oracle for the compiled stream.

This is :func:`repro.obs.harness.iter_workload_ops` as it ran before the
trace stream was compiled: one zipfian draw per op and a running
``written`` dict (insertion order = first write) that decides every
read's target and expected bytes.  ``repro.obs.harness`` now resolves
the same reads with array searches over whole chunks; the tests in
``tests/obs/test_trace_stream.py`` hold its flattened batches equal to
this generator element for element.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.obs.harness import TraceWorkload, WorkloadOp
from repro.workloads.distributions import ZipfianGenerator


def reference_payload(op: int, page: int, value_bytes: int) -> bytes:
    stamp = f"op{op:06d}p{page:04d}|".encode()
    repeats = -(-value_bytes // len(stamp))
    return (stamp * repeats)[:value_bytes]


def reference_workload_ops(
    spec: TraceWorkload, page_size: int
) -> Iterator[WorkloadOp]:
    """The op stream of ``spec``, one op at a time."""
    zipf = ZipfianGenerator(spec.hot_pages, theta=spec.theta, seed=spec.seed)
    # page -> (offset, payload) of its latest write, the read-back oracle.
    written: Dict[int, Tuple[int, bytes]] = {}
    for op in range(spec.ops):
        page = zipf.next()
        if written and (op + 1) % spec.read_every == 0:
            # Deterministic re-read of an earlier write: same zipf page
            # if seen, else the page whose *first* write is latest
            # (re-writes keep their dict position).
            target = page if page in written else next(reversed(written))
            offset, expect = written[target]
            yield WorkloadOp("read", op, target, offset, expect)
            continue
        payload = reference_payload(op, page, spec.value_bytes)
        offset = (op * 131) % (page_size - spec.value_bytes)
        written[page] = (offset, payload)
        yield WorkloadOp("write", op, page, offset, payload)
