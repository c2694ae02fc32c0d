"""Raw zipfian page stores with verified read-backs; no KV store at all.

Three ways to apply the same seeded stream, all simulated-identical:

``batched``
    ``obs.harness.iter_op_batches`` -> ``NVDRAMSystem.run_ops``, then
    ``drain()`` — the timed form.
``per_op``
    ``system.write`` / ``system.read`` per operation, recording each
    store's virtual-time latency.  ``run_ops`` exposes no per-op clock, so
    the discarded warm-up repetition runs this way and supplies
    ``sim_mean_op_ms``; its digest must equal the batched repetitions'.
``spans``
    ``per_op`` plus a host span around every call, split by whether
    ``stats.write_faults`` advanced during it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import adapters as A
from common import Rep, check_budget, ratio, substrate_counts, substrate_stats, wall
from spans import SpanLog, clock_ns

Oracle = Dict[int, Tuple[int, bytes]]  # page -> (offset, payload) last written


def region_pages(params: Dict[str, object]) -> int:
    return int(params["num_pages"])  # type: ignore[call-overload]


def _workload(params: Dict[str, object], seed: int, system: str):
    return A.TraceWorkload(
        system=system,
        num_pages=params["num_pages"],
        dirty_budget_pages=params["dirty_budget_pages"],
        hot_pages=params["hot_pages"],
        ops=params["ops"],
        value_bytes=params["value_bytes"],
        read_every=params["read_every"],
        seed=seed,
    )


def _final_oracle(spec, page_size: int) -> Oracle:
    """What every written page must hold once the stream has been applied."""
    oracle: Oracle = {}
    for batch in A.iter_page_batches(spec, page_size):
        for is_write, page, offset, payload in zip(
            batch.writes, batch.pages, batch.offsets, batch.payloads
        ):
            if is_write:
                oracle[page] = (offset, payload)
    return oracle


def run_rep(
    params: Dict[str, object],
    seed: int,
    mode: str = "batched",
    spans: Optional[SpanLog] = None,
    system_kind: str = "viyojit",
    tracer=None,
    corrupt: bool = False,
) -> Rep:
    """One repetition on a freshly built system.

    ``corrupt=True`` overwrites one written page after the stream has
    been applied (``run.py --selfcheck``): the final read-back must count
    exactly one failure instead of raising.
    """
    spec = _workload(params, seed, system_kind)
    started = wall()
    sim = A.Simulation()
    system = A.build_system(sim, spec, tracer)
    page_size = system.region.page_size
    mapping = system.mmap(spec.hot_pages * page_size)
    oracle = _final_oracle(spec, page_size)
    built = wall()

    histogram = None
    mismatches = 0
    if mode == "batched":
        _run_batched(system, mapping, spec, page_size)
    else:
        histogram = A.LatencyHistogram()
        mismatches = _run_per_op(
            system, mapping, spec, page_size, histogram, spans
        )
    drain = getattr(system, "drain", None)
    if drain is not None:
        drain_span = spans.open("core.drain") if spans else -1
        drain()
        if spans:
            spans.close(drain_span)
    finished = wall()

    stats = substrate_stats(system)
    stats["ops_executed"] = spec.ops
    if system_kind == "viyojit":
        check_budget(stats, spec.dirty_budget_pages, "page_write")
    counts = substrate_counts(stats)
    for name in (
        "gets", "puts", "chain_steps_per_op", "relocations", "heap_allocs",
        "heap_fragmentation",
    ):
        counts[f"kvstore.{name}"] = 0  # no KV store in this workload
    sim_metrics: Dict[str, Optional[float]] = {
        "sim_kops_per_s": spec.ops / (sim.now / 1e9) / 1e3,
    }
    if histogram is not None and histogram.count:
        sim_metrics["sim_mean_op_ms"] = histogram.mean_ns / 1e6
        sim_metrics["sim_p99_op_ms"] = histogram.percentile(99) / 1e6
        counts["core.sim_p99_over_mean"] = ratio(
            histogram.percentile(99), histogram.mean_ns
        )

    if corrupt:
        page, (offset, payload) = next(iter(oracle.items()))
        system.write(
            mapping.addr(page * page_size + offset), b"\xff" * len(payload)
        )
    for page, (offset, payload) in oracle.items():
        data = system.read(mapping.addr(page * page_size + offset), len(payload))
        if data != payload:
            mismatches += 1
    return Rep(
        setup_s=built - started,
        run_s=finished - built,
        ops=spec.ops,
        attempted=spec.ops + len(oracle),
        failed=mismatches,
        stats=stats,
        sim=sim_metrics,
        counts=counts,
    )


def _run_batched(system, mapping, spec, page_size: int) -> None:
    base_addr = mapping.base_addr
    for batch in A.iter_page_batches(spec, page_size):
        addresses = [
            base_addr + page * page_size + offset
            for page, offset in zip(batch.pages, batch.offsets)
        ]
        # verify=True: a wrong read-back raises, and run.py counts the
        # whole repetition as failed.
        system.run_ops(batch.writes, addresses, batch.payloads)


def _run_per_op(system, mapping, spec, page_size, histogram, spans) -> int:
    """Apply the stream one public call at a time; returns read mismatches."""
    base_addr = mapping.base_addr
    sim = system.sim
    runtime_stats = getattr(system, "stats", None)
    record = histogram.record
    write, read = system.write, system.read
    mismatches = 0
    root = spans.open("pagewrite.run") if spans else -1
    add = spans.add if spans else None
    batches = iter(A.iter_page_batches(spec, page_size))
    while True:
        decode = spans.open("workloads.decode", root) if spans else -1
        batch = next(batches, None)
        if spans:
            spans.close(decode)
        if batch is None:
            break
        for is_write, page, offset, payload in zip(
            batch.writes, batch.pages, batch.offsets, batch.payloads
        ):
            addr = base_addr + page * page_size + offset
            if not is_write:
                t0 = clock_ns()
                data = read(addr, len(payload))
                if add:
                    add("core.read", t0, clock_ns(), root)
                if data != payload:
                    mismatches += 1
                continue
            op_start = sim.now
            if add:
                faults = runtime_stats.write_faults if runtime_stats else 0
                t0 = clock_ns()
                write(addr, payload)
                t1 = clock_ns()
                faulted = runtime_stats and runtime_stats.write_faults > faults
                add("core.fault_write" if faulted else "core.hit_write", t0, t1, root)
            else:
                write(addr, payload)
            record(sim.now - op_start)
    if spans:
        spans.close(root)
    return mismatches
