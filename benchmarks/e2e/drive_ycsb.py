"""YCSB workloads: compiled stream -> ``load_batched`` -> ``run_batched``.

Untraced, the timed phase is exactly ``YCSBRunner.run_batched(spec,
compiled=stream)``.  Traced (``spans`` given), the benchmark runs its own
copy of that loop so it can put a span around every call it makes into a
layer — batch decode, payload generation, each fused KV ``get``/``put`` —
and asserts nothing simulated changed by doing so (the caller compares
digests with the untraced repetitions).
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Dict, Optional

import numpy as np

import adapters as A
from common import (
    Rep,
    check_budget,
    ratio,
    require,
    substrate_counts,
    substrate_stats,
    wall,
)
from spans import SpanLog, clock_ns

#: Keys re-read after every repetition and compared with the last value
#: the stream wrote to them.
VERIFY_SAMPLE = 1_000


def _scale(params: Dict[str, object], seed: int):
    return A.ExperimentScale(
        record_count=params["record_count"],
        operation_count=params["operation_count"],
        seed=seed,
    )


def region_pages(params: Dict[str, object]) -> int:
    """The NV-DRAM region this workload runs in (sizes the epoch-scan drive)."""
    return _scale(params, 0).region_pages


def compile_stream(params: Dict[str, object], seed: int):
    """``(spec, scale, stream)``: the workload's whole op stream, compiled."""
    spec = A.YCSB_WORKLOADS[params["workload"]]
    scale = _scale(params, seed)
    stream = A.compile_workload(
        spec,
        scale.record_count,
        scale.operation_count,
        value_size=scale.value_size,
        theta=scale.zipf_theta,
        seed=seed,
    )
    return spec, scale, stream


def run_rep(
    params: Dict[str, object],
    seed: int,
    spans: Optional[SpanLog] = None,
    baseline: bool = False,
) -> Rep:
    """One repetition on freshly built state.

    ``baseline=True`` runs the same stream on ``FullBatteryNVDRAM``
    whatever the workload's budget — the denominator of
    ``sim_rel_throughput_pct`` and the floor the KV-store spans are taken on.
    """
    fraction = None if baseline else params["budget_fraction"]

    started = wall()
    compile_span = spans.open("workloads.compile") if spans else -1
    spec, scale, stream = compile_stream(params, seed)
    if spans:
        spans.close(compile_span)
    if fraction is None:
        sim, system = A.build_baseline(scale)
    else:
        sim, system = A.build_viyojit(scale, fraction)
    runner = A.YCSBRunner(sim, system, scale)
    load_span = spans.open("bench.load") if spans else -1
    runner.load_batched()
    if spans:
        spans.close(load_span)
    loaded = wall()

    if spans is None:
        result = runner.run_batched(spec, compiled=stream)
        executed, elapsed_ns = result.ops_executed, result.elapsed_ns
        histograms = result.histograms
    else:
        executed, elapsed_ns, histograms = _traced_run(
            spans, spec, scale, stream, runner, sim
        )
    finished = wall()

    require(
        executed == scale.operation_count,
        f"{spec.name}: executed {executed} of {scale.operation_count} ops",
    )
    store = runner.store
    stats = substrate_stats(system)
    stats["ops_executed"] = executed
    stats["run_elapsed_ns"] = elapsed_ns
    stats["kvstore"] = asdict(store.stats)
    stats["heap"] = {
        "allocs": store.heap.stats.allocs,
        "frees": store.heap.stats.frees,
        "bytes_requested": store.heap.stats.bytes_requested,
        "bytes_allocated": store.heap.stats.bytes_allocated,
    }
    stats["latency"] = {
        kind: {
            "count": hist.count,
            "mean_ns": hist.mean_ns,
            "p99_ns": hist.percentile(99),
        }
        for kind, hist in sorted(histograms.items())
    }
    if fraction is not None:
        check_budget(
            stats, scale.budget_pages_for_fraction(fraction), spec.name
        )

    latency = stats["latency"][params["latency_op"]]  # type: ignore[index]
    kv = store.stats
    counts = substrate_counts(stats)
    counts.update(
        {
            "kvstore.gets": kv.gets,
            "kvstore.puts": kv.puts,
            "kvstore.chain_steps_per_op": ratio(
                kv.chain_steps, kv.gets + kv.puts
            ),
            "kvstore.relocations": kv.relocations,
            "kvstore.heap_allocs": store.heap.stats.allocs,
            "kvstore.heap_fragmentation": store.heap.stats.fragmentation(),
            "core.sim_p99_over_mean": ratio(
                latency["p99_ns"], latency["mean_ns"]
            ),
        }
    )
    attempted, failed = _verify(runner, stream, scale, seed)
    return Rep(
        setup_s=loaded - started,
        run_s=finished - loaded,
        ops=executed,
        attempted=executed + attempted,
        failed=failed,
        stats=stats,
        sim={
            "sim_kops_per_s": executed / (elapsed_ns / 1e9) / 1e3,
            "sim_mean_op_ms": latency["mean_ns"] / 1e6,
            "sim_p99_op_ms": latency["p99_ns"] / 1e6,
        },
        counts=counts,
    )


def _traced_run(spans: SpanLog, spec, scale, stream, runner, sim):
    """``run_batched``'s loop with a span around every call into a layer."""
    fast = A.build_fast_ops(runner.store)
    fast_get, fast_put = fast.get, fast.put
    add = spans.add
    size = scale.value_size
    reps = -(-size // 8)
    histograms: Dict[str, object] = {}
    nonce = 0
    executed = 0
    begun_ns = sim.now
    root = spans.open("bench.run")
    batches = iter(
        A.iter_op_batches(
            spec,
            record_count=scale.record_count,
            operation_count=scale.operation_count,
            value_size=size,
            theta=scale.zipf_theta,
            seed=scale.seed,
            compiled=stream,
        )
    )
    while True:
        decode = spans.open("workloads.decode", root)
        batch = next(batches, None)
        spans.close(decode)
        if batch is None:
            break
        kinds, keys = batch.kinds, batch.keys
        payload_span = spans.open("bench.payload", root)
        mutating = [i for i, kind in enumerate(kinds) if kind != "read"]
        seeds = A.value_seeds_batch(
            [keys[i] for i in mutating],
            range(nonce + 1, nonce + 1 + len(mutating)),
        )
        nonce += len(mutating)
        payloads = {i: (s * reps)[:size] for i, s in zip(mutating, seeds)}
        spans.close(payload_span)
        for index, kind in enumerate(kinds):
            op_start = sim.now
            if kind == "read":
                t0 = clock_ns()
                fast_get(keys[index])
                add("kvstore.get", t0, clock_ns(), root)
            elif kind == "update":
                t0 = clock_ns()
                fast_put(keys[index], payloads[index])
                add("kvstore.put", t0, clock_ns(), root)
            else:
                raise ValueError(
                    f"the traced loop covers read/update mixes only: {kind!r}"
                )
            hist = histograms.get(kind)
            if hist is None:
                hist = histograms[kind] = A.LatencyHistogram()
            hist.record(sim.now - op_start)
            executed += 1
    spans.close(root)
    return executed, sim.now - begun_ns, histograms


def _verify(runner, stream, scale, seed: int):
    """Re-read a seeded key sample; each must hold the stream's last write."""
    mutating = np.asarray(stream.value_sizes) > 0
    nonces = np.cumsum(mutating)
    last_nonce = np.zeros(scale.record_count, dtype=np.int64)
    # Repeated indices: NumPy keeps the last assignment, i.e. the last write.
    last_nonce[np.asarray(stream.key_indices)[mutating]] = nonces[mutating]
    sample = random.Random(seed).sample(
        range(scale.record_count), min(VERIFY_SAMPLE, scale.record_count)
    )
    failed = 0
    for index in sample:
        key = A.make_key(index)
        expected = A.value_bytes(key, scale.value_size, int(last_nonce[index]))
        if runner.store.get(key) != expected:
            failed += 1
    return len(sample), failed
