"""Reference oracle: the per-op shard executor, kept out of ``src/``.

This is the shard worker as it ran before shards moved onto the batched
session — the lazy generator that filters the *global* per-op stream
(:func:`iter_segment_ops`, no compiled arrays), applies leases and
migration handoffs as it crosses segment boundaries, and feeds the
per-op runner (``tests/bench/reference_runner.py``) one
:class:`Operation` at a time through
``get/put/read_modify_write/scan`` of the method-chain reference
store (``tests/kvstore/reference_store.py``).  It shares no routing,
payload, dispatch or KV-operation code with the production path beyond
the ring, the heap and the skip-list index, which is what makes it an
oracle:
``test_shard_oracle.py`` requires :func:`repro.cluster.runner.run_shard_job`
to reproduce its payload exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.runner import (
    ExperimentScale,
    build_baseline,
    build_viyojit,
    value_bytes,
)
from repro.cluster.ring import HashRing
from repro.cluster.runner import ShardJob
from repro.core.runtime import Viyojit
from repro.parallel.worker import result_payload
from repro.workloads.ycsb import (
    Operation,
    YCSB_WORKLOADS,
    generate_operations,
    key_index,
    make_key,
)

from tests.bench.reference_runner import ReferenceRunner


def iter_segment_ops(
    workload: str,
    record_count: int,
    operation_count: int,
    value_size: int,
    theta: float,
    seed: int,
    epochs: int,
    rotate_keys: int = 0,
) -> Iterator[Tuple[int, int, Operation]]:
    """The global op stream, segmented, with optional hotspot rotation.

    Yields ``(position, segment, op)`` straight from the per-op
    generator — the oracle for ``compile_workload(..., epochs=,
    hotspot_rotate_keys=)``.

    ``rotate_keys`` shifts each non-insert operation's key index by
    ``segment * rotate_keys`` (mod ``record_count``): the zipfian
    hotspot physically rotates through the keyspace at epoch
    boundaries, which is the skew-shifting workload the EWMA predictors
    exist for.  Inserts are never rotated (their keys extend the
    keyspace rather than address it).
    """
    wspec = YCSB_WORKLOADS[workload]
    for position, op in enumerate(
        generate_operations(
            wspec,
            record_count=record_count,
            operation_count=operation_count,
            value_size=value_size,
            theta=theta,
            seed=seed,
        )
    ):
        segment = min(epochs - 1, position * epochs // operation_count)
        if rotate_keys and op.kind != "insert":
            index = key_index(op.key)
            if index < record_count:
                shifted = (index + segment * rotate_keys) % record_count
                op = replace(op, key=make_key(shifted))
        yield position, segment, op


def shard_operations(
    job: ShardJob,
    rings: Sequence[HashRing],
    system: Optional[Viyojit],
    store,
    value_size: int,
    counters: Dict[str, object],
) -> Iterator[Operation]:
    """The global op stream filtered to this shard, applying leases.

    Iterating the *global* stream keeps the partition exact — every op
    goes to precisely one shard — and advancing past an epoch-segment
    boundary re-tunes the budget between this shard's operations.  At a
    boundary whose ring differs from the previous epoch's the lease is
    applied first, then every live key this shard gains under the new
    ring is put before any of the epoch's operations are served.
    """
    schedule = job.budget_schedule
    current_segment = 0
    routed = 0
    migrated_in = 0
    track_keys = bool(job.membership)
    live_keys: List[bytes] = (
        [make_key(index) for index in range(job.record_count)]
        if track_keys
        else []
    )
    for _, segment, op in iter_segment_ops(
        job.workload,
        job.record_count,
        job.operation_count,
        value_size,
        job.theta,
        job.seed,
        job.epochs,
        job.hotspot_rotate_keys,
    ):
        while current_segment < segment:
            current_segment += 1
            if schedule is not None and system is not None:
                system.set_dirty_budget(schedule[current_segment])
            if track_keys and (
                rings[current_segment] is not rings[current_segment - 1]
            ):
                before = rings[current_segment - 1]
                after = rings[current_segment]
                for key in before.moved_keys(after, live_keys):
                    if after.shard_for(key) != job.shard:
                        continue
                    store.put(key, value_bytes(key, value_size))
                    migrated_in += 1
        if track_keys and op.kind == "insert":
            live_keys.append(op.key)
        if rings[current_segment].shard_for(op.key) != job.shard:
            continue
        routed += 1
        yield op
    counters["routed_ops"] = routed
    counters["migrated_in_keys"] = migrated_in


def execute_shard(job: ShardJob) -> Dict[str, object]:
    """The ``result`` payload of one shard job, computed per-op."""
    wspec = YCSB_WORKLOADS[job.workload]
    scale = ExperimentScale(
        record_count=job.record_count,
        operation_count=job.operation_count,
        zipf_theta=job.theta,
        seed=job.seed,
    )
    rings = job.rings()
    viyojit: Optional[Viyojit] = None
    if job.budget_schedule is None:
        sim, system = build_baseline(scale)
    else:
        sim, viyojit = build_viyojit(
            scale, 1.0, budget_pages=job.budget_schedule[0]
        )
        system = viyojit
    runner = ReferenceRunner(
        sim, system, scale, ordered=wspec.scan_proportion > 0
    )
    loaded = 0
    for index in range(job.record_count):
        key = make_key(index)
        if rings[0].shard_for(key) != job.shard:
            continue
        runner.store.put(key, value_bytes(key, scale.value_size))
        loaded += 1
    counters: Dict[str, object] = {}
    result = runner.run(
        wspec,
        operations=shard_operations(
            job, rings, viyojit, runner.store, scale.value_size, counters
        ),
    )
    payload = result_payload(result)
    payload["shard"] = job.shard
    payload["records_loaded"] = loaded
    payload["routed_ops"] = counters["routed_ops"]
    payload["budget_schedule"] = (
        list(job.budget_schedule)
        if job.budget_schedule is not None
        else None
    )
    payload["migrated_in_keys"] = counters["migrated_in_keys"]
    return payload
