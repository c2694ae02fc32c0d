"""The benchmark's contract: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repository root is the projection of this
module onto the keys the pipeline's driver reads (``run.py
--print-benchmark-json`` regenerates it; ``run.py --selfcheck`` fails when
the two disagree).  Everything the driver's schema has no room for —
workload parameters, which numbers are simulated and which are host, the
end-to-end metric each layer metric is predicted to move — lives here and
in ``README.md``.

Two kinds of number, never mixed:

``simulated``
    Virtual time.  A pure function of workload parameters and seed: what
    the modelled design would do.  Two commits compare exactly at a fixed
    seed; the bounds below only have to absorb seed-to-seed variation,
    because the pipeline's driver varies the seed between runs.
``host``
    Wall seconds and memory of the simulator process itself.  Noisy; the
    bounds come from ``run.py --noise`` (see ``NOISE.md``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one driver run spends measuring (warm-up included).
RUN_SECONDS = 18

#: Timed repetitions are never cut below this, whatever ``--seconds`` says.
MIN_REPS = 3

#: The one command (the driver appends --workload/--seed/--seconds/--trace).
COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

# -- workloads ---------------------------------------------------------------
# ``kind`` picks the driver module; ``params`` are the inputs the seed is
# combined with; ``ops_keys`` names the parameters --selfcheck divides by 20.

WORKLOADS: Dict[str, Dict[str, object]] = {
    "ycsb_a_b11": {
        "kind": "ycsb",
        "why": (
            "YCSB-A on Viyojit at the paper's headline 11% budget: "
            "KV-store-dominated with about one write fault per 3 ops; "
            "exercises the KV store by writes and core with budget slack"
        ),
        "params": {
            "workload": "YCSB-A",
            "record_count": 6_000,
            "operation_count": 120_000,
            "budget_fraction": 0.11,
            "latency_op": "update",
        },
        "ops_keys": ("operation_count",),
    },
    "ycsb_c_nvdram": {
        "kind": "ycsb",
        "why": (
            "read-only YCSB-C on the full-battery baseline: decode, KV get "
            "and TLB/MMU read path only, so a fault-path or flusher "
            "optimisation must show no change here"
        ),
        "params": {
            "workload": "YCSB-C",
            "record_count": 6_000,
            "operation_count": 200_000,
            "budget_fraction": None,
            "latency_op": "read",
        },
        "ops_keys": ("operation_count",),
    },
    "page_write_b02": {
        "kind": "pagewrite",
        "why": (
            "raw zipfian page stores at a 1.6% budget, no KV store: core "
            "fault path, flusher, SSD, event queue and epoch scan own the "
            "run, so a KV-store optimisation must show no change here"
        ),
        "params": {
            "num_pages": 6_144,
            "hot_pages": 4_096,
            "dirty_budget_pages": 64,
            "ops": 150_000,
            "value_bytes": 96,
            "read_every": 5,
        },
        "ops_keys": ("ops",),
    },
    "cluster_grid_4s": {
        "kind": "grid",
        "why": (
            "4-shard cluster grid over 3 battery points: the only workload "
            "where cluster planning, the process pool and the slowest "
            "shard set the result, and where shards run the per-op executor"
        ),
        "params": {
            "shard_counts": (4,),
            "total_budgets_gb": (None, 2.0, 6.0),
            "record_count": 4_000,
            "operation_count": 96_000,
            "epochs": 6,
            "predictor": "ewma",
            "hotspot_rotate_keys": 200,
            # The end-to-end simulated metrics read the 6 GB point: at
            # 2 GB the slowest starved shard moves cluster throughput by
            # 5.6% (IQR/median) from seed to seed, at 6 GB by 1.0%.  The
            # 2 GB point is reported per layer (cluster.sim_*_b2).
            "e2e_budget_gb": 6.0,
            "starved_budget_gb": 2.0,
        },
        "ops_keys": ("operation_count",),
    },
}


def workload_params(name: str, divide_ops_by: int = 1) -> Dict[str, object]:
    """The parameters of workload ``name``, op counts optionally scaled down."""
    entry = WORKLOADS[name]
    params = dict(entry["params"])  # type: ignore[call-overload]
    for key in entry["ops_keys"]:  # type: ignore[union-attr]
        params[key] = max(1, int(params[key]) // divide_ops_by)
    return params


# -- end-to-end metrics ------------------------------------------------------
# (name, unit, kind, better, bound, meaning).  ``bound`` is the share of the
# parent's median by which the metric may worsen before a change is rejected.

END_TO_END: List[Tuple[str, str, str, str, float, str]] = [
    (
        "host_kops_per_s", "kops/s", "host", "higher", 0.15,
        "simulated operations executed per host second, timed phase only",
    ),
    (
        "setup_s", "s", "host", "lower", 0.2,
        "stream compile + system build + load phase (page_write_b02: "
        "system build + the decode pass that derives the read-back oracle; "
        "cluster_grid_4s: materialise + plan + merge), median per rep",
    ),
    (
        "peak_rss_mb", "MB", "host", "lower", 0.05,
        "max of RUSAGE_SELF and RUSAGE_CHILDREN for the workload's process",
    ),
    (
        "sim_kops_per_s", "kops/s", "simulated", "higher", 0.04,
        "virtual-time throughput (grid: cluster_kops at the 6 GB point)",
    ),
    (
        "sim_rel_throughput_pct", "%", "simulated", "higher", 0.02,
        "throughput as a share of the NV-DRAM baseline on the same stream "
        "= 100 - the paper's Fig 7 overhead; 100 on ycsb_c_nvdram",
    ),
    (
        "sim_mean_op_ms", "ms", "simulated", "lower", 0.04,
        "virtual-time mean latency of the most trap-prone op type (update "
        "on A, read on C, store on page_write_b02, worst shard's update at "
        "6 GB on the grid), the paper's Fig 8",
    ),
]

#: Reported in RESULT.json beside the metrics above, but not bounded by the
#: driver: ``failed_ops_pct`` is 0 on every healthy run (the driver reads
#: ``attempted``/``failed`` instead) and ``sim_p99_op_ms`` is bucket-
#: quantised (constant across seeds on ycsb_c_nvdram, 3% apart on A).
UNBOUNDED_END_TO_END = (
    ("failed_ops_pct", "%", "lower"),
    ("sim_overhead_pct", "%", "lower"),
    ("sim_p99_op_ms", "ms", "lower"),
)

# -- per-layer metrics -------------------------------------------------------
# (name, unit, kind, better, "end-to-end metric @ workload it should move").
# ``simulated`` metrics are exact counts from the layers' public stats;
# ``host`` metrics are timings from the --trace run.

_A, _C, _P, _G = "ycsb_a_b11", "ycsb_c_nvdram", "page_write_b02", "cluster_grid_4s"

PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    # workloads
    ("workloads.compile_mops_per_s", "Mops/s", "host", "higher", f"setup_s @ all, most on {_G}"),
    ("workloads.ops_open_ms", "ms", "host", "lower", f"setup_s @ {_G}"),
    ("workloads.decode_mops_per_s", "Mops/s", "host", "higher", f"host_kops_per_s @ {_C} (share <5% predicted)"),
    # bench
    ("bench.payload_us_per_put", "us", "host", "lower", f"host_kops_per_s @ {_A}"),
    ("bench.load_us_per_record", "us", "host", "lower", f"setup_s @ {_A}, {_C}"),
    # kvstore
    ("kvstore.get_us.p50", "us", "host", "lower", f"host_kops_per_s @ {_C}"),
    ("kvstore.get_us.p99", "us", "host", "lower", f"host_kops_per_s @ {_C}"),
    ("kvstore.put_us.p50", "us", "host", "lower", f"host_kops_per_s @ {_A}"),
    ("kvstore.put_us.p99", "us", "host", "lower", f"host_kops_per_s @ {_A}"),
    ("kvstore.gets", "count", "simulated", "lower", f"host_kops_per_s @ {_C}; none @ {_P}"),
    ("kvstore.puts", "count", "simulated", "lower", f"host_kops_per_s @ {_A}; none @ {_P}"),
    ("kvstore.chain_steps_per_op", "ratio", "simulated", "lower", f"host_kops_per_s @ {_A}, {_C}"),
    ("kvstore.relocations", "count", "simulated", "lower", f"host_kops_per_s @ {_A}"),
    ("kvstore.heap_allocs", "count", "simulated", "lower", f"host_kops_per_s @ {_A}"),
    ("kvstore.heap_fragmentation", "ratio", "simulated", "lower", f"peak_rss_mb @ {_A}, {_C}"),
    # mem
    ("mem.tlb_hit_ratio", "ratio", "simulated", "higher", f"sim_mean_op_ms @ {_A}"),
    ("mem.tlb_misses", "count", "simulated", "lower", f"sim_mean_op_ms @ {_A}"),
    ("mem.tlb_flushes", "count", "simulated", "lower", f"sim_mean_op_ms @ {_A} (x flush cost)"),
    ("mem.tlb_single_invalidations", "count", "simulated", "lower", f"sim_mean_op_ms @ {_A}, {_P}"),
    ("mem.mmu_faults", "count", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}"),
    ("mem.mmu_write_accesses", "count", "simulated", "lower", f"host_kops_per_s @ {_A}, {_P}"),
    ("mem.access_ns", "ns", "host", "lower", f"host_kops_per_s @ {_C}"),
    ("mem.epoch_scan_us", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    # core
    ("core.write_faults", "count", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("core.sync_evictions", "count", "simulated", "lower", f"sim_mean_op_ms @ {_A}, {_P}, {_G}"),
    ("core.sync_eviction_ratio", "ratio", "simulated", "lower", f"sim_mean_op_ms @ {_A}, {_P}, {_G}"),
    ("core.proactive_flushes", "count", "simulated", "lower", f"host_kops_per_s @ {_P}"),
    ("core.epochs", "count", "simulated", "lower", f"host_kops_per_s @ {_P}"),
    ("core.budget_waits", "count", "simulated", "lower", f"sim_mean_op_ms @ {_P}, {_G}"),
    ("core.inflight_waits", "count", "simulated", "lower", f"sim_mean_op_ms @ {_P}, {_G}"),
    ("core.peak_dirty_pages", "pages", "simulated", "lower", "none (must stay <= budget)"),
    ("core.mean_dirty_pages", "pages", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}"),
    ("core.sim_trap_pct", "%", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("core.sim_pte_update_pct", "%", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("core.sim_blocked_pct", "%", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("core.sim_epoch_scan_pct", "%", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("core.sim_p99_over_mean", "x", "simulated", "lower", f"sim_mean_op_ms @ {_A} (tail amplification)"),
    ("core.fault_write_us.p50", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    ("core.fault_write_us.p99", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    ("core.hit_write_us.p50", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    ("core.extra_us_per_op", "us", "host", "lower", f"host_kops_per_s @ {_P} (dominant), {_A} (minor); none @ {_C}"),
    # storage
    ("storage.ssd_writes", "count", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}"),
    ("storage.ssd_bytes_written", "bytes", "simulated", "lower", f"sim_rel_throughput_pct @ {_A}, {_P}, {_G}"),
    ("storage.write_mb_per_sim_s", "MB/s", "simulated", "lower", "none (the paper's Fig 9)"),
    ("storage.submit_us", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    # sim
    ("sim.events_fired", "count", "simulated", "lower", f"host_kops_per_s @ {_P}"),
    ("sim.event_us", "us", "host", "lower", f"host_kops_per_s @ {_P}"),
    # obs
    ("obs.recording_overhead_pct", "%", "host", "lower", "none (tracer is off end to end)"),
    ("obs.events_recorded", "count", "simulated", "lower", "none"),
    ("obs.events_dropped", "count", "simulated", "lower", "none"),
    # parallel
    ("parallel.jobs", "count", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("parallel.retries", "count", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("parallel.job_wall_s.max", "s", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("parallel.job_wall_s.sum", "s", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("parallel.efficiency", "ratio", "host", "higher", f"host_kops_per_s @ {_G}"),
    ("parallel.dispatch_overhead_s", "s", "host", "lower", f"host_kops_per_s @ {_G} (pool start is inside the timed phase)"),
    # cluster
    ("cluster.materialize_s", "s", "host", "lower", f"setup_s @ {_G}"),
    ("cluster.plan_s", "s", "host", "lower", f"setup_s @ {_G}"),
    ("cluster.plan_first_s", "s", "host", "lower", f"setup_s @ {_G}"),
    ("cluster.shard_s.max", "s", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("cluster.shard_s.mean", "s", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("cluster.shard_imbalance", "ratio", "host", "lower", f"host_kops_per_s @ {_G}"),
    ("cluster.merge_s", "s", "host", "lower", f"setup_s @ {_G}"),
    ("cluster.routed_ops", "count", "simulated", "lower", f"host_kops_per_s @ {_G}"),
    ("cluster.lease_churn_pages", "pages", "simulated", "lower", f"sim_rel_throughput_pct @ {_G}"),
    ("cluster.misallocation_total", "pages", "simulated", "lower", f"sim_rel_throughput_pct @ {_G}"),
    ("cluster.sim_kops_b2", "kops/s", "simulated", "higher", "none (starved 2 GB point, seed-sensitive)"),
    ("cluster.sim_overhead_pct_b2", "%", "simulated", "lower", "none (starved 2 GB point, seed-sensitive)"),
    ("cluster.jobs_scaling_x", "x", "host", "higher", f"host_kops_per_s @ {_G}"),
    # the tracer's own cost
    ("trace.overhead_pct", "%", "host", "lower", "none (how far to trust the host numbers above)"),
]


def benchmark_json() -> Dict[str, object]:
    """The driver-schema projection of this module (``BENCHMARK.json``)."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": entry["why"]}
            for name, entry in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, _kind, better, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, _kind, better, _moves in PER_LAYER
        ],
    }

