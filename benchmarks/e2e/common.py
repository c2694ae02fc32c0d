"""What every workload driver returns, and the checks they share."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

wall = time.perf_counter


class InvariantViolation(Exception):
    """A correctness check that aborts the run instead of becoming a metric.

    ``peak_dirty_pages <= budget`` (the paper's one guarantee),
    ``ops_executed == requested`` and digest equality across repetitions
    are not failure *rates*: one violation means the numbers describe a
    broken simulator, so ``run.py`` exits non-zero without a result.
    """


@dataclass
class Rep:
    """One repetition of one workload on freshly built state."""

    setup_s: float
    run_s: float
    ops: int
    attempted: int
    failed: int
    #: Exact simulated statistics the digest covers (sorted-key JSON).
    stats: Dict[str, object]
    #: Simulated end-to-end metrics this rep could derive on its own.
    sim: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Exact per-layer counts, from the layers' public stats.
    counts: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Host-side extras (pool walls on the grid, …); never digested.
    host: Dict[str, object] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return sim_digest(self.stats)


def sim_digest(stats: Dict[str, object]) -> str:
    """sha256 over the sorted simulated-stats dict: two commits compare exactly."""
    blob = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def pct(part: float, whole: float) -> Optional[float]:
    return 100.0 * part / whole if whole else None


def ratio(part: float, whole: float) -> Optional[float]:
    return part / whole if whole else None


def core_counts(
    stats: Optional[Dict[str, int]], sim_elapsed_ns: int
) -> Dict[str, Optional[float]]:
    """``core.*`` counts and simulated-time attribution from ViyojitStats.

    ``stats`` is ``None`` on the full-battery baseline: no Viyojit runtime
    exists there, and every count is reported as an honest zero.
    """
    if stats is None:
        names = (
            "write_faults", "sync_evictions", "proactive_flushes", "epochs",
            "budget_waits", "inflight_waits", "peak_dirty_pages",
            "mean_dirty_pages", "sim_trap_pct", "sim_pte_update_pct",
            "sim_blocked_pct", "sim_epoch_scan_pct",
        )
        counts: Dict[str, Optional[float]] = {f"core.{name}": 0 for name in names}
        counts["core.sync_eviction_ratio"] = None
        counts["sim.events_fired"] = 0
        return counts
    return {
        "core.write_faults": stats["write_faults"],
        "core.sync_evictions": stats["sync_evictions"],
        "core.sync_eviction_ratio": ratio(
            stats["sync_evictions"], stats["write_faults"]
        ),
        "core.proactive_flushes": stats["proactive_flushes"],
        "core.epochs": stats["epochs"],
        "core.budget_waits": stats["budget_waits"],
        "core.inflight_waits": stats["inflight_waits"],
        "core.peak_dirty_pages": stats["peak_dirty_pages"],
        "core.mean_dirty_pages": stats["mean_dirty_pages"],
        "core.sim_trap_pct": pct(stats["trap_time_ns"], sim_elapsed_ns),
        "core.sim_pte_update_pct": pct(stats["pte_update_time_ns"], sim_elapsed_ns),
        "core.sim_blocked_pct": pct(stats["blocked_time_ns"], sim_elapsed_ns),
        "core.sim_epoch_scan_pct": pct(stats["epoch_scan_time_ns"], sim_elapsed_ns),
        # Every epoch tick and every flush completion is one scheduled event.
        "sim.events_fired": stats["epochs"] + stats["flush_completions"],
    }


def substrate_stats(system) -> Dict[str, object]:
    """The exact simulated state of one system: runtime, MMU, TLB, SSD."""
    ssd = getattr(system, "ssd", None)
    viyojit = getattr(system, "stats", None)
    return {
        "viyojit": viyojit.summary() if viyojit is not None else None,
        "mmu": {
            "read_accesses": system.mmu.read_accesses,
            "write_accesses": system.mmu.write_accesses,
            "faults": system.mmu.faults,
        },
        "tlb": {
            "hits": system.tlb.hits,
            "misses": system.tlb.misses,
            "flushes": system.tlb.flushes,
            "single_invalidations": system.tlb.single_invalidations,
            "capacity_evictions": system.tlb.capacity_evictions,
        },
        "ssd": (
            {"writes": ssd.stats.writes, "bytes_written": ssd.stats.bytes_written}
            if ssd is not None
            else None
        ),
        "sim_now_ns": system.sim.now,
    }


def substrate_counts(stats: Dict[str, object]) -> Dict[str, Optional[float]]:
    """``mem.*``, ``core.*``, ``storage.*`` and ``sim.*`` counts of one system.

    Counters are cumulative over the system's life (load phase included),
    so the simulated-time shares divide by the whole virtual time.
    """
    mmu, tlb, ssd = stats["mmu"], stats["tlb"], stats["ssd"]  # type: ignore[index]
    now_ns = stats["sim_now_ns"]
    counts: Dict[str, Optional[float]] = {
        "mem.tlb_hit_ratio": ratio(tlb["hits"], tlb["hits"] + tlb["misses"]),
        "mem.tlb_misses": tlb["misses"],
        "mem.tlb_flushes": tlb["flushes"],
        "mem.tlb_single_invalidations": tlb["single_invalidations"],
        "mem.mmu_faults": mmu["faults"],
        "mem.mmu_write_accesses": mmu["write_accesses"],
        "storage.ssd_writes": ssd["writes"] if ssd else 0,
        "storage.ssd_bytes_written": ssd["bytes_written"] if ssd else 0,
        "storage.write_mb_per_sim_s": (
            ssd["bytes_written"] / (now_ns / 1e9) / 1e6 if ssd and now_ns else 0.0
        ),
    }
    counts.update(core_counts(stats["viyojit"], now_ns))  # type: ignore[arg-type]
    return counts


def check_budget(stats: Dict[str, object], budget_pages: int, label: str) -> None:
    """The paper's guarantee: the dirty set never outgrew the battery."""
    viyojit = stats["viyojit"]
    if viyojit is None:
        return
    peak = viyojit["peak_dirty_pages"]  # type: ignore[index]
    require(
        peak <= budget_pages,
        f"{label}: peak_dirty_pages {peak} exceeds the budget of {budget_pages}",
    )
