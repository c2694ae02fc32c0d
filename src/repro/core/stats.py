"""Runtime counters for one Viyojit instance.

These counters are the raw material for every evaluation figure: traps and
TLB costs explain the tail latencies of Fig 8, sync-eviction blocking
explains the throughput cliffs of Fig 7, and flushed bytes feed the SSD
write rates of Fig 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Retention cap for :attr:`ViyojitStats.dirty_page_samples`.  When the
#: cap is reached the series is decimated (every other sample dropped)
#: and the sampling stride doubles, so memory stays O(cap) for
#: arbitrarily long runs while the kept samples remain an evenly spaced,
#: deterministic subsample of the dirty-level history.
MAX_DIRTY_SAMPLES = 2048


@dataclass
class ViyojitStats:
    """Cumulative event counts and time charges (nanoseconds)."""

    write_faults: int = 0
    pages_dirtied: int = 0
    sync_evictions: int = 0
    proactive_flushes: int = 0
    flush_completions: int = 0
    epochs: int = 0
    budget_waits: int = 0
    inflight_waits: int = 0

    trap_time_ns: int = 0
    blocked_time_ns: int = 0
    epoch_scan_time_ns: int = 0
    pte_update_time_ns: int = 0

    pages_flushed: int = 0
    bytes_flushed: int = 0

    peak_dirty_pages: int = 0
    dirty_page_samples: list = field(default_factory=list, repr=False)
    _sample_stride: int = field(default=1, repr=False)
    _sample_ticks: int = field(default=0, repr=False)

    def record_dirty_level(self, count: int) -> None:
        """Fold one dirty-count observation in (fault path + epoch tick).

        Keeps the running peak and a bounded, stride-decimated series of
        samples — the raw material for dirty-level timelines without the
        unbounded growth a naive append would have on long runs.
        """
        if count > self.peak_dirty_pages:
            self.peak_dirty_pages = count
        if self._sample_ticks % self._sample_stride == 0:
            self._keep_sample(count)
        self._sample_ticks += 1

    def _keep_sample(self, count: int) -> None:
        """Retain one sampled observation, decimating at the cap.

        The runtime's dirtying step (``Viyojit._admit_dirty``) open-codes
        :meth:`record_dirty_level`'s peak and tick bookkeeping and calls
        this only on a sampled tick.
        """
        self.dirty_page_samples.append(count)
        if len(self.dirty_page_samples) >= MAX_DIRTY_SAMPLES:
            self.dirty_page_samples = self.dirty_page_samples[::2]
            self._sample_stride *= 2

    def mean_dirty_pages(self) -> float:
        """Mean of the retained dirty-level samples (0.0 when unsampled)."""
        if not self.dirty_page_samples:
            return 0.0
        return sum(self.dirty_page_samples) / len(self.dirty_page_samples)

    def summary(self) -> dict:
        """Flat dict view for reporting tables."""
        return {
            "write_faults": self.write_faults,
            "pages_dirtied": self.pages_dirtied,
            "sync_evictions": self.sync_evictions,
            "proactive_flushes": self.proactive_flushes,
            "flush_completions": self.flush_completions,
            "epochs": self.epochs,
            "budget_waits": self.budget_waits,
            "inflight_waits": self.inflight_waits,
            "trap_time_ns": self.trap_time_ns,
            "blocked_time_ns": self.blocked_time_ns,
            "epoch_scan_time_ns": self.epoch_scan_time_ns,
            "pte_update_time_ns": self.pte_update_time_ns,
            "pages_flushed": self.pages_flushed,
            "bytes_flushed": self.bytes_flushed,
            "peak_dirty_pages": self.peak_dirty_pages,
            "dirty_samples": len(self.dirty_page_samples),
            "mean_dirty_pages": round(self.mean_dirty_pages(), 3),
        }
