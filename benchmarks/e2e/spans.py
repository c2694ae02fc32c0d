"""In-memory spans recorded by the benchmark's own driver loops.

A span is ``{name, start, end, parent}``; every span in one
:class:`SpanLog` shares the log's ``workload`` and ``rep``.  Spans are
kept in parallel lists (a per-op span costs two clock reads and four
appends) and written out once, column-wise, when the traced run ends.

A span's *self time* is its duration minus the durations of its direct
children: the driver's own loop overhead shows up as the self time of the
enclosing ``*.run`` span instead of hiding inside a layer's number.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

clock_ns = time.perf_counter_ns

#: ``parent`` of a root span.
ROOT = -1


class SpanLog:
    """Append-only span store for one traced repetition."""

    def __init__(self, workload: str, rep: str) -> None:
        self.workload = workload
        self.rep = rep
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []

    def open(self, name: str, parent: int = ROOT) -> int:
        """Start a span now; returns its index (pass it as a child's parent)."""
        self.names.append(name)
        self.starts.append(clock_ns())
        self.ends.append(0)
        self.parents.append(parent)
        return len(self.names) - 1

    def close(self, index: int) -> None:
        self.ends[index] = clock_ns()

    def add(self, name: str, start: int, end: int, parent: int = ROOT) -> None:
        """Record an already-finished span (the per-op hot path)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)

    # -- analysis ------------------------------------------------------------

    def _columns(self):
        durations = np.asarray(self.ends, dtype=np.int64) - np.asarray(
            self.starts, dtype=np.int64
        )
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(
            parents[child], weights=durations[child], minlength=len(durations)
        )
        return durations, durations - covered

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per span name: count, total and self seconds, and percentiles.

        ``p99_us`` is reported only with at least 1,000 samples (ten beyond
        the percentile); below that the entry carries ``p99_us: None``.
        """
        if not self.names:
            return {}
        durations, self_times = self._columns()
        names = np.asarray(self.names)
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(set(self.names)):
            mask = names == name
            picked = durations[mask]
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(picked.sum()) / 1e9,
                "self_s": float(self_times[mask].sum()) / 1e9,
                "p50_us": float(np.percentile(picked, 50)) / 1e3,
                "p99_us": (
                    float(np.percentile(picked, 99)) / 1e3
                    if len(picked) >= 1000
                    else None
                ),
            }
        return out

    def durations_s(self, name: str) -> List[float]:
        """Seconds of every span called ``name``, in recording order."""
        return [
            (end - start) / 1e9
            for span, start, end in zip(self.names, self.starts, self.ends)
            if span == name
        ]

    def total_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def as_columns(self) -> Dict[str, object]:
        """Column-wise JSON form (names interned; times relative to span 0)."""
        vocabulary = sorted(set(self.names))
        code = {name: index for index, name in enumerate(vocabulary)}
        origin = self.starts[0] if self.starts else 0
        return {
            "workload": self.workload,
            "rep": self.rep,
            "span_names": vocabulary,
            "name": [code[name] for name in self.names],
            "start_ns": [start - origin for start in self.starts],
            "end_ns": [end - origin for end in self.ends],
            "parent": self.parents,
        }


def percentile_us(
    summary: Dict[str, Dict[str, object]], name: str, which: str
) -> Optional[float]:
    """``summary[name][which]`` or ``None`` when the span never occurred."""
    entry = summary.get(name)
    if entry is None:
        return None
    value = entry[which]
    return None if value is None else float(value)  # type: ignore[arg-type]
