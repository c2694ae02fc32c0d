"""Sweep grid and its job expansion.

A :class:`SweepGrid` is the full parameter space of one ``repro sweep``
invocation — workloads x budget fractions x zipf thetas x seeds at one
(record_count, operation_count) scale.  :meth:`SweepGrid.jobs` expands it
into a deterministic, index-stamped list of
:class:`~repro.parallel.worker.SweepJob` descriptors; the job list (and
therefore the merged report) depends only on the grid, never on how the
jobs are scheduled.

Budget fractions follow the repo-wide convention: a fraction of the
initial heap (``None`` = the full-battery NV-DRAM baseline), labelled in
paper-equivalent GB via ``PAPER_HEAP_GB``.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.parallel.worker import SweepJob
from repro.workloads.ycsb import YCSB_WORKLOADS

#: The grid's list-valued fields, with the noun for one of their values.
AXES = {
    "workloads": "workload",
    "budget_fractions": "budget fraction",
    "thetas": "theta",
    "seeds": "seed",
}


def _require_int(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")


def _require_real(name: str, value: object) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")


@dataclass(frozen=True)
class SweepGrid:
    """The parameter space of one sweep."""

    workloads: Tuple[str, ...] = ("YCSB-A",)
    budget_fractions: Tuple[Optional[float], ...] = (None, 0.175)
    thetas: Tuple[float, ...] = (0.99,)
    seeds: Tuple[int, ...] = (42,)
    record_count: int = 2_000
    operation_count: int = 6_000

    def __post_init__(self) -> None:
        # Grids arrive from JSON files: check each value's type before its
        # range, so a mistyped field is named instead of crashing (or
        # silently running) somewhere downstream.
        for name, label in AXES.items():
            axis = getattr(self, name)
            if not isinstance(axis, (list, tuple)):
                raise ValueError(f"{name}: expected a list, got {axis!r}")
            if not axis:
                raise ValueError(f"grid needs at least one {label}")
            object.__setattr__(self, name, tuple(axis))
        for workload in self.workloads:
            if not isinstance(workload, str) or workload not in YCSB_WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r}; choose from "
                    f"{sorted(YCSB_WORKLOADS)}"
                )
        for fraction in self.budget_fractions:
            if fraction is not None:
                _require_real("budget_fractions", fraction)
                if fraction <= 0:
                    raise ValueError(
                        f"budget fraction must be positive: {fraction}"
                    )
        for theta in self.thetas:
            _require_real("thetas", theta)
            if not 0 < theta < 1:
                raise ValueError(f"theta must be in (0, 1): {theta}")
        for seed in self.seeds:
            _require_int("seeds", seed)
        for name in AXES:
            axis = getattr(self, name)
            if len(set(axis)) != len(axis):
                raise ValueError(f"duplicate {name.replace('_', ' ')} in grid")
        for name in ("record_count", "operation_count"):
            value = getattr(self, name)
            _require_int(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive: {value}")

    def jobs(
        self, timeout_s: Optional[float] = None
    ) -> Tuple[SweepJob, ...]:
        """The grid's deterministic job expansion.

        Nesting order (workload, budget, theta, seed) is part of the
        on-disk contract: job indices key the merged report.
        """
        axes = itertools.product(
            self.workloads, self.budget_fractions, self.thetas, self.seeds
        )
        return tuple(
            SweepJob(
                index=index,
                workload=workload,
                budget_fraction=fraction,
                theta=theta,
                seed=seed,
                record_count=self.record_count,
                operation_count=self.operation_count,
                timeout_s=timeout_s,
            )
            for index, (workload, fraction, theta, seed) in enumerate(axes)
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "workloads": list(self.workloads),
            "budget_fractions": list(self.budget_fractions),
            "thetas": list(self.thetas),
            "seeds": list(self.seeds),
            "record_count": self.record_count,
            "operation_count": self.operation_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepGrid":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]

    @classmethod
    def from_file(cls, path: str) -> "SweepGrid":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"grid file {path} must hold a JSON object")
        return cls.from_dict(data)
