"""The one file that imports the program under test.

Every ``from repro…`` the benchmark needs is here and nowhere else, so a
refactor that moves an entry point (the ROADMAP's ``cluster/runner.py``
split, the executor deletion) is absorbed by editing this file, and a
reviewer can read off exactly which public surface the benchmark leans
on.  Only entry points the ROADMAP's consolidation keeps are used:
compiled streams in, the batched executor, ``run_cluster_grid`` — never
``execution="per-op"``, ``REPRO_KERNEL`` or ``repro.perf``.

``src/`` is put on ``sys.path`` (and ``PYTHONPATH``, for pool workers)
from this file's location, so the benchmark runs from a bare checkout
with no install step and no environment set by the caller.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(
        f"the program under test is missing: {SRC / 'repro'} not found "
        "(run from a checkout that holds src/)"
    )
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
# The kernel/sanitizer switches select other code paths; the benchmark
# measures the defaults, whatever the caller's shell exports.
os.environ.pop("REPRO_KERNEL", None)
os.environ.pop("REPRO_SANITIZE", None)

from repro.bench.histogram import LatencyHistogram  # noqa: E402
from repro.bench.runner import (  # noqa: E402
    ExperimentScale,
    YCSBRunner,
    build_baseline,
    build_viyojit,
    value_bytes,
    value_seeds_batch,
)
from repro.cluster.report import build_cluster_report  # noqa: E402
from repro.cluster.runner import (  # noqa: E402
    ClusterGrid,
    plan_cluster,
    run_cluster_grid,
    run_shard_job,
    shard_jobs,
)
from repro.kvstore.fastpath import build_fast_ops  # noqa: E402
from repro.obs.harness import TraceWorkload, build_system  # noqa: E402
from repro.obs.harness import iter_op_batches as iter_page_batches  # noqa: E402
from repro.obs.tracer import RecordingTracer  # noqa: E402
from repro.sim.events import Simulation  # noqa: E402
from repro.storage.ssd import SSD  # noqa: E402
from repro.workloads.compiled import (  # noqa: E402
    compile_workload,
    open_ops,
    save_ops,
)
from repro.workloads.ycsb import (  # noqa: E402
    YCSB_WORKLOADS,
    iter_op_batches,
    make_key,
)

__all__ = [
    "ClusterGrid",
    "ExperimentScale",
    "LatencyHistogram",
    "RecordingTracer",
    "SSD",
    "Simulation",
    "TraceWorkload",
    "YCSBRunner",
    "YCSB_WORKLOADS",
    "build_baseline",
    "build_cluster_report",
    "build_fast_ops",
    "build_system",
    "build_viyojit",
    "compile_workload",
    "iter_op_batches",
    "iter_page_batches",
    "make_key",
    "open_ops",
    "plan_cluster",
    "run_cluster_grid",
    "run_shard_job",
    "save_ops",
    "shard_jobs",
    "value_bytes",
    "value_seeds_batch",
]
