"""Import hygiene: the runtime and the job engines load only what they run.

A simulation process (a sweep or cluster shard worker, a ``repro`` run)
must not drag in the static-analysis package or anything of
:mod:`repro.perf` beyond the wall-clock timer, and a process that runs
no pool must not load the process-pool stack.  The check runs in a
fresh interpreter so modules other tests imported do not mask a leak.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import {modules}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after_importing(*modules: str) -> list:
    """Every module in ``sys.modules`` after a fresh interpreter imports
    ``modules``."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=", ".join(modules))],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    return json.loads(proc.stdout)


def test_runtime_and_engines_skip_analysis_and_perf_suite():
    loaded = _loaded_after_importing(
        "repro.core.runtime", "repro.parallel.engine", "repro.cluster.runner"
    )
    leaked = [
        name
        for name in loaded
        if name == "repro.analysis"
        or name.startswith("repro.analysis.")
        or (name.startswith("repro.perf.") and name != "repro.perf.timer")
    ]
    assert leaked == []
    assert "repro.perf.timer" in loaded


def test_single_node_runners_skip_the_process_pool_stack():
    """The process pool is imported by the run that uses it: a process
    that runs no pool never loads ``concurrent.futures`` or
    ``multiprocessing``."""
    loaded = _loaded_after_importing(
        "repro.bench.runner", "repro.cluster.runner", "repro.obs.harness"
    )
    pool_stack = [
        name
        for name in loaded
        if name.split(".")[0] in ("concurrent", "multiprocessing")
    ]
    assert pool_stack == []
