"""Import hygiene: the runtime and the job engines load only what they run.

A simulation process (a sweep or cluster shard worker, a ``repro`` run)
must not drag in the static-analysis package or anything of
:mod:`repro.perf` beyond the wall-clock timer.  The check runs in a
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
import repro.core.runtime, repro.parallel.engine, repro.cluster.runner
print(json.dumps(sorted(sys.modules)))
"""


def test_runtime_and_engines_skip_analysis_and_perf_suite():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    loaded = json.loads(proc.stdout)
    leaked = [
        name
        for name in loaded
        if name == "repro.analysis"
        or name.startswith("repro.analysis.")
        or (name.startswith("repro.perf.") and name != "repro.perf.timer")
    ]
    assert leaked == []
    assert "repro.perf.timer" in loaded
