"""Whole-program rule tests: W1, R1, P1."""

from __future__ import annotations

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_project
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.program_rules import (
    ForkSafetyRule,
    RNGStreamRule,
    WallClockTaintRule,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "program"
SRC = Path(__file__).resolve().parents[2] / "src"


def lint_with(paths, rule):
    return lint_project(paths, rules=[rule()])


def findings(report, rule_id):
    return [v for v in report.violations if v.rule_id == rule_id]


class TestW1WallClockTaint:
    def test_two_hop_taint_is_flagged(self):
        report = lint_with([FIXTURES / "bad_w1.py"], WallClockTaintRule)
        w1 = findings(report, "W1")
        by_line = {v.line: v for v in w1}
        # leaf (direct), middle (one hop), top (two hops) — not innocent.
        assert len(w1) == 3
        assert 12 in by_line and "directly" in by_line[12].message
        assert 16 in by_line and "transitively" in by_line[16].message
        assert 20 in by_line
        assert (
            "top -> bad_w1.middle -> bad_w1.leaf -> time.perf_counter()"
            in by_line[20].message
        )

    def test_timer_module_is_exempt(self):
        # No rule needs a suppression comment in the sanctioned module.
        report = lint_project([SRC / "repro" / "perf" / "timer.py"])
        assert report.violations == []

    def test_every_direct_read_is_flagged_through_any_alias(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            textwrap.dedent(
                """
                import time as t
                from time import perf_counter

                def f():
                    start = perf_counter()
                    stamp = t.time()
                    return perf_counter() - start, stamp
                """
            ),
            encoding="utf-8",
        )
        report = lint_with([path], WallClockTaintRule)
        assert [(v.line, v.col) for v in findings(report, "W1")] == [
            (6, 12),
            (7, 12),
            (8, 11),
        ]

    def test_callers_of_the_timer_barrier_stay_clean(self, tmp_path):
        # A function that uses wall time *through* best_of is sanctioned.
        tree = tmp_path / "repro"
        (tree / "perf").mkdir(parents=True)
        (tree / "perf" / "timer.py").write_text(
            (SRC / "repro" / "perf" / "timer.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        (tree / "user.py").write_text(
            textwrap.dedent(
                """
                from repro.perf.timer import best_of

                def bench(fn):
                    return best_of(3, fn)
                """
            ),
            encoding="utf-8",
        )
        report = lint_with([tree], WallClockTaintRule)
        assert findings(report, "W1") == []

    def test_suppression_comment_silences_w1(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import time\n\n\ndef f():\n"
            "    return time.monotonic()  # lint: ignore[W1]\n",
            encoding="utf-8",
        )
        report = lint_with([path], WallClockTaintRule)
        assert findings(report, "W1") == []


class TestR1RNGStreams:
    def test_bad_constructions_are_flagged(self):
        report = lint_with([FIXTURES / "bad_r1.py"], RNGStreamRule)
        r1 = findings(report, "R1")
        messages = {v.line: v.message for v in r1}
        assert len(r1) == 4
        assert "literal" in messages[18]  # random.Random(42)
        assert "module-level global `GLOBAL_SEED`" in messages[22]
        assert "without a seed" in messages[26]
        assert "opaque call `fetch_entropy(...)`" in messages[30]

    def test_good_constructions_pass(self):
        report = lint_with([FIXTURES / "bad_r1.py"], RNGStreamRule)
        flagged_lines = {v.line for v in findings(report, "R1")}
        # param_seed / config_seed / helper_seed / wrapped_seed bodies.
        assert flagged_lines.isdisjoint({38, 42, 46, 54})

    def test_rebound_parameter_loses_seededness(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            textwrap.dedent(
                """
                import random

                def f(seed):
                    seed = 7
                    return random.Random(seed)
                """
            ),
            encoding="utf-8",
        )
        report = lint_with([path], RNGStreamRule)
        assert len(findings(report, "R1")) == 1

    def test_derived_local_keeps_seededness(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            textwrap.dedent(
                """
                import random

                def f(base):
                    derived = base * 1000 + 3
                    return random.Random(derived)
                """
            ),
            encoding="utf-8",
        )
        report = lint_with([path], RNGStreamRule)
        assert findings(report, "R1") == []


class TestP1ForkSafety:
    def make_tree(self, tmp_path, worker_src, engine_src):
        tree = tmp_path / "repro" / "parallel"
        tree.mkdir(parents=True)
        (tree / "worker.py").write_text(
            textwrap.dedent(worker_src), encoding="utf-8"
        )
        (tree / "engine.py").write_text(
            textwrap.dedent(engine_src), encoding="utf-8"
        )
        return tmp_path / "repro"

    def test_lambda_entry_is_flagged(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            "def unused():\n    pass\n",
            """
            def run(pool):
                return pool.submit(lambda: 1)
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert any(
            "lambda" in v.message for v in findings(report, "P1")
        )

    def test_nested_function_entry_is_flagged(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            "def unused():\n    pass\n",
            """
            def run(pool):
                def job():
                    return 1
                return pool.submit(job)
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert any("closure" in v.message for v in findings(report, "P1"))

    def test_worker_tree_global_write_is_flagged(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            """
            CACHE = {}

            def job(payload):
                return helper(payload)

            def helper(payload):
                CACHE[payload] = 1
                return CACHE
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job, 3)
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        p1 = findings(report, "P1")
        assert any(
            "`CACHE`" in v.message and "worker.helper" in v.message for v in p1
        )

    def test_global_declaration_in_worker_tree_is_flagged(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            """
            COUNT = 0

            def job():
                global COUNT
                COUNT = COUNT + 1
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job)
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert any(
            "global COUNT" in v.message for v in findings(report, "P1")
        )

    def test_module_level_entry_with_local_state_is_clean(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            """
            def job(payload):
                local = {}
                local[payload] = 1
                return local
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job, 3)
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert findings(report, "P1") == []

    def test_writable_memmap_in_worker_tree_is_flagged(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            """
            import numpy as np

            def job(path):
                return np.memmap(path, dtype=np.uint8, mode="r+")
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job, "x.ops")
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert any(
            "writable np.memmap" in v.message
            for v in findings(report, "P1")
        )

    def test_default_mode_memmap_in_worker_tree_is_flagged(self, tmp_path):
        # np.memmap's default mode is "r+": omitting it is writable too.
        tree = self.make_tree(
            tmp_path,
            """
            from numpy import memmap

            def job(path):
                return memmap(path, dtype="u1")
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job, "x.ops")
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert any(
            "writable np.memmap" in v.message
            for v in findings(report, "P1")
        )

    def test_readonly_memmap_in_worker_tree_is_clean(self, tmp_path):
        tree = self.make_tree(
            tmp_path,
            """
            import numpy as np

            def job(path):
                return np.memmap(path, dtype=np.uint8, mode="r")
            """,
            """
            from repro.parallel.worker import job

            def run(pool):
                return pool.submit(job, "x.ops")
            """,
        )
        report = lint_with([tree], ForkSafetyRule)
        assert findings(report, "P1") == []

    def test_shipped_parallel_package_is_fork_safe(self):
        report = lint_with([SRC / "repro"], ForkSafetyRule)
        assert findings(report, "P1") == []



def plant_global_append(path, function):
    """Add a module-level list to ``path`` and append to it as the first
    statement of ``function``'s body (after any docstring)."""
    source = path.read_text(encoding="utf-8")
    node = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    body = node.body
    if ast.get_docstring(node) is not None:
        body = body[1:]
    lines = source.splitlines(keepends=True)
    lines.insert(
        body[0].lineno - 1, " " * body[0].col_offset + "_PLANTED.append(1)\n"
    )
    lines.append("\n_PLANTED = []\n")
    path.write_text("".join(lines), encoding="utf-8")


class TestP1ShippedWorkerTree:
    """P1 over the shipped package sees the worker code, not a trampoline."""

    def test_run_job_is_the_one_pool_entry(self):
        project = ProjectIndex.from_paths([SRC / "repro"])
        entries = ForkSafetyRule().pool_entries(project)
        assert entries == ["repro.parallel.worker.run_job"]
        tree = project.graph.reachable(entries)
        assert "repro.bench.runner.run_workload" in tree
        assert "repro.cluster.runner._execute_shard" in tree

    @pytest.mark.parametrize(
        "relpath, function",
        [
            ("cluster/runner.py", "_execute_shard"),
            ("bench/runner.py", "run_workload"),
        ],
    )
    def test_planted_worker_global_write_is_flagged(
        self, tmp_path, relpath, function
    ):
        copy = tmp_path / "repro"
        shutil.copytree(
            SRC / "repro", copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        plant_global_append(copy / relpath, function)
        report = lint_with([copy], ForkSafetyRule)
        planted = [
            v for v in findings(report, "P1") if "`_PLANTED`" in v.message
        ]
        assert len(planted) == 1, [v.render() for v in findings(report, "P1")]
        assert planted[0].path.endswith(relpath)
        assert function in planted[0].message
