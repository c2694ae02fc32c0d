"""``repro sweep`` and the perf CLI's robustness/baseline satellites."""

from __future__ import annotations

import json
import subprocess
import types

import pytest

from repro.cli import BENCH_BASELINE_PATH, main
from repro.perf import SCHEMA_VERSION

SWEEP_ARGS = [
    "sweep",
    "--budgets-gb", "2,18",
    "--records", "300",
    "--ops", "800",
]


class TestSweepCommand:
    def test_jobs_1_and_2_write_identical_deterministic_views(
        self, capsys, tmp_path
    ):
        one = tmp_path / "sweep1.json"
        two = tmp_path / "sweep2.json"
        assert main(SWEEP_ARGS + ["--jobs", "1", "--out", str(one)]) == 0
        assert main(SWEEP_ARGS + ["--jobs", "2", "--out", str(two)]) == 0
        out = capsys.readouterr().out
        assert "sweep checksum:" in out
        assert "overhead_pct" in out
        first, second = json.loads(one.read_text()), json.loads(two.read_text())
        first.pop("wall")
        second.pop("wall")
        assert first == second

    def test_strip_wall_writes_the_deterministic_view(self, tmp_path):
        out = tmp_path / "sweep.json"
        argv = SWEEP_ARGS + ["--out", str(out), "--strip-wall"]
        assert main(argv) == 0
        assert "wall" not in json.loads(out.read_text())

    def test_grid_file_overrides_flags(self, capsys, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "workloads": ["YCSB-A"],
                    "budget_fractions": [None, 0.175],
                    "thetas": [0.99],
                    "seeds": [42],
                    "record_count": 300,
                    "operation_count": 800,
                }
            )
        )
        assert main(["sweep", "--grid", str(grid_path)]) == 0
        assert "Budget sweep (2 jobs" in capsys.readouterr().out

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.parallel

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.parallel, "run_sweep", interrupted)
        assert main(SWEEP_ARGS) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_sweep_failure_reports_partial_results(
        self, monkeypatch, capsys
    ):
        import repro.parallel

        def doomed(grid, **kwargs):
            raise repro.parallel.SweepError(
                "2 of 4 jobs failed",
                partial={0: {}, 2: {}},
                failures={1: "boom", 3: "boom"},
            )

        monkeypatch.setattr(repro.parallel, "run_sweep", doomed)
        assert main(SWEEP_ARGS) == 1
        err = capsys.readouterr().err
        assert "sweep failed" in err
        assert "partial results: 2 of" in err


def _fake_report() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": "quick",
        "micro": {},
        "macro": {},
        "wall": {"micro": {}, "macro": {}, "speedups": {}, "repeats": 1},
    }


@pytest.fixture()
def fake_suite(monkeypatch):
    import repro.perf

    monkeypatch.setattr(
        repro.perf, "run_suite", lambda quick, repeats: _fake_report()
    )


def _fake_git(stdout: str, returncode: int = 0):
    def runner(cmd, **kwargs):
        assert cmd[:2] == ["git", "status"]
        return types.SimpleNamespace(returncode=returncode, stdout=stdout)

    return runner


class TestPerfBaselineUpdate:
    def test_refuses_on_dirty_tree(
        self, fake_suite, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(subprocess, "run", _fake_git(" M src/x.py\n"))
        assert main(["perf", "--quick", "--update-baseline"]) == 1
        assert "refusing to update baseline" in capsys.readouterr().err
        assert not (tmp_path / BENCH_BASELINE_PATH).exists()

    def test_force_overrides_dirty_tree(
        self, fake_suite, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.setattr(subprocess, "run", _fake_git(" M src/x.py\n"))
        assert main(["perf", "--quick", "--update-baseline", "--force"]) == 0
        assert "updated" in capsys.readouterr().out
        written = json.loads((tmp_path / BENCH_BASELINE_PATH).read_text())
        assert written["schema_version"] == SCHEMA_VERSION

    def test_clean_tree_updates_without_force(
        self, fake_suite, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.setattr(subprocess, "run", _fake_git(""))
        assert main(["perf", "--quick", "--update-baseline"]) == 0
        assert (tmp_path / BENCH_BASELINE_PATH).exists()

    def test_unreadable_git_counts_as_dirty(
        self, fake_suite, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(subprocess, "run", _fake_git("", returncode=128))
        assert main(["perf", "--quick", "--update-baseline"]) == 1


class TestPerfInterrupt:
    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.perf

        def interrupted(quick, repeats):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.perf, "run_suite", interrupted)
        assert main(["perf", "--quick"]) == 130
        assert "interrupted" in capsys.readouterr().err
