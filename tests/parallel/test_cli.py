"""``repro sweep`` and ``repro cluster``: determinism, grid files,
interrupts and failures."""

from __future__ import annotations

import json

from repro.cli import main

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



class TestClusterCommand:
    """``repro cluster`` shares the sweep's run tail: flags, exit codes,
    the failure lines and the checksum line."""

    CLUSTER_ARGS = [
        "cluster", "--shards", "2", "--total-budgets-gb", "2",
        "--records", "200", "--ops", "400", "--epochs", "2",
    ]

    def test_strip_wall_out_and_checksum_line(self, capsys, tmp_path):
        out = tmp_path / "cluster.json"
        argv = self.CLUSTER_ARGS + ["--out", str(out), "--strip-wall"]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert "wall" not in report
        printed = capsys.readouterr().out
        assert f"cluster checksum: {report['checksum_sha256']}" in printed
        assert f"wrote {out}" in printed

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cluster

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.cluster, "run_cluster_grid", interrupted)
        assert main(self.CLUSTER_ARGS) == 130
        assert "cluster interrupted" in capsys.readouterr().err

    def test_failure_reports_partial_results(self, monkeypatch, capsys):
        import repro.cluster
        from repro.parallel import SweepError

        def doomed(grid, **kwargs):
            raise SweepError(
                "1 of 3 jobs failed",
                partial={0: {}, 2: {}},
                failures={1: "boom"},
            )

        monkeypatch.setattr(repro.cluster, "run_cluster_grid", doomed)
        assert main(self.CLUSTER_ARGS) == 1
        err = capsys.readouterr().err
        assert "cluster failed: 1 of 3 jobs failed" in err
        assert "partial results: 2 of 3 job(s) completed (failed: [1])" in err
