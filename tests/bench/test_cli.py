"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.cli import main


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "ycsb" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "dram_growth" in out
        assert "1990" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "fraction_at_99" in out

    def test_sizing(self, capsys):
        assert main(["sizing"]) == 0
        out = capsys.readouterr().out
        assert "energy for full backup" in out

    def test_fig2_with_scale_and_apps(self, capsys):
        assert main(["fig2", "--scale", "0.05", "--apps", "cosmos"]) == 0
        out = capsys.readouterr().out
        assert "one_hour_pct" in out
        assert "cosmos" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--scale", "0.05", "--apps", "search_index"]) == 0
        assert "p99_pct" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", "--scale", "0.05", "--apps", "page_rank"]) == 0
        assert "p95_pct" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestYCSBCommand:
    def test_small_sweep(self, capsys):
        code = main(
            ["ycsb", "--workloads", "C", "--budgets-gb", "4",
             "--records", "300", "--ops", "600"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 7: throughput" in out
        assert "Fig 8: latency" in out
        assert "Fig 9: SSD write rate" in out
        assert "YCSB-C" in out

    def test_workload_aliases(self, capsys):
        code = main(
            ["ycsb", "--workloads", "ycsb-c", "--budgets-gb", "4",
             "--records", "300", "--ops", "400"]
        )
        assert code == 0



UNKNOWN_WORKLOAD = (
    "unknown workload 'Z'; choose from "
    "['YCSB-A', 'YCSB-B', 'YCSB-C', 'YCSB-D', 'YCSB-E', 'YCSB-F']"
)


class TestSpecValidationErrors:
    """Bad spec values exit 2 with one ``repro: error:`` line, no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ycsb", "--records", "0"], "record_count must be positive: 0"),
            (["cluster", "--shards", "0"], "shards must be positive: 0"),
            (
                ["sweep", "--grid", "missing.json"],
                "[Errno 2] No such file or directory: 'missing.json'",
            ),
            (
                ["compile", "--out", "/nonexistent/x.ops", "--ops", "100"],
                "[Errno 2] No such file or directory: '/nonexistent/x.ops'",
            ),
            (["ycsb", "--workloads", "Z"], UNKNOWN_WORKLOAD),
            (["sweep", "--workloads", "Z"], UNKNOWN_WORKLOAD),
            (["cluster", "--workload", "Z"], UNKNOWN_WORKLOAD),
            (["compile", "--workload", "Z", "--out", "z.ops"], UNKNOWN_WORKLOAD),
            (
                ["cluster", "--membership", "1:add"],
                "bad membership entry '1:add': expected EPOCH:add|remove:SHARD",
            ),
            (
                ["sweep", "--grid", "mistyped-grid.json"],
                "seeds: expected an integer, got 1.5",
            ),
            (
                ["ycsb", "--budgets-gb", "2,2"],
                "duplicate budget fractions in grid",
            ),
            (
                ["cluster", "--total-budgets-gb", "inf"],
                "total_budget_fraction must be finite and positive: inf",
            ),
            (
                ["cluster", "--churn-cap", "-1"],
                "churn_cap_pages must be non-negative: -1",
            ),
            (
                ["crashfind", "--crash-points", "abc"],
                "--crash-points must be 'all' or a stride: 'abc'",
            ),
            (
                ["crashfind", "--crash-points", "0"],
                "--crash-points stride must be >= 1: 0",
            ),
            (
                ["replay", "--battery-pct", "-5"],
                "--battery-pct must be in (0, 100]: -5",
            ),
            (
                ["replay", "--battery-pct", "0"],
                "--battery-pct must be in (0, 100]: 0",
            ),
            (
                ["replay", "--battery-pct", "nan"],
                "--battery-pct must be in (0, 100]: nan",
            ),
        ],
        ids=[
            "ycsb-records-0",
            "cluster-shards-0",
            "sweep-grid-missing",
            "compile-out-unwritable",
            "ycsb-unknown-workload",
            "sweep-unknown-workload",
            "cluster-unknown-workload",
            "compile-unknown-workload",
            "cluster-membership-malformed",
            "sweep-grid-mistyped",
            "ycsb-duplicate-budgets",
            "cluster-budget-inf",
            "cluster-churn-cap-negative",
            "crashfind-crash-points-abc",
            "crashfind-crash-points-0",
            "replay-battery-pct-negative",
            "replay-battery-pct-0",
            "replay-battery-pct-nan",
        ],
    )
    def test_exits_2_with_one_line(
        self, capsys, monkeypatch, tmp_path, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mistyped-grid.json").write_text('{"seeds": [1.5]}')
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro: error: {message}\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestChartFlags:
    def test_fig2_chart(self, capsys):
        assert main(["fig2", "--chart", "--scale", "0.05", "--apps", "cosmos"]) == 0
        out = capsys.readouterr().out
        assert "-- cosmos --" in out
        assert "#" in out

    def test_ycsb_chart(self, capsys):
        code = main(
            ["ycsb", "--workloads", "C", "--budgets-gb", "4,16", "--chart",
             "--records", "300", "--ops", "500"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 7 (chart)" in out
        assert "=baseline" in out


class TestReplayCommand:
    def test_replay(self, capsys):
        assert main(["replay", "--app", "page_rank", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "replayed at 15% battery" in out
        assert "eviction_rate" in out


class TestEconomicsCommand:
    def test_economics(self, capsys):
        assert main(["economics", "--servers", "1000"]) == 0
        out = capsys.readouterr().out
        assert "fleet battery capex" in out
        assert "saving_vs_full_pct" in out


class TestAblationCommand:
    def test_ablation(self, capsys):
        assert main(["ablation", "--records", "400", "--ops", "800"]) == 0
        out = capsys.readouterr().out
        assert "stale dirty bits" in out

    @pytest.mark.slow
    def test_policies(self, capsys):
        assert main(["policies", "--records", "500", "--ops", "1000"]) == 0
        out = capsys.readouterr().out
        assert "least-recently-updated" in out
        assert "fifo" in out
