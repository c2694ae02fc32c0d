"""BENCH.json contract: schema, determinism, and the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.perf import SCHEMA_VERSION, compare_reports, run_suite
from repro.perf.report import deterministic_view, dumps


@pytest.fixture(scope="module")
def quick_reports():
    """Two full quick-mode suite runs (module-scoped: the suite is the
    expensive part; every schema/determinism assertion shares them)."""
    return run_suite(quick=True, repeats=1), run_suite(quick=True, repeats=1)


class TestSchema:
    def test_top_level_layout(self, quick_reports):
        report, _ = quick_reports
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["mode"] == "quick"
        assert set(report) == {
            "schema_version", "mode", "micro", "macro", "wall"
        }

    def test_expected_benchmarks_present(self, quick_reports):
        report, _ = quick_reports
        assert set(report["micro"]) == {
            "write_fault_path",
            "epoch_scan",
            "victim_ranking",
            "flusher_throughput",
            "tlb_hot_path",
            "compile_stream",
            "ops_roundtrip",
        }
        assert set(report["macro"]) == {
            "viyojit_batched",
            "viyojit_compiled",
            "nvdram_batched",
            "nvdram_compiled",
            "sweep_jobs1",
            "sweep_jobs2",
            "scale_replay",
        }

    def test_compiled_macro_sims_equal_batched(self, quick_reports):
        """Compiled replay is simulation-invisible in the report itself."""
        report, _ = quick_reports
        assert (
            report["macro"]["viyojit_compiled"]
            == report["macro"]["viyojit_batched"]
        )
        assert (
            report["macro"]["nvdram_compiled"]
            == report["macro"]["nvdram_batched"]
        )

    def test_scale_replay_recorded(self, quick_reports):
        report, _ = quick_reports
        replay = report["macro"]["scale_replay"]
        assert replay["replay"]["ops"] == replay["ops"]
        assert len(replay["stream_sha256"]) == 64

    def test_sweep_pair_agrees_on_checksum(self, quick_reports):
        report, _ = quick_reports
        one, two = (
            report["macro"]["sweep_jobs1"],
            report["macro"]["sweep_jobs2"],
        )
        assert one["sweep_checksum_sha256"] == two["sweep_checksum_sha256"]
        assert one["jobs"] == two["jobs"] == 4

    def test_speedup_ratios_recorded(self, quick_reports):
        report, _ = quick_reports
        speedups = report["wall"]["speedups"]
        assert set(speedups) == {
            "ycsb_a_compiled_vs_batched",
            "ycsb_a_nvdram_compiled_vs_batched",
            "sweep_jobs2_vs_jobs1",
        }
        for ratio in speedups.values():
            assert ratio > 0

    def test_wall_fields_named_wall_s(self, quick_reports):
        report, _ = quick_reports
        wall = report["wall"]
        assert "generated_at_unix" in wall
        for group in ("micro", "macro"):
            for fields in wall[group].values():
                assert fields["wall_s"] > 0

    def test_sim_sections_have_no_wall_fields(self, quick_reports):
        report, _ = quick_reports
        text = deterministic_view(report)
        assert "wall_s" not in text
        assert "generated_at" not in text

    def test_dumps_round_trips(self, quick_reports):
        report, _ = quick_reports
        assert json.loads(dumps(report)) == report


class TestDeterminism:
    def test_two_runs_byte_identical_outside_wall(self, quick_reports):
        first, second = quick_reports
        assert deterministic_view(first) == deterministic_view(second)

    def test_macro_sim_matches_simulation_golden_behavior(self, quick_reports):
        report, _ = quick_reports
        viyojit = report["macro"]["viyojit_batched"]
        assert viyojit["ops_executed"] == 4_000
        assert viyojit["stats"]["epochs"] > 0
        assert viyojit["stats"]["write_faults"] > 0


class TestRegressionGate:
    def _report(self, wall_s: float, schema: int = SCHEMA_VERSION) -> dict:
        return {
            "schema_version": schema,
            "mode": "quick",
            "micro": {},
            "macro": {},
            "wall": {
                "generated_at_unix": 0.0,
                "repeats": 1,
                "micro": {"bench": {"unit": "ops", "units": 1, "wall_s": wall_s,
                                    "per_sec": 1.0 / wall_s}},
                "macro": {},
            },
        }

    def test_within_limit_passes(self):
        assert compare_reports(self._report(1.5), self._report(1.0), 2.0) == []

    def test_over_limit_fails(self):
        failures = compare_reports(self._report(2.5), self._report(1.0), 2.0)
        assert len(failures) == 1
        assert "micro:bench" in failures[0]
        assert "2.50x" in failures[0]

    def test_new_benchmark_not_gated(self):
        baseline = self._report(1.0)
        baseline["wall"]["micro"] = {}
        assert compare_reports(self._report(9.9), baseline, 2.0) == []

    def test_schema_mismatch_fails(self):
        failures = compare_reports(
            self._report(1.0), self._report(1.0, schema=0), 2.0
        )
        assert failures and "schema_version" in failures[0]

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            compare_reports(self._report(1.0), self._report(1.0), 0.0)


class TestCLI:
    def test_perf_writes_bench_json_and_compares(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH.json"
        assert main(["perf", "--quick", "--repeats", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        # A generous limit keeps this assertion about plumbing, not about
        # the noise floor of the machine running the tests.
        assert main(["perf", "--quick", "--repeats", "1",
                     "--against", str(out), "--max-regression", "50"]) == 0
        captured = capsys.readouterr()
        assert "no wall-clock regression" in captured.out

    def test_against_stale_schema_exits_3(self, tmp_path, capsys):
        """A baseline from an older schema fails fast with its own code."""
        from repro.cli import main

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schema_version": SCHEMA_VERSION - 1}))
        assert main(["perf", "--quick", "--repeats", "1",
                     "--against", str(stale)]) == 3
        captured = capsys.readouterr()
        assert "schema mismatch: regenerate baseline" in captured.err
