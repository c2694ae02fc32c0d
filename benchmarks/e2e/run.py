#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--seed 42] [--trace] [--workload NAME]

With no ``--workload`` the four workloads run one after another, each in
its own fresh subprocess, and ``out/RESULT.json`` is written (plus
``out/TRACE_<workload>.json`` under ``--trace``).  The pipeline's driver
calls ``run.py --workload W --seed N --seconds S --trace 0|1`` and reads
the JSON object on the last line of standard output.

``--noise`` runs the suite twice back to back and checks the two against
the bounds in ``BENCHMARK.json``; ``--selfcheck`` is a 20-second pass at
1/20 of the op counts.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

import numpy

try:
    import measure
    import spec
except ImportError as exc:  # src/ is not in this checkout: nothing to measure
    sys.exit(f"run.py: {exc}")

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"

EXIT_USAGE = 2  # also: another run.py holds the lock


def _prepare_out() -> None:
    """Create ``out/`` and point every temporary file of the run into it.

    ``run_cluster_grid`` materialises its ``.ops`` stream through
    ``tempfile``; with ``TMPDIR`` set the benchmark (and its pool
    workers) write nowhere outside the checkout.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None


def _acquire_lock():
    """Hold ``out/.lock`` for the life of the process, or exit 2.

    Two suites on one host would time each other.  The lock is a
    ``flock``: it vanishes with its holder, so a crashed run never
    leaves a stale one behind.
    """
    handle = open(OUT / ".lock", "w")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        print(
            f"another run.py holds {OUT / '.lock'}; two suites on one host "
            "would time each other - wait for it to finish",
            file=sys.stderr,
        )
        sys.exit(EXIT_USAGE)
    return handle


def host_facts() -> Dict[str, object]:
    return {
        "nproc": measure.nproc(),
        "grid_jobs": measure.grid_jobs(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _dump(path: Path, document: object) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# -- one workload (the driver's entry) ---------------------------------------


def _metric_line(name, value, unit, kind, better) -> str:
    shown = "null" if value is None else f"{value:.6g}"
    return f"  {name:<34} {shown:>14} {unit:<7} ({kind}, {better} is better)"


def _driver_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in this process; print metrics and the driver line."""
    if not trace:
        result = measure.run_untraced(name, seed, seconds)
        _dump(OUT / f"workload_{name}.json", result)
        print(f"{name}  seed={seed}  sim_digest={result['simulated']['sim_digest']}")
        metrics = {}
        for metric, unit, kind, better, _bound, _meaning in spec.END_TO_END:
            value = end_to_end_value(result, metric)
            print(_metric_line(metric, value, unit, kind, better))
            metrics[metric] = {"value": value, "unit": unit}
        for metric, unit, better in spec.UNBOUNDED_END_TO_END:
            value = end_to_end_value(result, metric)
            print(_metric_line(metric, value, unit, "unbounded", better))
        host = result["host"]
        print(
            f"  reps={host['host_kops_per_s']['n']}  "
            f"host_kops_per_s min/max="
            f"{host['host_kops_per_s']['min']:.4g}/{host['host_kops_per_s']['max']:.4g}  "
            f"wall={host['wall_s']:.1f}s"
        )
        for error in result["errors"]:
            print(error, file=sys.stderr)
        correct = result["failed"] == 0 and not result["errors"]
        print(_driver_line(correct, result["attempted"], result["failed"], metrics))
        return 0

    traced = measure.run_traced(name, seed)
    # The spans (hundreds of thousands of rows) go to their own compact
    # file; TRACE_<workload>.json stays small enough to read.
    (OUT / f"TRACE_{name}.spans.json").write_text(json.dumps(traced.pop("spans")))
    _dump(OUT / f"TRACE_{name}.json", traced)
    print(f"{name}  seed={seed}  traced run")
    values = {**traced["counts"], **traced["host_layers"]}
    metrics = {}
    for metric, unit, kind, better, _moves in spec.PER_LAYER:
        value = values[metric]
        print(_metric_line(metric, value, unit, kind, better))
        # The driver's schema has no null: a layer this workload does not
        # exercise reads 0 there; TRACE_<workload>.json keeps null + reason.
        metrics[metric] = {"value": 0 if value is None else value, "unit": unit}
    print(
        _driver_line(
            traced["failed"] == 0, traced["attempted"], traced["failed"], metrics
        )
    )
    return 0


def end_to_end_value(result: Dict[str, object], metric: str) -> Optional[float]:
    """One end-to-end metric of a ``run_untraced`` result, by name."""
    if metric == "failed_ops_pct":
        return result["failed_ops_pct"]  # type: ignore[return-value]
    if metric in result["simulated"]:  # type: ignore[operator]
        return result["simulated"][metric]  # type: ignore[index]
    entry = result["host"][metric]  # type: ignore[index]
    return entry["value"] if "value" in entry else entry["median"]


# -- the suite ---------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload in a fresh interpreter (cold memo, own peak RSS)."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    completed = subprocess.run(command)
    if completed.returncode != 0:
        print(f"{name}: workload process exited {completed.returncode}", file=sys.stderr)
        sys.exit(completed.returncode)


def run_suite(
    workloads: List[str], seed: int, seconds: float, trace: bool
) -> Dict[str, object]:
    """Every workload in its own subprocess; the merged RESULT document."""
    parts = {}
    traces = {}
    for name in workloads:
        _child(name, seed, seconds, trace=False)
        parts[name] = json.loads((OUT / f"workload_{name}.json").read_text())
        if trace:
            _child(name, seed, seconds, trace=True)
            traces[name] = json.loads((OUT / f"TRACE_{name}.json").read_text())
    return merge_result(seed, parts, traces)


def merge_result(seed, parts, traces) -> Dict[str, object]:
    """RESULT.json: every wall-clock value under ``host``, nothing else there.

    ``jq 'del(.host)'`` of two runs of one commit at one seed is
    byte-identical.
    """
    workloads = {}
    host_workloads = {}
    for name, part in parts.items():
        entry = {
            key: part[key]
            for key in ("params", "simulated", "counts", "failed_ops_pct")
        }
        host = dict(part["host"])
        # Totals over a host-determined number of repetitions.
        for key in ("attempted", "failed", "errors"):
            host[key] = part[key]
        trace = traces.get(name)
        if trace is not None:
            entry["counts"] = trace["counts"]
            entry["null_reasons"] = trace["null_reasons"]
            host["per_layer"] = trace["host_layers"]
        workloads[name] = entry
        host_workloads[name] = host
    return {
        "schema": 1,
        "seed": seed,
        "workloads": workloads,
        "host": {"facts": host_facts(), "workloads": host_workloads},
    }


def _workload_view(result: Dict[str, object], name: str) -> Dict[str, object]:
    """One workload of a RESULT document, in ``run_untraced``'s shape."""
    return {
        **result["workloads"][name],  # type: ignore[index]
        "host": result["host"]["workloads"][name],  # type: ignore[index]
    }


def validate_result(result: Dict[str, object], traced: bool) -> List[str]:
    """Problems found checking a RESULT document against BENCHMARK.json."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    problems = []
    if declared != spec.benchmark_json():
        problems.append(
            "BENCHMARK.json differs from spec.py "
            "(regenerate it with run.py --print-benchmark-json)"
        )
    for workload in declared["workloads"]:
        name = workload["name"]
        entry = result["workloads"].get(name)  # type: ignore[union-attr]
        host = result["host"]["workloads"].get(name)  # type: ignore[index]
        if entry is None or host is None:
            problems.append(f"{name}: missing from the result")
            continue
        part = {**entry, "host": host}
        for metric in declared["end_to_end"]:
            try:
                value = end_to_end_value(part, metric["name"])
            except KeyError:
                value = None
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}: {metric['name']} = {value!r}")
        if not traced:
            continue
        layers = {**entry["counts"], **host.get("per_layer", {})}
        for metric in declared["per_layer"]:
            if metric["name"] not in layers:
                problems.append(f"{name}: {metric['name']} missing")
                continue
            value = layers[metric["name"]]
            if value is None:
                if metric["name"] not in entry.get("null_reasons", {}):
                    problems.append(f"{name}: {metric['name']} null without a reason")
            elif not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}: {metric['name']} = {value!r}")
    return problems


def print_summary(result: Dict[str, object]) -> None:
    print("\n== end-to-end (simulated = virtual time, exact; host = wall, noisy) ==")
    for name, entry in result["workloads"].items():  # type: ignore[union-attr]
        part = _workload_view(result, name)
        print(f"{name}  sim_digest={entry['simulated']['sim_digest'][:16]}")
        for metric, unit, kind, better, bound, _meaning in spec.END_TO_END:
            value = end_to_end_value(part, metric)
            print(_metric_line(metric, value, unit, kind, better) + f" bound {bound:.0%}")
        print(_metric_line("failed_ops_pct", part["failed_ops_pct"], "%", "check", "lower"))


# -- --noise -----------------------------------------------------------------


def run_noise(workloads: List[str], seed: int, seconds: float) -> int:
    """Two back-to-back suites; gap between their medians against the bounds."""
    first = run_suite(workloads, seed, seconds, trace=False)
    second = run_suite(workloads, seed, seconds, trace=False)
    facts = first["host"]["facts"]  # type: ignore[index]
    lines = [
        "# Run-to-run noise of the benchmark",
        "",
        f"Two complete untraced suites back to back (`run.py --noise --seed {seed}"
        f" --seconds {seconds:g}`), same commit, same seed.",
        f"Host: {facts['nproc']} cores, grid at jobs={facts['grid_jobs']}, "
        f"Python {facts['python']}, numpy {facts['numpy']}, {facts['machine']}.",
        "",
        "Host metrics: relative gap between the two medians, and each side's IQR "
        "over its timed repetitions as a share of its median. Simulated metrics "
        "and `sim_digest` must be identical.",
        "",
        "| workload | metric | kind | run 1 | run 2 | gap | IQR 1 | IQR 2 | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for name in workloads:
        one, two = _workload_view(first, name), _workload_view(second, name)
        for metric, _unit, kind, _better, bound, _meaning in spec.END_TO_END:
            a, b = end_to_end_value(one, metric), end_to_end_value(two, metric)
            if kind == "simulated":
                ok = a == b
                gap, iqrs = "exact" if ok else f"{abs(b - a) / a:.3%}", ("-", "-")
            else:
                gap_value = abs(b - a) / a
                ok = gap_value <= bound
                gap = f"{gap_value:.2%}"
                iqrs = tuple(
                    f"{side['host'][metric]['iqr'] / side['host'][metric]['median']:.2%}"
                    if "iqr" in side["host"][metric] else "-"
                    for side in (one, two)
                )
            failures += not ok
            lines.append(
                f"| {name} | {metric} | {kind} | {a:.6g} | {b:.6g} | {gap} | "
                f"{iqrs[0]} | {iqrs[1]} | {bound:.0%} | {'yes' if ok else 'NO'} |"
            )
        same = one["simulated"]["sim_digest"] == two["simulated"]["sim_digest"]
        clean = one["failed_ops_pct"] == 0 and two["failed_ops_pct"] == 0
        failures += (not same) + (not clean)
        lines.append(
            f"| {name} | sim_digest | simulated | {one['simulated']['sim_digest'][:12]} | "
            f"{two['simulated']['sim_digest'][:12]} | {'exact' if same else 'DIFFERS'} | "
            f"- | - | 0% | {'yes' if same else 'NO'} |"
        )
        lines.append(
            f"| {name} | failed_ops_pct | check | {one['failed_ops_pct']:g} | "
            f"{two['failed_ops_pct']:g} | - | - | - | 0% | {'yes' if clean else 'NO'} |"
        )
    lines += ["", f"Result: {'PASS' if not failures else f'FAIL ({failures} rows)'}", ""]
    text = "\n".join(lines)
    (OUT / "NOISE.md").write_text(text)
    print(text)
    return 1 if failures else 0


# -- --selfcheck -------------------------------------------------------------


def run_selfcheck(seed: int) -> int:
    """A 20-second pass at 1/20 of the op counts, in this process."""
    problems: List[str] = []
    parts, traces = {}, {}
    for name in spec.WORKLOADS:
        one = measure.run_untraced(name, seed, 0, divide_ops_by=20, min_reps=1)
        two = measure.run_untraced(name, seed, 0, divide_ops_by=20, min_reps=1)
        for key in ("simulated", "counts"):
            if one[key] != two[key]:
                problems.append(f"{name}: {key} differ between two in-process runs")
        if one["failed"]:
            problems.append(f"{name}: {one['failed']} operations failed")
        parts[name] = one
        traces[name] = measure.run_traced(name, seed, divide_ops_by=20)
        print(f"selfcheck {name}: sim_digest={one['simulated']['sim_digest'][:16]}")
    result = merge_result(seed, parts, traces)
    _dump(OUT / "RESULT.selfcheck.json", result)
    problems += validate_result(result, traced=True)

    broken = measure.run_untraced(
        "page_write_b02", seed, 0, divide_ops_by=20, min_reps=1, corrupt=True
    )
    reps = broken["host"]["host_kops_per_s"]["n"]
    if broken["failed"] != reps or not broken["failed_ops_pct"] > 0:
        problems.append(
            f"injected read-back corruption: {broken['failed']} failures "
            f"counted over {reps} repetitions, expected one each"
        )
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print(f"selfcheck: {'PASS' if not problems else 'FAIL'}")
    return 1 if problems else 0


# -- entry -------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="wall seconds one workload measures for (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also (suite) or only (--workload) make the traced per-layer run",
    )
    parser.add_argument("--noise", action="store_true", help="two suites, compared")
    parser.add_argument("--selfcheck", action="store_true", help="20 s validation pass")
    parser.add_argument("--print-benchmark-json", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.print_benchmark_json:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.workload is not None and args.workload not in spec.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from {list(spec.WORKLOADS)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS

    _prepare_out()
    lock = None if args.child else _acquire_lock()
    try:
        if args.selfcheck:
            return run_selfcheck(args.seed)
        if args.workload is not None:
            return run_workload(args.workload, args.seed, seconds, bool(args.trace))
        workloads = list(spec.WORKLOADS)
        if args.noise:
            return run_noise(workloads, args.seed, seconds)
        result = run_suite(workloads, args.seed, seconds, bool(args.trace))
        _dump(OUT / "RESULT.json", result)
        print_summary(result)
        problems = validate_result(result, traced=bool(args.trace))
        for problem in problems:
            print(f"RESULT.json: {problem}", file=sys.stderr)
        failed = sum(
            host["failed"] for host in result["host"]["workloads"].values()
        )
        return 1 if problems or failed else 0
    finally:
        if lock is not None:
            lock.close()


if __name__ == "__main__":
    sys.exit(main())
