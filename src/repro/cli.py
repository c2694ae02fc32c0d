"""Command-line interface: regenerate the paper's evaluation from a shell.

Usage::

    python -m repro list                      # what can be regenerated
    python -m repro fig1                      # DRAM vs lithium growth
    python -m repro fig2|fig3|fig4 [--scale F] [--apps a,b]
    python -m repro fig5
    python -m repro ycsb [--workloads A,B,C,D,F] [--budgets-gb 2,8,16]
                         [--records N] [--ops N]       # Figs 7/8/9 rows
    python -m repro sizing                    # section 2.2 battery math
    python -m repro ablation                  # stale dirty bits (6.3)
    python -m repro policies                  # victim-policy comparison
    python -m repro trace [--system viyojit]  # structured event trace (JSON/CSV)
    python -m repro crashfind --trace zipfian --crash-points all
                                              # exhaustive crash-point exploration
    python -m repro lint [paths...]           # project-specific static analysis
    python -m repro compile --out STREAM.ops [--workload A] [--records N]
                            [--ops N] [--epochs N]
                                              # compile a workload to a .ops file
    python -m repro sweep [--jobs N] [--budgets-gb 2,6,10,14,18]
                          [--grid GRID.json] [--out SWEEP.json]
                                              # deterministic multi-process sweep
    python -m repro cluster [--shard-counts 1,4,16] [--total-budgets-gb 2,6,10]
                            [--jobs N] [--out CLUSTER.json]
                                              # sharded cluster w/ shared battery pool

Every subcommand prints the same ASCII rows the corresponding benchmark
asserts on, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from repro.bench import experiments
from repro.bench.reporting import format_table
from repro.bench.runner import ExperimentScale, PAPER_HEAP_GB
from repro.workloads.ycsb import YCSB_WORKLOADS


def _workload_name(text: str) -> str:
    """``a``, ``ycsb-a`` and ``YCSB-A`` all name YCSB-A."""
    token = text.strip().upper()
    name = token if token.startswith("YCSB-") else f"YCSB-{token}"
    if name not in YCSB_WORKLOADS:
        raise ValueError(
            f"unknown workload {token!r}; choose from "
            f"{sorted(YCSB_WORKLOADS)}"
        )
    return name


def _parse_workloads(spec: str) -> List[str]:
    return [_workload_name(token) for token in spec.split(",")]


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(
        record_count=args.records, operation_count=args.ops
    )


def cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        {"command": "fig1", "regenerates": "Fig 1: DRAM vs lithium growth"},
        {"command": "fig2", "regenerates": "Fig 2: worst-interval write fractions"},
        {"command": "fig3", "regenerates": "Fig 3: skew vs touched pages"},
        {"command": "fig4", "regenerates": "Fig 4: skew vs total pages"},
        {"command": "fig5", "regenerates": "Fig 5: zipf page-fraction scaling"},
        {"command": "ycsb", "regenerates": "Figs 7/8/9: throughput, latency, write rate"},
        {"command": "sizing", "regenerates": "Section 2.2: battery sizing"},
        {"command": "ablation", "regenerates": "Section 6.3: stale dirty bits"},
        {"command": "policies", "regenerates": "Victim-policy comparison"},
        {"command": "trace", "regenerates": "Structured event trace + epoch timeline"},
        {"command": "crashfind", "regenerates": "Crash-point exploration (durability at every boundary)"},
        {"command": "lint", "regenerates": "Static-analysis report (repro.analysis)"},
        {"command": "compile", "regenerates": "Compiled op stream (.ops, zero-copy replayable)"},
        {"command": "sweep", "regenerates": "Budget x skew x workload grid over a process pool (SWEEP.json)"},
        {"command": "cluster", "regenerates": "Sharded cluster over a shared battery pool (CLUSTER.json)"},
    ]
    print(format_table(rows, title="Available experiment regenerators"))
    return 0


def cmd_fig1(_args: argparse.Namespace) -> int:
    print(format_table(experiments.fig1_table(), title="Fig 1"))
    return 0


def _trace_fig(builder, args: argparse.Namespace, title: str) -> int:
    apps = args.apps.split(",") if args.apps else None
    rows = builder(applications=apps, volume_scale=args.scale)
    if getattr(args, "chart", False):
        from repro.bench.charts import grouped_bar_chart

        value_key = "one_hour_pct" if "one_hour_pct" in rows[0] else "p99_pct"
        print(
            grouped_bar_chart(
                rows, "application", "volume", value_key,
                title=f"{title} [{value_key}]",
            )
        )
    else:
        print(format_table(rows, title=title))
    return 0


def cmd_fig2(args):  # noqa: D103 - dispatched
    return _trace_fig(experiments.fig2_rows, args, "Fig 2: worst-interval writes (%)")


def cmd_fig3(args):  # noqa: D103
    return _trace_fig(experiments.fig3_rows, args, "Fig 3: skew (% of touched)")


def cmd_fig4(args):  # noqa: D103
    return _trace_fig(experiments.fig4_rows, args, "Fig 4: skew (% of total)")


def cmd_fig5(_args: argparse.Namespace) -> int:
    print(format_table(experiments.fig5_rows(), title="Fig 5: zipf scaling"))
    return 0


def cmd_ycsb(args: argparse.Namespace) -> int:
    from repro.parallel import run_sweep

    workloads = _parse_workloads(args.workloads)
    fractions = [
        float(gb) / PAPER_HEAP_GB for gb in args.budgets_gb.split(",")
    ]
    grid = experiments.figure_grid(args.records, args.ops, workloads, fractions)
    print(
        f"running {len(workloads)} workload(s) x {len(fractions)} budget(s) "
        f"at {grid.record_count} records / {grid.operation_count} ops ...",
        file=sys.stderr,
    )
    entries = run_sweep(grid)["jobs"]
    fig7 = experiments.fig7_rows(entries)
    print(format_table(fig7, title="Fig 7: throughput"))
    if args.chart and len(fractions) > 1:
        from repro.bench.charts import line_plot

        xs = sorted({row["budget_gb"] for row in fig7})
        series = {}
        for name in workloads:
            by_budget = {
                row["budget_gb"]: row["viyojit_kops"]
                for row in fig7
                if row["workload"] == name
            }
            series[name] = [by_budget[x] for x in xs]
            series["baseline"] = [
                next(
                    row["nvdram_kops"]
                    for row in fig7
                    if row["workload"] == workloads[0]
                )
            ] * len(xs)
        print()
        print(
            line_plot(
                xs, series,
                title="Fig 7 (chart): throughput (kops) vs budget (GB)",
            )
        )
    print()
    print(format_table(experiments.fig8_rows(entries), title="Fig 8: latency (ms)"))
    print()
    print(format_table(experiments.fig9_rows(entries), title="Fig 9: SSD write rate"))
    return 0


def cmd_sizing(_args: argparse.Namespace) -> int:
    print(
        format_table(
            experiments.battery_sizing_rows(), title="Section 2.2: battery sizing"
        )
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.bench.trace_replay import TraceReplayer
    from repro.core.config import ViyojitConfig
    from repro.core.runtime import Viyojit
    from repro.sim.events import Simulation
    from repro.workloads.traces import application_volumes, generate_volume_trace, scaled_spec

    if not 0 < args.battery_pct <= 100:
        raise ValueError(
            f"--battery-pct must be in (0, 100]: {args.battery_pct:g}"
        )
    rows = []
    for index, spec in enumerate(application_volumes(args.app)):
        trace = generate_volume_trace(scaled_spec(spec, args.scale), seed=7 + index)
        sim = Simulation()
        budget = max(1, int(trace.spec.num_pages * args.battery_pct / 100))
        system = Viyojit(
            sim,
            num_pages=trace.spec.num_pages + 64,
            config=ViyojitConfig(dirty_budget_pages=budget),
        )
        system.start()
        result = TraceReplayer(system, trace).replay()
        rows.append(
            {
                "volume": spec.name,
                "writes": result.writes,
                "peak_dirty": result.peak_dirty_pages,
                "budget": result.budget_pages,
                "eviction_rate": round(result.eviction_rate, 4),
            }
        )
    print(
        format_table(
            rows,
            title=f"{args.app} volumes replayed at {args.battery_pct:g}% battery",
        )
    )
    return 0


def cmd_economics(args: argparse.Namespace) -> int:
    from repro.power.economics import BatteryCostModel, FleetSpec, fleet_capex_rows
    from repro.power.power_model import PowerModel

    rows = fleet_capex_rows(
        FleetSpec(servers=args.servers),
        PowerModel(),
        BatteryCostModel(),
    )
    print(
        format_table(
            rows,
            title=f"Section 2.2: fleet battery capex ({args.servers:,} servers "
            "x 4 TB NV-DRAM)",
        )
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import events_to_csv, timeline_to_csv, to_json
    from repro.obs.harness import TraceWorkload, run_traced_workload
    from repro.obs.tracer import RecordingTracer

    spec = TraceWorkload(
        system=args.system,
        num_pages=args.pages,
        dirty_budget_pages=args.budget,
        hot_pages=args.hot_pages,
        ops=args.ops,
        seed=args.seed,
        theta=args.theta,
    )
    tracer = RecordingTracer()
    result = run_traced_workload(spec, tracer)
    if args.format == "json":
        text = to_json(result)
    else:
        text = events_to_csv(tracer.events)
        timeline = tracer.metrics.timeline.points()
        if timeline:
            text += "\n" + timeline_to_csv(timeline)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(tracer.events)} events "
            f"({spec.system}, seed {spec.seed}) to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text, end="")
    return 0


def cmd_crashfind(args: argparse.Namespace) -> int:
    import json as _json

    from repro.faults import (
        FaultPlan,
        SSDFaultRule,
        explore_crash_points,
        load_fault_plan,
    )
    from repro.obs.harness import TraceWorkload

    spec = TraceWorkload(
        system=args.system,
        num_pages=args.pages,
        dirty_budget_pages=args.budget,
        hot_pages=args.hot_pages,
        ops=args.ops,
        seed=args.seed,
        theta=args.theta,
    )
    if args.fault_plan:
        plan = load_fault_plan(args.fault_plan)
    elif args.ssd_fail_rate > 0:
        plan = FaultPlan(
            seed=args.fault_seed,
            ssd_rules=(SSDFaultRule(op="write", fail_prob=args.ssd_fail_rate),),
        )
    else:
        plan = FaultPlan(seed=args.fault_seed)
    if args.crash_points == "all":
        stride = 1
    else:
        try:
            stride = int(args.crash_points)
        except ValueError:
            raise ValueError(
                f"--crash-points must be 'all' or a stride: {args.crash_points!r}"
            ) from None
        if stride < 1:
            raise ValueError(f"--crash-points stride must be >= 1: {stride}")
    report = explore_crash_points(
        spec,
        plan,
        stride=stride,
        op_stride=args.op_stride,
        replay=args.replay,
    )
    if args.format == "json":
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        total_lost = sum(p.pages_lost for p in report.points)
        total_corrupt = sum(p.pages_corrupt for p in report.points)
        rows = [
            {
                "system": spec.system,
                "ops": report.ops_applied,
                "crash_points": report.candidates_total,
                "probed": report.probed,
                "pages_lost": total_lost,
                "pages_corrupt": total_corrupt,
                "ssd_faults": report.injected_failures,
                "flush_retries": report.flush_retries,
                "replays_ok": f"{len(report.replays) - report.replay_mismatches}"
                f"/{len(report.replays)}",
                "checksum": report.checksum()[:12],
            }
        ]
        print(
            format_table(
                rows, title="Crash-point exploration (0 lost everywhere = durable)"
            )
        )
        for point in report.failures:
            print(
                f"FAILED crash point #{point.index} ({point.kind}) at "
                f"t={point.t_ns}: lost={point.pages_lost} "
                f"corrupt={point.pages_corrupt} survives={point.survives}"
            )
    return 0 if report.all_ok else 1


def cmd_ablation(args: argparse.Namespace) -> int:
    rows = experiments.stale_bits_ablation(scale=_scale_from(args))
    print(format_table(rows, title="Section 6.3: stale dirty bits (YCSB-A, 11%)"))
    return 0


def cmd_policies(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_workload
    from repro.core.policies import POLICY_NAMES
    from repro.workloads.ycsb import YCSB_A

    scale = _scale_from(args)
    rows = []
    for policy in POLICY_NAMES:
        result = run_workload(YCSB_A, scale, 2 / 17.5, victim_policy=policy)
        rows.append(
            {
                "policy": policy,
                "throughput_kops": round(result.throughput_kops, 2),
                "write_faults": result.viyojit_stats["write_faults"],
            }
        )
    print(format_table(rows, title="Victim policies (YCSB-A, 11% battery)"))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.parallel import SweepGrid, run_sweep

    if args.grid:
        grid = SweepGrid.from_file(args.grid)
    else:
        workloads = tuple(_parse_workloads(args.workloads))
        fractions: list = [] if args.no_baseline else [None]
        for token in args.budgets_gb.split(","):
            fractions.append(float(token) / PAPER_HEAP_GB)
        grid = SweepGrid(
            workloads=workloads,
            budget_fractions=tuple(fractions),
            thetas=tuple(
                float(token) for token in args.thetas.split(",")
            ),
            seeds=tuple(int(token) for token in args.seeds.split(",")),
            record_count=args.records,
            operation_count=args.ops,
        )
    return _run_grid(args, "sweep", run_sweep, grid, _print_sweep)


def _print_sweep(report: dict, args: argparse.Namespace) -> None:
    rows = [
        {
            "workload": row["workload"],
            "budget_gb": row["budget_gb"],
            "theta": row["theta"],
            "viyojit_kops": row["viyojit_kops"],
            "nvdram_kops": row.get("nvdram_kops", "-"),
            "overhead_pct": row.get("overhead_pct", "-"),
        }
        for row in report["tables"]["throughput_vs_budget"]
    ]
    if rows:
        print(
            format_table(
                rows,
                title=f"Budget sweep ({len(report['jobs'])} jobs, "
                f"--jobs {args.jobs})",
            )
        )


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterGrid, run_cluster_grid

    if args.shards is not None:
        shard_counts = (args.shards,)
    else:
        shard_counts = tuple(
            int(token) for token in args.shard_counts.split(",")
        )
    budgets: list = [] if args.no_baseline else [None]
    budgets.extend(
        float(token) for token in args.total_budgets_gb.split(",")
    )
    degrade: tuple = ()
    if args.pool_degrade:
        steps = []
        for token in args.pool_degrade.split(","):
            epoch_text, _, fraction_text = token.partition(":")
            steps.append((int(epoch_text), float(fraction_text)))
        degrade = tuple(steps)
    membership: tuple = ()
    if args.membership:
        changes = []
        for token in args.membership.split(","):
            parts = token.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"bad membership entry {token!r}: expected "
                    f"EPOCH:add|remove:SHARD"
                )
            changes.append((int(parts[0]), parts[1], int(parts[2])))
        membership = tuple(changes)
    grid = ClusterGrid(
        shard_counts=shard_counts,
        total_budgets_gb=tuple(budgets),
        workload=_workload_name(args.workload),
        theta=args.theta,
        seed=args.seed,
        record_count=args.records,
        operation_count=args.ops,
        epochs=args.epochs,
        pool_degrade=degrade,
        predictor=args.predictor,
        churn_cap_pages=args.churn_cap,
        membership=membership,
        hotspot_rotate_keys=args.hotspot_rotate,
    )
    return _run_grid(args, "cluster", run_cluster_grid, grid, _print_cluster)


def _print_cluster(report: dict, args: argparse.Namespace) -> None:
    rows = [
        {
            "shards": row["shards"],
            "total_battery_gb": row["total_budget_gb"],
            "cluster_kops": row["cluster_kops"],
            "nvdram_kops": row.get("nvdram_kops", "-"),
            "overhead_pct": row.get("overhead_pct", "-"),
        }
        for row in report["tables"]["throughput_vs_total_battery"]
    ]
    if rows:
        print(
            format_table(
                rows,
                title=f"Cluster throughput vs total battery "
                f"({len(report['runs'])} runs, --jobs {args.jobs})",
            )
        )
    for run in report["runs"]:
        misallocation = run["summary"].get("misallocation")
        if misallocation is None:
            continue
        improvement = misallocation["improvement_pct"]
        improved = (
            f"{improvement:+.2f}% vs last-epoch"
            if improvement is not None
            else "baseline misallocation is zero"
        )
        print(
            f"misallocation[{run['summary']['shards']} shards, "
            f"{run['summary']['total_budget_gb']} GB, "
            f"{misallocation['predictor']}]: "
            f"L1 {misallocation['total']} ({improved})"
        )


def _run_grid(
    args: argparse.Namespace,
    name: str,
    run: Callable[..., dict],
    grid: object,
    print_tables: Callable[[dict, argparse.Namespace], None],
) -> int:
    """Run ``grid`` under :func:`_add_run_flags`' flags, print its tables
    and checksum, write ``--out``: exit 0, 1 on a failed job, 130 on an
    interrupt."""
    from repro.parallel import SweepError, dumps

    try:
        report = run(
            grid,
            jobs=args.jobs,
            timeout_s=args.timeout,
            max_retries=args.retries,
            progress=print if args.progress else None,
        )
    except KeyboardInterrupt:
        print(f"{name} interrupted; partial results discarded", file=sys.stderr)
        return 130
    except SweepError as exc:
        print(f"{name} failed: {exc}", file=sys.stderr)
        print(
            f"partial results: {len(exc.partial)} of "
            f"{len(exc.partial) + len(exc.failures)} job(s) completed "
            f"(failed: {sorted(exc.failures)})",
            file=sys.stderr,
        )
        return 1
    print_tables(report, args)
    print(f"{name} checksum: {report['checksum_sha256']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dumps(report, strip_wall=args.strip_wall))
        print(f"wrote {args.out}")
    return 0


def _add_run_flags(parser: argparse.ArgumentParser, report: str) -> None:
    """The execution flags ``repro sweep`` and ``repro cluster`` share."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = in-process serial)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in wall seconds")
    parser.add_argument("--retries", type=int, default=2,
                        help="max retries per failed job (default 2)")
    parser.add_argument("--out", type=str, default=None,
                        help=f"write {report} to this path")
    parser.add_argument("--strip-wall", action="store_true",
                        help="write the deterministic view (no wall section)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-job progress lines")


def cmd_compile(args: argparse.Namespace) -> int:
    from repro.workloads.compiled import compile_workload, save_ops

    name = _workload_name(args.workload)
    stream = compile_workload(
        YCSB_WORKLOADS[name],
        args.records,
        args.ops,
        value_size=args.value_size,
        theta=args.theta,
        seed=args.seed,
        epochs=args.epochs,
        hotspot_rotate_keys=args.hotspot_rotate,
    )
    checksum = save_ops(stream, args.out)
    print(
        f"wrote {args.out}: {len(stream)} {name} ops, "
        f"{args.epochs} epoch(s), sha256 {checksum}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Viyojit (ISCA '17) reproduction — experiment regenerators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available regenerators").set_defaults(
        func=cmd_list
    )
    sub.add_parser("fig1", help="Fig 1 growth series").set_defaults(func=cmd_fig1)
    for name, func in (("fig2", cmd_fig2), ("fig3", cmd_fig3), ("fig4", cmd_fig4)):
        p = sub.add_parser(name, help=f"{name} trace analysis")
        p.add_argument("--scale", type=float, default=0.25,
                       help="volume scale factor (default 0.25)")
        p.add_argument("--apps", type=str, default=None,
                       help="comma-separated application subset")
        p.add_argument("--chart", action="store_true",
                       help="render as ASCII bars instead of a table")
        p.set_defaults(func=func)
    sub.add_parser("fig5", help="Fig 5 zipf scaling").set_defaults(func=cmd_fig5)

    ycsb = sub.add_parser("ycsb", help="Figs 7/8/9 YCSB sweep")
    ycsb.add_argument("--workloads", default="A,B,C,D,F")
    ycsb.add_argument("--budgets-gb", default="2,8,16",
                      help="dirty budgets on the paper's 17.5 GB-heap axis")
    ycsb.add_argument("--records", type=int, default=2000)
    ycsb.add_argument("--ops", type=int, default=6000)
    ycsb.add_argument("--chart", action="store_true",
                      help="also render Fig 7 as an ASCII line plot")
    ycsb.set_defaults(func=cmd_ycsb)

    replay = sub.add_parser(
        "replay", help="replay section 3 traces against a live Viyojit"
    )
    replay.add_argument("--app", default="cosmos",
                        help="application (azure_blob/cosmos/page_rank/search_index)")
    replay.add_argument("--battery-pct", type=float, default=15.0,
                        help="battery as %% of each volume (default 15)")
    replay.add_argument("--scale", type=float, default=0.08)
    replay.set_defaults(func=cmd_replay)

    sub.add_parser("sizing", help="section 2.2 battery math").set_defaults(
        func=cmd_sizing
    )
    econ = sub.add_parser("economics", help="section 2.2 fleet capex")
    econ.add_argument("--servers", type=int, default=50_000)
    econ.set_defaults(func=cmd_economics)
    for name, func in (("ablation", cmd_ablation), ("policies", cmd_policies)):
        p = sub.add_parser(name, help=f"{name} experiment")
        p.add_argument("--records", type=int, default=2000)
        p.add_argument("--ops", type=int, default=6000)
        p.set_defaults(func=func)

    trace = sub.add_parser(
        "trace",
        help="replay a seeded zipfian workload, dump the structured "
        "event log + epoch timeline (deterministic under a fixed seed)",
    )
    trace.add_argument("--system", default="viyojit",
                       choices=("viyojit", "nvdram", "hardware"),
                       help="runtime variant to trace (default viyojit)")
    trace.add_argument("--pages", type=int, default=192,
                       help="NV-DRAM region size in pages")
    trace.add_argument("--budget", type=int, default=12,
                       help="dirty budget in pages (ignored for nvdram)")
    trace.add_argument("--hot-pages", type=int, default=64,
                       help="zipfian key space in pages")
    trace.add_argument("--ops", type=int, default=400,
                       help="operations to replay")
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--theta", type=float, default=0.99,
                       help="zipfian skew (default 0.99)")
    trace.add_argument("--format", choices=("json", "csv"), default="json")
    trace.add_argument("--out", type=str, default=None,
                       help="write to a file instead of stdout")
    trace.set_defaults(func=cmd_trace)

    crashfind = sub.add_parser(
        "crashfind",
        help="enumerate every flush/eviction/fault boundary of a seeded "
        "workload as a crash instant and verify full recovery at each "
        "(deterministic; exits 1 if any crash point loses data)",
    )
    crashfind.add_argument("--trace", default="zipfian", choices=("zipfian",),
                           help="workload family (only zipfian for now)")
    crashfind.add_argument("--system", default="viyojit",
                           choices=("viyojit", "nvdram", "hardware"),
                           help="runtime variant to explore (default viyojit)")
    crashfind.add_argument("--pages", type=int, default=192,
                           help="NV-DRAM region size in pages")
    crashfind.add_argument("--budget", type=int, default=12,
                           help="dirty budget in pages (ignored for nvdram)")
    crashfind.add_argument("--hot-pages", type=int, default=64,
                           help="zipfian key space in pages")
    crashfind.add_argument("--ops", type=int, default=400,
                           help="operations to replay")
    crashfind.add_argument("--seed", type=int, default=7)
    crashfind.add_argument("--theta", type=float, default=0.99,
                           help="zipfian skew (default 0.99)")
    crashfind.add_argument("--crash-points", default="all",
                           help="'all' or an integer stride N (probe every "
                           "Nth candidate boundary)")
    crashfind.add_argument("--op-stride", type=int, default=0,
                           help="additionally probe after every Nth op "
                           "(the nvdram baseline emits no event boundaries)")
    crashfind.add_argument("--replay", type=int, default=0,
                           help="cross-validate N probed boundaries with a "
                           "real replayed power cut")
    crashfind.add_argument("--fault-plan", type=str, default=None,
                           help="JSON fault-plan file to arm during the run")
    crashfind.add_argument("--ssd-fail-rate", type=float, default=0.0,
                           help="shorthand plan: fail this fraction of SSD "
                           "write submissions (retries must absorb them)")
    crashfind.add_argument("--fault-seed", type=int, default=1,
                           help="seed for the fault plan's RNG stream")
    crashfind.add_argument("--format", choices=("table", "json"),
                           default="table")
    crashfind.set_defaults(func=cmd_crashfind)

    # `repro lint ARGS` is `python -m repro.analysis ARGS`: the subparser
    # declares nothing (not even --help), so main() forwards every ARG.
    sub.add_parser(
        "lint",
        add_help=False,
        help="project-specific static analysis (same engine and flags as "
        "python -m repro.analysis); exits 1 on violations",
    )

    compile_p = sub.add_parser(
        "compile",
        help="compile a YCSB workload into a checksummed .ops stream "
        "(struct-of-arrays, zero-copy replayable via np.memmap)",
    )
    compile_p.add_argument("--workload", type=str, default="A",
                           help="YCSB workload (default A)")
    compile_p.add_argument("--records", type=int, default=2_000,
                           help="record count (default 2000)")
    compile_p.add_argument("--ops", type=int, default=6_000,
                           help="operation count (default 6000)")
    compile_p.add_argument("--value-size", type=int, default=976,
                           help="value size in bytes (default 976)")
    compile_p.add_argument("--theta", type=float, default=0.99,
                           help="zipfian theta (default 0.99)")
    compile_p.add_argument("--seed", type=int, default=42,
                           help="workload seed (default 42)")
    compile_p.add_argument("--epochs", type=int, default=1,
                           help="epoch segments to mark (default 1)")
    compile_p.add_argument("--hotspot-rotate", type=int, default=0,
                           help="rotate the hotspot by this many keys per "
                           "epoch (default 0)")
    compile_p.add_argument("--out", type=str, required=True,
                           help="path for the .ops file")
    compile_p.set_defaults(func=cmd_compile)

    sweep = sub.add_parser(
        "sweep",
        help="budget x skew x workload sweep over a deterministic "
        "process pool; emits the checksummed SWEEP.json",
    )
    sweep.add_argument("--workloads", type=str, default="A",
                       help="comma-separated YCSB workloads (default A)")
    sweep.add_argument("--budgets-gb", type=str, default="2,6,10,14,18",
                       help="comma-separated dirty budgets in paper GB "
                       "(fractions of the 17.5 GB heap)")
    sweep.add_argument("--no-baseline", action="store_true",
                       help="skip the full-battery baseline jobs")
    sweep.add_argument("--thetas", type=str, default="0.99",
                       help="comma-separated zipfian thetas")
    sweep.add_argument("--seeds", type=str, default="42",
                       help="comma-separated workload seeds")
    sweep.add_argument("--records", type=int, default=2_000,
                       help="records per job (default 2000)")
    sweep.add_argument("--ops", type=int, default=6_000,
                       help="operations per job (default 6000)")
    sweep.add_argument("--grid", type=str, default=None,
                       help="JSON grid file overriding the flags above")
    _add_run_flags(sweep, "SWEEP.json")
    sweep.set_defaults(func=cmd_sweep)

    cluster = sub.add_parser(
        "cluster",
        help="sharded cluster serving one keyspace from a shared battery "
        "pool; emits the checksummed CLUSTER.json",
    )
    cluster.add_argument("--shards", type=int, default=None,
                         help="single shard count (overrides --shard-counts)")
    cluster.add_argument("--shard-counts", type=str, default="1,4,16",
                         help="comma-separated shard counts (default 1,4,16)")
    cluster.add_argument("--total-budgets-gb", type=str, default="2,6,10",
                         help="comma-separated pool batteries in paper GB")
    cluster.add_argument("--no-baseline", action="store_true",
                         help="skip the full-battery baseline clusters")
    cluster.add_argument("--workload", type=str, default="A",
                         help="YCSB workload (default A)")
    cluster.add_argument("--theta", type=float, default=0.99,
                         help="zipfian theta (default 0.99)")
    cluster.add_argument("--seed", type=int, default=42,
                         help="workload seed (default 42)")
    cluster.add_argument("--records", type=int, default=2_000,
                         help="global records (default 2000)")
    cluster.add_argument("--ops", type=int, default=6_000,
                         help="global operations (default 6000)")
    cluster.add_argument("--epochs", type=int, default=4,
                         help="rebalance epochs per run (default 4)")
    cluster.add_argument("--predictor", type=str, default="last-epoch",
                         choices=["last-epoch", "ewma"],
                         help="demand predictor feeding the rebalancer "
                              "(default: last-epoch, the reactive protocol)")
    cluster.add_argument("--churn-cap", type=int, default=None,
                         help="cap voluntary lease movement at this many "
                              "pages per epoch (default: undamped; 0 "
                              "freezes epoch 0's even split)")
    cluster.add_argument("--membership", type=str, default=None,
                         help="ring membership changes as "
                              "EPOCH:add|remove:SHARD[,...], e.g. "
                              "'2:add:4,3:remove:0'")
    cluster.add_argument("--hotspot-rotate", type=int, default=0,
                         help="rotate the workload hotspot by this many "
                              "keys at each epoch boundary")
    cluster.add_argument("--pool-degrade", type=str, default=None,
                         help="epoch:fraction pool-health losses, "
                         "comma-separated (e.g. 2:0.3)")
    _add_run_flags(cluster, "CLUSTER.json")
    cluster.set_defaults(func=cmd_cluster)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(extra)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except ValueError as error:
        # Spec validation (scales, grids, cluster specs, fault plans)
        # raises ValueError with a message meant for the user.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped through `head`): exit quietly.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as error:
        # Unreadable inputs and unwritable outputs (--grid, --out, ...).
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
