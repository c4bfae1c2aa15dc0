"""Command-line interface for the library.

Installed as the ``repro-rrc`` console script (and runnable as
``python -m repro.cli``), the CLI exposes the most common workflows without
writing any Python:

* ``repro-rrc carriers`` — list the built-in carrier profiles (Table 2).
* ``repro-rrc simulate`` — run one workload under one or more schemes on one
  carrier and print the energy/switch/delay comparison.
* ``repro-rrc sweep`` — declare and execute a full workload × carrier ×
  scheme grid through :mod:`repro.api`, optionally on a process pool
  (``--jobs N``) and optionally from/to a JSON plan file.  With ``--cell``
  the grid sweeps a multi-device cell (population × carrier × device
  scheme × base-station dormancy policy) with streamed traces, so
  10k+-device cells run in bounded memory.
* ``repro-rrc apps`` — the per-application comparison of Figure 9.
* ``repro-rrc compare-carriers`` — the cross-carrier comparison of
  Figures 17/18 and Table 3.
* ``repro-rrc validate`` — the energy-estimator validation of Figure 8.
* ``repro-rrc trace-info`` — summarise a pcap/tcpdump capture.

Every command prints plain text to stdout; ``--csv PATH`` additionally
writes machine-readable output where it makes sense, and ``sweep --json``
emits the full record set as JSON.  Bad input to any command prints one
``error: ...`` line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis.experiments import (
    application_savings,
    carrier_comparison,
    run_schemes,
)
from .analysis.figures import format_table
from .api.spec import TraceSpec
from .core.controller import KNOWN_SCHEMES
from .energy.validation import run_validation
from .metrics.savings import savings_table
from .rrc.profiles import CARRIER_ORDER, CARRIER_PROFILES, get_profile
from .reporting.render import write_csv
from .traces.stats import summarize_trace
from .traces.synthetic import APPLICATION_NAMES

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-rrc`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-rrc",
        description=(
            "Traffic-aware 3G/LTE RRC energy saving "
            "(reproduction of Deng & Balakrishnan, CoNEXT 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("carriers", help="list the built-in carrier profiles")

    simulate = sub.add_parser(
        "simulate", help="simulate one workload under the standard schemes"
    )
    simulate.add_argument(
        "--carrier", default="att_hspa", choices=sorted(CARRIER_PROFILES)
    )
    source = simulate.add_mutually_exclusive_group()
    source.add_argument(
        "--app", choices=APPLICATION_NAMES, help="synthetic application workload"
    )
    source.add_argument("--user", type=int, help="synthetic user id (with --population)")
    source.add_argument("--pcap", help="path to a pcap capture")
    source.add_argument("--tcpdump", help="path to a tcpdump text log")
    simulate.add_argument(
        "--population", default="verizon_3g", help="user population for --user"
    )
    simulate.add_argument("--duration", type=float, default=3600.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--window-size", type=int, default=100)
    simulate.add_argument("--csv", help="also write the comparison as CSV")

    sweep = sub.add_parser(
        "sweep",
        help="run a declarative workload x carrier x scheme grid (repro.api)",
    )
    sweep_source = sweep.add_mutually_exclusive_group()
    sweep_source.add_argument(
        "--apps", help="comma-separated synthetic application workloads"
    )
    sweep_source.add_argument(
        "--population", help="user population (sweeps its users; see --users)"
    )
    sweep_source.add_argument(
        "--plan", help="load the whole plan from a JSON file (see --save-plan)"
    )
    sweep.add_argument(
        "--cell", action="store_true",
        help="sweep a multi-device cell (streamed traces) instead of single UEs",
    )
    sweep.add_argument(
        "--metro", default=None,
        help="comma-separated metro topology presets (commuter_2cell, "
             "metro_4cell, ...): sweep multi-cell metros with mobility and "
             "mid-stream handover; composes with --devices, --shards "
             "(UE blocks), --carriers and --schemes",
    )
    sweep.add_argument(
        "--devices", type=int, default=None,
        help="devices per cell for --cell (default 100; workloads cycle "
             "over --apps)",
    )
    sweep.add_argument(
        "--scenario", default=None,
        help="comma-separated scenario presets for --cell (heterogeneous "
             "cohort populations with diurnal shaping; e.g. uniform, "
             "office_day, evening_peak, mixed_policy); replaces --apps",
    )
    sweep.add_argument(
        "--dormancy", default=None,
        help="comma-separated base-station dormancy policies for --cell "
             "(accept_all, reject_all, rate_limited, load_aware; "
             "default accept_all)",
    )
    sweep.add_argument(
        "--shards", type=int, default=None,
        help="partition each --cell run into this many device shards, "
             "executed on worker processes (implies a process pool of "
             "--jobs workers, or one worker per shard when --jobs is 1)",
    )
    sweep.add_argument(
        "--users", type=int, nargs="*",
        help="user ids within --population (default: the whole roster)",
    )
    sweep.add_argument(
        "--carriers", default="att_hspa",
        help="comma-separated carrier keys or aliases (default att_hspa)",
    )
    sweep.add_argument(
        "--schemes", default=None,
        help="comma-separated schemes; status_quo is required for "
             "normalisation (default status_quo,makeidle,oracle — without "
             "oracle under --cell, whose streamed traces cannot feed "
             "offline policies)",
    )
    sweep.add_argument("--duration", type=float, default=1800.0,
                       help="seconds per application trace / per user-day")
    sweep.add_argument("--seeds", type=int, nargs="*",
                       help="repeat the grid once per seed")
    sweep.add_argument("--window-size", type=int, default=100)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist results to a content-addressed disk cache under DIR, "
             "so repeated identical sweeps (even across processes) load "
             "instead of re-simulating; default DIR is $REPRO_RRC_CACHE_DIR "
             "or ~/.cache/repro-rrc when the env var enables the tier",
    )
    sweep.add_argument(
        "--no-disk-cache", action="store_true",
        help="ignore $REPRO_RRC_CACHE_DIR and run without the persistent "
             "result cache",
    )
    sweep.add_argument("--csv", help="write the record table as CSV")
    sweep.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit records as JSON to PATH (or stdout with no PATH)",
    )
    sweep.add_argument("--save-plan", help="also write the plan as a JSON file")

    apps = sub.add_parser("apps", help="per-application savings (Figure 9)")
    apps.add_argument(
        "--carrier", default="att_hspa", choices=sorted(CARRIER_PROFILES)
    )
    apps.add_argument("--duration", type=float, default=1800.0)
    apps.add_argument("--seed", type=int, default=0)
    apps.add_argument("--csv", help="also write the table as CSV")

    carriers_cmp = sub.add_parser(
        "compare-carriers",
        help="cross-carrier comparison (Figures 17/18, Table 3)",
    )
    carriers_cmp.add_argument("--population", default="verizon_3g")
    carriers_cmp.add_argument("--hours", type=float, default=1.0)
    carriers_cmp.add_argument("--users", type=int, nargs="*", default=[1, 2])
    carriers_cmp.add_argument("--seed", type=int, default=0)
    carriers_cmp.add_argument("--csv", help="also write the table as CSV")

    validate = sub.add_parser(
        "validate", help="energy-estimator validation (Figure 8)"
    )
    validate.add_argument(
        "--carrier", default="verizon_lte", choices=sorted(CARRIER_PROFILES)
    )
    validate.add_argument("--seed", type=int, default=0)

    trace_info = sub.add_parser("trace-info", help="summarise a capture file")
    trace_info.add_argument("path")
    trace_info.add_argument(
        "--format", choices=("pcap", "tcpdump"), default="pcap"
    )

    return parser


# ----------------------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------------------

def _cmd_carriers() -> int:
    rows = [
        [
            profile.key,
            profile.name,
            profile.technology.name,
            f"{profile.power_send_mw:.0f}",
            f"{profile.power_recv_mw:.0f}",
            f"{profile.power_active_mw:.0f}",
            f"{profile.power_high_idle_mw:.0f}",
            f"{profile.t1:.1f}",
            f"{profile.t2:.1f}",
        ]
        for profile in (CARRIER_PROFILES[key] for key in CARRIER_ORDER)
    ]
    print(
        format_table(
            ["key", "name", "tech", "Psnd", "Prcv", "Pt1", "Pt2", "t1", "t2"], rows
        )
    )
    return 0


def _simulate_trace_spec(args: argparse.Namespace) -> TraceSpec:
    if args.pcap:
        return TraceSpec(kind="pcap", path=args.pcap)
    if args.tcpdump:
        return TraceSpec(kind="tcpdump", path=args.tcpdump)
    if args.user is not None:
        return TraceSpec(kind="user", name=args.population, user_id=args.user,
                         duration_s=args.duration, seed=args.seed)
    return TraceSpec(kind="application", name=args.app or "email",
                     duration_s=args.duration, seed=args.seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    profile = get_profile(args.carrier)
    trace = _simulate_trace_spec(args).build()
    results = run_schemes(trace, profile, window_size=args.window_size)
    baseline = results.pop("status_quo")
    table = savings_table(results, baseline)
    rows = []
    records = []
    for scheme in KNOWN_SCHEMES:
        if scheme not in table:
            continue
        report = table[scheme]
        result = results[scheme]
        rows.append(
            [
                scheme,
                f"{report.saved_percent:.1f}",
                f"{result.total_energy_j:.1f}",
                f"{result.switches_normalized(baseline):.2f}",
                f"{result.mean_delay:.2f}",
            ]
        )
        records.append(
            {
                "scheme": scheme,
                "saved_percent": report.saved_percent,
                "energy_j": result.total_energy_j,
                "switches_normalized": result.switches_normalized(baseline),
                "mean_delay_s": result.mean_delay,
            }
        )
    print(f"carrier: {profile.name}    trace: {trace.name} ({len(trace)} packets)")
    print(f"status quo energy: {baseline.total_energy_j:.1f} J, "
          f"{baseline.switch_count} switches")
    print(
        format_table(
            ["scheme", "saved %", "energy (J)", "switches/SQ", "mean delay (s)"], rows
        )
    )
    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {args.csv}")
    return 0


#: Friendly scheme-name aliases accepted by ``sweep --schemes``.
_SCHEME_ALIASES = {
    "learning": "makeidle+makeactive_learn",
    "makeactive": "makeidle+makeactive_learn",
    "makeactive_learn": "makeidle+makeactive_learn",
    "makeactive_fixed": "makeidle+makeactive_fixed",
    "fixed": "fixed_4.5s",
    "hist": "makeidle_hist",
    "rate": "makeidle_rate",
}


def _split_csv_arg(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _build_sweep_plan(args: argparse.Namespace):
    """Translate the ``sweep`` arguments into an ExperimentPlan."""
    from .api import cell as cell_spec, load_plan, plan as new_plan

    if args.plan:
        return load_plan(args.plan)
    p = new_plan()
    if args.metro is not None:
        if args.cell or args.scenario is not None or args.dormancy is not None:
            raise ValueError(
                "--metro is its own sweep kind: drop --cell/--scenario, and "
                "configure station policies per cell in the metro topology "
                "instead of --dormancy"
            )
        if args.apps or args.population:
            raise ValueError(
                "--metro topologies define their own workload mixes; drop "
                "--apps/--population"
            )
        names = _split_csv_arg(args.metro)
        if not names:
            raise ValueError("--metro requires at least one preset name")
        devices = args.devices if args.devices is not None else 1000
        # plan.metros resolves preset names itself (and raises the
        # preset-listing error for unknown ones).
        p = p.metros(*names, devices=devices, duration=args.duration)
        if args.shards is not None:
            p = p.shards(args.shards)
    elif not args.cell and (args.devices is not None
                            or args.dormancy is not None
                            or args.shards is not None
                            or args.scenario is not None):
        raise ValueError(
            "--devices, --dormancy, --shards and --scenario configure a "
            "cell or metro sweep; add --cell or --metro (they would "
            "otherwise be silently ignored)"
        )
    if args.metro is not None:
        pass  # workload declared above; fall through to the shared axes
    elif args.cell:
        if args.population:
            raise ValueError(
                "--cell sweeps synthetic application mixes (--apps); "
                "--population applies to single-UE sweeps only"
            )
        devices = args.devices if args.devices is not None else 100
        if args.scenario is not None:
            if args.apps:
                raise ValueError(
                    "--scenario defines its own application mixes per "
                    "cohort; drop --apps (or drop --scenario)"
                )
            names = _split_csv_arg(args.scenario)
            if not names:
                raise ValueError("--scenario requires at least one preset name")
            # plan.scenarios resolves preset names itself (and raises the
            # preset-listing error for unknown ones).
            p = p.scenarios(*names, devices=devices, duration=args.duration)
        else:
            apps = (_split_csv_arg(args.apps) if args.apps
                    else ["im", "email", "news"])
            p = p.cells(
                cell_spec(devices=devices, apps=tuple(apps),
                          duration=args.duration)
            )
        p = p.dormancy(*_split_csv_arg(args.dormancy or "accept_all"))
        if args.shards is not None:
            p = p.shards(args.shards)
    elif args.population:
        p = p.users(args.population, args.users or None,
                    hours_per_day=args.duration / 3600.0)
    else:
        apps = _split_csv_arg(args.apps) if args.apps else ["email", "im"]
        p = p.apps(*apps, duration=args.duration)
    p = p.carriers(*_split_csv_arg(args.carriers))
    if args.schemes is None:
        # The offline oracle holds each device's whole trace in memory
        # (RadioPolicy.requires_trace), so the cell and metro defaults
        # leave it out; name it in --schemes to run it.
        default_schemes = (
            "status_quo,makeidle" if args.cell or args.metro is not None
            else "status_quo,makeidle,oracle"
        )
    else:
        default_schemes = args.schemes
    schemes = [_SCHEME_ALIASES.get(s, s) for s in _split_csv_arg(default_schemes)]
    if "status_quo" not in schemes:
        schemes.insert(0, "status_quo")  # the normalisation baseline is implied
    p = p.policies(*schemes).window_size(args.window_size)
    if args.seeds:
        p = p.repeat(seeds=args.seeds)
    return p


def _sweep_cache(args: argparse.Namespace):
    """The sweep's :class:`ResultCache`, with the disk tier when enabled.

    ``--cache-dir DIR`` enables it explicitly; ``$REPRO_RRC_CACHE_DIR``
    enables it implicitly (so CI and cron jobs opt whole pipelines in
    without touching every invocation); ``--no-disk-cache`` wins over both.
    """
    import os as _os

    from .api.cache import CACHE_DIR_ENV, DiskCacheTier, ResultCache

    if args.no_disk_cache:
        return ResultCache()
    directory = args.cache_dir or _os.environ.get(CACHE_DIR_ENV)
    if directory is None:
        return ResultCache()
    return ResultCache(disk=DiskCacheTier(directory))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import ProcessPoolRunner, SerialRunner, save_plan

    if args.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {args.jobs}")
    sweep_plan = _build_sweep_plan(args)
    if args.save_plan:
        save_plan(sweep_plan, args.save_plan)
        print(f"wrote plan to {args.save_plan}", file=sys.stderr)
    # Sharded cells need the pool even at --jobs 1: cross-process
    # sharding is the point of --shards, so default to one worker per
    # shard unless --jobs asks for more.
    max_shards = max(sweep_plan.shard_counts, default=1)
    jobs = args.jobs if args.jobs > 1 else max_shards
    cache = _sweep_cache(args)
    runner = (ProcessPoolRunner(jobs=jobs, cache=cache) if jobs > 1
              else SerialRunner(cache=cache))
    print(sweep_plan.describe(), file=sys.stderr)
    runs = runner.run(sweep_plan)
    records = runs.to_records()

    if args.json is not None:
        text = runs.to_json(None if args.json == "-" else args.json)
        if args.json == "-":
            print(text)
        else:
            print(f"wrote {args.json}", file=sys.stderr)
    elif records and "n_cells" in records[0]:
        rows = [
            [
                r["trace"],
                r["carrier"],
                r["scheme"],
                str(r.get("shards", 1)),
                str(r["devices"]),
                str(r["handovers"]),
                f"{r['energy_j']:.1f}",
                f"{r.get('saved_percent', 0.0):.1f}",
                f"{100.0 * r['denial_rate']:.1f}",
            ]
            for r in records
        ]
        print(
            format_table(
                ["metro", "carrier", "scheme", "shards", "devices",
                 "handovers", "energy (J)", "saved %", "denied %"],
                rows,
            )
        )
        cell_rows = [
            [
                r["trace"],
                r["carrier"],
                r["scheme"],
                name,
                c["dormancy"],
                str(c["visits"]),
                str(c["departures"]),
                f"{c['energy_j']:.1f}",
                # "-" = no baseline to normalise against, distinct from a
                # computed 0.0% saving.
                (f"{c['saved_percent']:.1f}" if "saved_percent" in c
                 else "-"),
                f"{100.0 * c['denial_rate']:.1f}",
                (f"{100.0 * c['utilization']:.1f}" if "utilization" in c
                 else "-"),
            ]
            for r in records
            for name, c in r.get("cells", {}).items()
        ]
        if cell_rows:
            print()
            print(
                format_table(
                    ["metro", "carrier", "scheme", "cell", "dormancy",
                     "visits", "handovers out", "energy (J)", "saved %",
                     "denied %", "util %"],
                    cell_rows,
                )
            )
    elif records and "dormancy" in records[0]:
        rows = [
            [
                r["trace"],
                r["carrier"],
                r["scheme"],
                r["dormancy"],
                str(r.get("shards", 1)),
                f"{r['energy_j']:.1f}",
                f"{r.get('saved_percent', 0.0):.1f}",
                f"{100.0 * r['denial_rate']:.1f}",
                str(r["peak_switches_per_minute"]),
                str(r["peak_active_devices"]),
            ]
            for r in records
        ]
        print(
            format_table(
                ["cell", "carrier", "scheme", "dormancy", "shards",
                 "energy (J)", "saved %", "denied %", "peak sw/min",
                 "peak active"],
                rows,
            )
        )
        cohort_rows = [
            [
                r["trace"],
                r["carrier"],
                r["scheme"],
                r["dormancy"],
                str(r.get("shards", 1)),
                str(r["seed"]),
                name,
                str(c["devices"]),
                f"{c['energy_j']:.1f}",
                # "-" = no baseline to normalise against, distinct from a
                # computed 0.0% saving.
                (f"{c['saved_percent']:.1f}" if "saved_percent" in c
                 else "-"),
                f"{100.0 * c['denial_rate']:.1f}",
                str(c["switches"]),
            ]
            for r in records
            for name, c in r.get("cohorts", {}).items()
        ]
        if cohort_rows:
            print()
            print(
                format_table(
                    ["cell", "carrier", "scheme", "dormancy", "shards",
                     "seed", "cohort", "devices", "energy (J)", "saved %",
                     "denied %", "switches"],
                    cohort_rows,
                )
            )
    else:
        rows = [
            [
                r["trace"],
                r["carrier"],
                r["scheme"],
                str(r["seed"]),
                f"{r['energy_j']:.1f}",
                f"{r.get('saved_percent', 0.0):.1f}",
                f"{r.get('switches_normalized', 1.0):.2f}",
                f"{r['mean_delay_s']:.2f}",
            ]
            for r in records
        ]
        print(
            format_table(
                ["trace", "carrier", "scheme", "seed", "energy (J)",
                 "saved %", "switches/SQ", "mean delay (s)"],
                rows,
            )
        )
    stats = runs.cache_stats
    if stats is not None:
        disk = (f"  disk hits: {stats.disk_hits}"
                if getattr(stats, "disk_hits", 0) else "")
        print(
            f"runs: {len(runs)}  simulated: {stats.misses}  "
            f"cache hits: {stats.hits}{disk}",
            file=sys.stderr,
        )
    if args.csv:
        runs.to_csv(args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    profile = get_profile(args.carrier)
    table = application_savings(
        profile, duration=args.duration, seed=args.seed
    )
    schemes = sorted({scheme for per_app in table.values() for scheme in per_app})
    rows = []
    records = []
    for app, per_app in table.items():
        row = [app] + [
            f"{per_app[s].saved_percent:.1f}" if s in per_app else "-" for s in schemes
        ]
        rows.append(row)
        record = {"app": app}
        record.update(
            {s: per_app[s].saved_percent for s in schemes if s in per_app}
        )
        records.append(record)
    print(format_table(["app"] + schemes, rows))
    if args.csv:
        write_csv(records, args.csv, fieldnames=["app"] + schemes)
        print(f"wrote {args.csv}")
    return 0


def _cmd_compare_carriers(args: argparse.Namespace) -> int:
    comparison = carrier_comparison(
        population=args.population,
        hours_per_day=args.hours,
        seed=args.seed,
        users=args.users or None,
    )
    rows = []
    records = []
    for carrier_key, row in comparison.items():
        makeidle = row.saved_percent.get("makeidle", 0.0)
        combined = row.saved_percent.get("makeidle+makeactive_learn", 0.0)
        switches = row.switches_normalized.get("makeidle", 0.0)
        combined_switches = row.switches_normalized.get(
            "makeidle+makeactive_learn", 0.0
        )
        delay = row.median_delay_s.get("makeidle+makeactive_learn", 0.0)
        rows.append(
            [
                carrier_key,
                f"{makeidle:.1f}",
                f"{combined:.1f}",
                f"{switches:.2f}",
                f"{combined_switches:.2f}",
                f"{delay:.2f}",
            ]
        )
        records.append(
            {
                "carrier": carrier_key,
                "makeidle_saved_percent": makeidle,
                "combined_saved_percent": combined,
                "makeidle_switches_normalized": switches,
                "combined_switches_normalized": combined_switches,
                "combined_median_delay_s": delay,
            }
        )
    print(
        format_table(
            [
                "carrier",
                "MakeIdle %",
                "MI+MA %",
                "MI switches/SQ",
                "MI+MA switches/SQ",
                "MA median delay (s)",
            ],
            rows,
        )
    )
    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    profile = get_profile(args.carrier)
    outcome = run_validation(profile, seed=args.seed)
    print(f"carrier: {profile.name}")
    print(f"mean signed error:   {outcome.mean_error * 100:+.2f}%")
    print(f"mean absolute error: {outcome.mean_absolute_error * 100:.2f}%")
    print(f"max absolute error:  {outcome.max_absolute_error * 100:.2f}%")
    within = "yes" if outcome.max_absolute_error <= 0.10 else "no"
    print(f"within the paper's 10% bound: {within}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    trace = TraceSpec(kind=args.format, path=args.path).build()
    summary = summarize_trace(trace)
    print(f"trace: {trace.name}")
    print(f"packets:        {summary.packet_count}")
    print(f"duration:       {summary.duration:.1f} s")
    print(f"total bytes:    {summary.total_bytes}")
    print(f"mean throughput:{summary.mean_throughput_bps / 1000.0:10.1f} kbit/s")
    print(f"median IAT:     {summary.median_inter_arrival:.3f} s")
    print(f"95th pct IAT:   {summary.p95_inter_arrival:.3f} s")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``repro-rrc`` console script.

    Bad input to any command — an unknown user, workload, carrier or
    scheme, a duration that is not positive and finite, an unreadable
    capture or plan file, a plan with an empty axis — prints one
    ``error: ...`` line on stderr and exits 2 instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "carriers":
            return _cmd_carriers()
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "apps":
            return _cmd_apps(args)
        if args.command == "compare-carriers":
            return _cmd_compare_carriers(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_trace_info(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
