"""Command-line interface: run scenarios and regenerate paper figures.

Usage (installed package):

    python -m repro run --robots 50 --anchors 25 --period 100 --duration 600
    python -m repro run --mode rf_only --period 50
    python -m repro figure fig9 --duration 600 --jobs 4 --cache
    python -m repro sweep --num-seeds 8 --jobs 4 --duration 600
    python -m repro resilience --duration 600 --jobs 4
    python -m repro ledger check --jobs 2
    python -m repro report --cache-dir .repro_cache
    python -m repro calibrate
    python -m repro lint src tests --json
    python -m repro serve --port 7707 --shards 4

Every command prints plain-text tables; nothing is plotted, so the tool
works in any terminal and its output can be diffed in CI.  ``sweep`` and
``figure`` accept ``--jobs N`` to fan independent scenario runs out over
worker processes and ``--cache`` to memoize finished runs on disk under
``.repro_cache/`` (wipe with ``--clear-cache``).  All sweep-style
commands accept ``--telemetry out.jsonl`` to run with rich telemetry and
dump per-job metric snapshots; ``repro report`` renders the
per-subsystem summary of a cached sweep or such a JSONL dump.
``repro lint`` statically enforces the determinism contract
(REP001-REP007, see DESIGN.md) and exits nonzero on findings so it can
gate CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import (
    CoCoAConfig,
    LocalizationFilter,
    LocalizationMode,
    MulticastProtocol,
)
from repro.core.team import CoCoATeam
from repro.experiments.metrics import summarize_errors
from repro.orchestrator.cache import DEFAULT_CACHE_DIR, ResultCache


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """Scenario flags shared by ``run`` and ``sweep``."""
    parser.add_argument("--mode", choices=[m.value for m in LocalizationMode],
                        default="cocoa", help="localization strategy")
    parser.add_argument("--robots", type=int, default=50, help="team size")
    parser.add_argument("--anchors", type=int, default=25,
                        help="robots with localization devices")
    parser.add_argument("--period", type=float, default=100.0,
                        help="beacon period T (s)")
    parser.add_argument("--window", type=float, default=3.0,
                        help="transmit window t (s)")
    parser.add_argument("--beacons", type=int, default=3,
                        help="beacons per window k")
    parser.add_argument("--vmax", type=float, default=2.0,
                        help="maximum robot speed (m/s)")
    parser.add_argument("--duration", type=float, default=1800.0,
                        help="simulated seconds")
    parser.add_argument("--no-coordination", action="store_true",
                        help="keep radios idle instead of sleeping")
    parser.add_argument("--multicast",
                        choices=[m.value for m in MulticastProtocol],
                        default="mrmm", help="SYNC multicast protocol")
    parser.add_argument("--filter",
                        choices=[f.value for f in LocalizationFilter],
                        default="grid", help="Bayesian representation")
    parser.add_argument("--area", type=float, default=200.0,
                        help="square deployment area side (m)")


def _positive_int(text: str) -> int:
    """argparse type for flags that require an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_orchestration_args(parser: argparse.ArgumentParser) -> None:
    """Parallelism and cache flags shared by ``figure`` and ``sweep``."""
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent runs")
    parser.add_argument("--cache", action="store_true",
                        help="memoize finished runs on disk")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache directory (implies --cache)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="wipe the result cache before running")
    parser.add_argument("--telemetry", metavar="PATH", default=None,
                        help="run with rich telemetry and write per-job "
                             "snapshots to this JSONL file")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "CoCoA (ICDCS 2006) reproduction: coordinated cooperative "
            "localization for mobile multi-robot ad hoc networks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print a summary")
    _add_scenario_args(run)
    run.add_argument("--seed", type=int, default=1, help="master seed")

    figure = sub.add_parser(
        "figure", help="regenerate one of the paper's evaluation figures"
    )
    figure.add_argument(
        "name",
        choices=[
            "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "mrmm",
        ],
        help="which figure to regenerate",
    )
    figure.add_argument("--duration", type=float, default=600.0,
                        help="simulated seconds per run")
    figure.add_argument("--seed", type=int, default=1, help="master seed")
    _add_orchestration_args(figure)

    sweep = sub.add_parser(
        "sweep",
        help="re-run one scenario under many master seeds, in parallel",
    )
    _add_scenario_args(sweep)
    seeds = sweep.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", default=None,
                       help="comma-separated master seeds (e.g. 1,2,3)")
    seeds.add_argument("--num-seeds", type=int, default=None,
                       help="sweep seeds 1..N")
    _add_orchestration_args(sweep)

    resilience = sub.add_parser(
        "resilience",
        help="error vs fault intensity, with and without defenses",
    )
    _add_scenario_args(resilience)
    resilience.add_argument("--seed", type=int, default=1,
                            help="master seed")
    resilience.add_argument("--intensities", default="0,0.5,1",
                            help="comma-separated fault intensities")
    _add_orchestration_args(resilience)

    report = sub.add_parser(
        "report",
        help="render the per-subsystem telemetry summary of past runs",
    )
    source = report.add_mutually_exclusive_group()
    source.add_argument("--from", dest="from_path", metavar="PATH",
                        default=None,
                        help="read job snapshots from a --telemetry JSONL "
                             "file instead of the result cache")
    source.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache to summarize")
    report.add_argument("--prometheus", action="store_true",
                        help="emit Prometheus exposition text instead of "
                             "the human-readable report")

    lint = sub.add_parser(
        "lint",
        help="statically enforce the determinism (REP) and async-safety "
             "(ASY) contracts",
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON instead of text")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated codes or families to run "
                           "(e.g. REP001,ASY or ASY001,ASY002)")
    lint.add_argument("--ignore", default=None, metavar="CODES",
                      help="comma-separated codes or families to skip")
    lint.add_argument("--async", dest="async_only", action="store_true",
                      help="run only the async-safety family "
                           "(shorthand for --select ASY)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule code with its summary and exit")
    lint.add_argument("--sanitize", action="store_true",
                      help="run the asyncio test suites under debug mode "
                           "with the slow-callback threshold and fail on "
                           "blocked-loop / lost-task diagnostics")
    lint.add_argument("--sanitize-out", default=None, metavar="PATH",
                      help="write the sanitizer's JSON findings artifact "
                           "here (same schema as --json)")
    lint.add_argument("--slow-callback-ms", type=float, default=None,
                      metavar="MS",
                      help="sanitizer blocked-loop threshold in "
                           "milliseconds (default 250)")

    serve = sub.add_parser(
        "serve",
        help="run the streaming localization service (NDJSON over TCP, "
             "plus GET /metrics on the same port)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7707,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--shards", type=_positive_int, default=4,
                       help="worker event loops (tenants hash across them)")
    serve.add_argument("--queue-limit", type=_positive_int, default=256,
                       help="bounded request queue depth per shard")
    serve.add_argument("--tenant-inflight", type=_positive_int, default=32,
                       help="max queued requests per tenant before shedding")
    serve.add_argument("--session-ttl", type=float, default=300.0,
                       help="seconds of idleness before a tenant session "
                            "is evicted (0 disables)")
    serve.add_argument("--warm-cache", metavar="DIR", default=None,
                       help="persist session checkpoints in this "
                            "result-cache directory so sessions survive "
                            "a restart")
    serve.add_argument("--no-checkpointing", action="store_true",
                       help="disable session checkpointing (crashes and "
                            "evictions lose sessions)")
    serve.add_argument("--no-supervise", action="store_true",
                       help="disable shard-worker supervision (a dead "
                            "worker stays dead)")
    serve.add_argument("--smoke", action="store_true",
                       help="start, run a 2-tenant round trip, a "
                            "hello too small to calibrate (must get "
                            "bad_request) and /metrics, /healthz and "
                            "/readyz scrapes against itself, then exit")
    serve.add_argument("--trace-mode",
                       choices=["off", "sampled", "always"],
                       default="sampled",
                       help="request tracing: off, sampled (head-sample "
                            "1-in-N plus slow requests) or always")
    serve.add_argument("--trace-sample-every", type=_positive_int,
                       default=128, metavar="N",
                       help="head-sample one request in N (sampled mode)")
    serve.add_argument("--trace-slow-ms", type=float, default=25.0,
                       help="tail-sample requests slower than this "
                            "(sampled mode)")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write recorded spans as trace JSONL on "
                            "shutdown (feed to 'repro trace')")
    serve.add_argument("--trace-perfetto", metavar="PATH", default=None,
                       help="write recorded spans as Perfetto/Chrome "
                            "trace_event JSON on shutdown")
    serve.add_argument("--ops-out", metavar="PATH", default=None,
                       help="write the structured ops log (shard "
                            "restarts, evictions, rehydrations) as "
                            "JSONL on shutdown")

    chaos = sub.add_parser(
        "chaos",
        help="record a batch scenario, replay it through a live server "
             "while a seeded fault schedule kills shards, severs "
             "connections and evicts sessions; fail unless every fix "
             "still matches the batch run byte-for-byte",
    )
    chaos.add_argument("--seed", type=int, default=1,
                       help="scenario + schedule seed")
    chaos.add_argument("--seeds", default=None, metavar="LIST",
                       help="comma-separated seeds overriding --seed "
                            "(e.g. 1,2,3)")
    chaos.add_argument("--robots", type=_positive_int, default=10,
                       help="scenario robots")
    chaos.add_argument("--anchors", type=_positive_int, default=5,
                       help="scenario anchors")
    chaos.add_argument("--area", type=float, default=80.0,
                       help="deployment square side (m)")
    chaos.add_argument("--duration", type=float, default=60.0,
                       help="scenario duration (s)")
    chaos.add_argument("--samples", type=_positive_int, default=4000,
                       help="calibration samples (paper fidelity: 120000)")
    chaos.add_argument("--kills", type=int, default=1,
                       help="kill_shard faults per run")
    chaos.add_argument("--severs", type=int, default=2,
                       help="connection-sever faults per run")
    chaos.add_argument("--evicts", type=int, default=1,
                       help="TTL-eviction faults per run")
    chaos.add_argument("--delays", type=int, default=1,
                       help="clock-delay faults per run")
    chaos.add_argument("--log", metavar="PATH", default=None,
                       help="write the chaos journal (JSONL) here; with "
                            "multiple seeds, the seed is appended")
    chaos.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the run's recorded spans as trace "
                            "JSONL; with multiple seeds, the seed is "
                            "appended")

    trace = sub.add_parser(
        "trace",
        help="inspect a recorded trace JSONL (from serve --trace-out, "
             "bench_serve.py or repro chaos --trace-out)",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-hop latency attribution table (queue wait, shard "
             "service, estimator ingest, checkpoint)",
    )
    summarize.add_argument("path", help="trace JSONL file")
    slowest = trace_sub.add_parser(
        "slowest", help="the N slowest requests with per-hop breakdown"
    )
    slowest.add_argument("path", help="trace JSONL file")
    slowest.add_argument("-n", type=_positive_int, default=10,
                         help="how many traces to show")
    export = trace_sub.add_parser(
        "export", help="convert trace JSONL to Perfetto/Chrome "
                       "trace_event JSON (load in ui.perfetto.dev)"
    )
    export.add_argument("path", help="trace JSONL file")
    export.add_argument("--out", required=True,
                        help="Perfetto JSON output path")

    ledger = sub.add_parser(
        "ledger",
        help="re-measure every number EXPERIMENTS.md quotes against the "
             "committed science ledger",
    )
    ledger.add_argument(
        "action", choices=["check", "update"],
        help="check: re-simulate and fail on any value outside its band "
             "or any false claim; update: rewrite science_ledger.json and "
             "EXPERIMENTS.md's generated blocks",
    )
    ledger.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent runs")

    calibrate = sub.add_parser(
        "calibrate", help="run the offline calibration and print the table"
    )
    calibrate.add_argument("--samples", type=int, default=120_000,
                           help="measurement campaign size")
    calibrate.add_argument("--seed", type=int, default=1, help="master seed")

    return parser


def _config_from_args(args: argparse.Namespace) -> CoCoAConfig:
    from repro.util.geometry import Rect

    mode = LocalizationMode(args.mode)
    anchors = args.anchors
    coordination = not args.no_coordination
    if mode is LocalizationMode.ODOMETRY_ONLY:
        anchors = 0
        coordination = False
    return CoCoAConfig(
        area=Rect.square(args.area),
        n_robots=args.robots,
        n_anchors=anchors,
        beacon_period_s=args.period,
        transmit_window_s=args.window,
        beacons_per_window=args.beacons,
        v_max=args.vmax,
        duration_s=args.duration,
        master_seed=getattr(args, "seed", 1),
        localization_mode=mode,
        coordination=coordination,
        multicast=MulticastProtocol(args.multicast),
        localization_filter=LocalizationFilter(args.filter),
    )


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """Build (and optionally wipe) the result cache the flags describe."""
    wants_cache = (
        args.cache
        or args.clear_cache
        or args.cache_dir != DEFAULT_CACHE_DIR
    )
    if not wants_cache:
        return None
    cache = ResultCache(root=args.cache_dir)
    if args.clear_cache:
        cache.clear()
    return cache


def cmd_run(args: argparse.Namespace, out) -> int:
    config = _config_from_args(args)
    print("scenario: %d robots (%d anchors), %s, T=%.0fs t=%.0fs k=%d, "
          "v_max=%.1f, %.0fs, seed=%d"
          % (config.n_robots, config.n_anchors,
             config.localization_mode.value, config.beacon_period_s,
             config.transmit_window_s, config.beacons_per_window,
             config.v_max, config.duration_s, config.master_seed),
          file=out)
    result = CoCoATeam(config).run()
    skip = min(config.beacon_period_s * 1.1 + 5.0, config.duration_s / 2)
    summary = summarize_errors(result.errors, skip_first_s=skip)
    print("", file=out)
    print("localization error (after %.0fs warm-up):" % skip, file=out)
    print("  time-average %.2f m   median %.2f m   p90 %.2f m   final %.2f m"
          % (summary.time_average_m, summary.median_m, summary.p90_m,
             summary.final_m), file=out)
    print("  fixes %d   windows without fix %d"
          % (result.fixes, result.windows_without_fix), file=out)
    print("", file=out)
    print("energy:", file=out)
    print("  team total %.1f J   mean/node %.2f J   max/node %.2f J"
          % (result.total_energy_j(), result.energy.mean_per_node_j,
             result.energy.max_per_node_j), file=out)
    for key, value in result.energy.breakdown.as_dict().items():
        print("  %-14s %10.2f J" % (key, value), file=out)
    print("", file=out)
    stats = result.channel_stats
    print("network: beacons %d, delivered %d, collided %d, syncs %d"
          % (result.beacons_sent, stats.frames_delivered,
             stats.frames_collided, result.syncs_received), file=out)
    return 0


def cmd_figure(args: argparse.Namespace, out) -> int:
    from repro.experiments import figures

    cache = _cache_from_args(args)
    sweep_kw = dict(
        jobs=args.jobs, cache=cache, telemetry_path=args.telemetry
    )
    name = args.name
    duration = args.duration
    seed = args.seed
    if name == "fig1":
        result = figures.run_fig1(master_seed=seed)
        for key, data in sorted(result["bins"].items()):
            print("RSSI %d dBm: %s, mean %.1f m, std %.2f m, skew %.2f"
                  % (key, "gaussian" if data["is_gaussian"] else "histogram",
                     data["mean_m"], data["std_m"],
                     data["sample_skewness"]), file=out)
    elif name == "fig4":
        result = figures.run_fig4(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for v_max, data in result.items():
            print("v_max=%.1f: avg %.1f m, final %.1f m"
                  % (v_max, data["summary"].time_average_m,
                     data["summary"].final_m), file=out)
    elif name == "fig5":
        result = figures.run_fig5(master_seed=seed)
        print("path %.0f m, final odometry error %.1f m"
              % (result["path_length_m"], result["final_error_m"]), file=out)
    elif name == "fig6":
        result = figures.run_fig6(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for period, data in sorted(result.items()):
            print("T=%-4.0f avg %.2f m" % (period,
                  data["summary"].time_average_m), file=out)
    elif name == "fig7":
        result = figures.run_fig7(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for v_max, modes in result.items():
            row = "  ".join("%s %.1f m" % (m, d["summary"].time_average_m)
                            for m, d in modes.items())
            print("v_max=%.1f: %s" % (v_max, row), file=out)
    elif name == "fig8":
        result = figures.run_fig8(duration_s=duration, master_seed=seed)
        for instant, data in result.items():
            print("%-26s t=%.0fs median %.2f m p90 %.2f m"
                  % (instant, data["time_s"], data["median_m"],
                     data["p90_m"]), file=out)
    elif name == "fig9":
        result = figures.run_fig9(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for period, data in sorted(result.items()):
            print("T=%-4.0f avg %.2f m  E %.0f J vs %.0f J (%.1fx)"
                  % (period, data["summary"].time_average_m,
                     data["energy_coordinated_j"],
                     data["energy_uncoordinated_j"],
                     data["energy_ratio"]), file=out)
    elif name == "fig10":
        result = figures.run_fig10(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for count, data in sorted(result.items()):
            print("anchors=%-3d avg %.2f m (no-fix windows %d)"
                  % (count, data["summary"].time_average_m,
                     data["windows_without_fix"]), file=out)
    elif name == "mrmm":
        result = figures.run_mrmm_ablation(
            duration_s=duration, master_seed=seed, **sweep_kw
        )
        for protocol, data in result.items():
            print("%-6s ctrl %d  data_fwd %d  syncs %d  err %.2f m"
                  % (protocol, data["control_packets"],
                     data["data_forwarded"], data["syncs_received"],
                     data["error_summary"].time_average_m), file=out)
    _print_cache_summary(cache, out)
    return 0


def _print_cache_summary(cache: Optional[ResultCache], out) -> None:
    if cache is None:
        return
    stats = cache.stats
    print("cache: %d hit%s, %d miss%s, %d stored (%s)"
          % (stats.hits, "" if stats.hits == 1 else "s",
             stats.misses, "" if stats.misses == 1 else "es",
             stats.stores, cache.root), file=out)


def cmd_sweep(args: argparse.Namespace, out) -> int:
    from repro.analysis.seeds import run_seed_sweep
    from repro.orchestrator.progress import ProgressPrinter

    if args.seeds is not None:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            print("invalid --seeds list %r" % args.seeds, file=out)
            return 2
    elif args.num_seeds is not None:
        seeds = list(range(1, args.num_seeds + 1))
    else:
        seeds = [1, 2, 3, 4, 5]
    if len(seeds) < 2:
        print("need at least 2 seeds, got %d" % len(seeds), file=out)
        return 2

    config = _config_from_args(args)
    cache = _cache_from_args(args)
    print("sweep: %d robots (%d anchors), %s, T=%.0fs, %.0fs, "
          "%d seeds, %d worker%s"
          % (config.n_robots, config.n_anchors,
             config.localization_mode.value, config.beacon_period_s,
             config.duration_s, len(seeds), args.jobs,
             "" if args.jobs == 1 else "s"), file=out)
    result = run_seed_sweep(
        config,
        seeds=seeds,
        jobs=args.jobs,
        cache=cache,
        progress=ProgressPrinter(out=out),
        telemetry_path=args.telemetry,
    )
    print("", file=out)
    print("%-8s %-14s %-14s" % ("seed", "avg error (m)", "energy (J)"),
          file=out)
    for seed, error, energy in zip(
        result.seeds, result.error_time_averages_m, result.energy_totals_j
    ):
        print("%-8d %-14.2f %-14.1f" % (seed, error, energy), file=out)
    print("", file=out)
    print("error  %s   spread %.1f%%"
          % (result.error_ci, 100.0 * result.relative_spread), file=out)
    print("energy %s" % result.energy_ci, file=out)
    _print_cache_summary(cache, out)
    return 0


def cmd_resilience(args: argparse.Namespace, out) -> int:
    from repro.experiments.resilience import run_resilience_sweep
    from repro.orchestrator.progress import ProgressPrinter

    try:
        intensities = [
            float(s) for s in args.intensities.split(",") if s.strip()
        ]
    except ValueError:
        print("invalid --intensities list %r" % args.intensities, file=out)
        return 2
    if not intensities:
        print("need at least one intensity", file=out)
        return 2

    config = _config_from_args(args)
    cache = _cache_from_args(args)
    print("resilience: %d robots (%d anchors), T=%.0fs, %.0fs, "
          "intensities %s"
          % (config.n_robots, config.n_anchors, config.beacon_period_s,
             config.duration_s,
             ", ".join("%g" % i for i in intensities)), file=out)
    result = run_resilience_sweep(
        intensities=intensities,
        base_config=config,
        jobs=args.jobs,
        cache=cache,
        progress=ProgressPrinter(out=out),
        telemetry_path=args.telemetry,
    )
    print("", file=out)
    print("%-10s %-16s %-16s %s"
          % ("intensity", "undefended (m)", "defended (m)",
             "gated/quarantined/resets"), file=out)
    for intensity in intensities:
        cells = result[intensity]
        plain = cells["undefended"]["summary"].time_average_m
        hard = cells["defended"]["summary"].time_average_m
        print("%-10g %-16.2f %-16.2f %d/%d/%d"
              % (intensity, plain, hard,
                 cells["defended"]["beacons_gated"],
                 cells["defended"]["beacons_quarantined"],
                 cells["defended"]["watchdog_resets"]), file=out)
    _print_cache_summary(cache, out)
    return 0


def cmd_report(args: argparse.Namespace, out) -> int:
    from repro.telemetry import (
        TelemetrySnapshot,
        merge_snapshots,
        prometheus_text,
        read_jsonl,
        render_report,
    )

    snapshots = []
    sweep = None
    if args.from_path is not None:
        try:
            records = read_jsonl(args.from_path)
        except OSError as exc:
            print("cannot read %s: %s" % (args.from_path, exc), file=out)
            return 2
        for record in records:
            kind = record.get("record")
            if kind == "job" and isinstance(record.get("metrics"), dict):
                snapshots.append(TelemetrySnapshot.from_mapping(
                    record["metrics"],
                    n_runs=int(record.get("n_runs", 1)),
                ))
            elif kind == "sweep":
                sweep = record  # newest wins; files are append-ordered
        title = "telemetry report — %s" % args.from_path
    else:
        from repro.serve.checkpoint import CHECKPOINT_PREFIX

        # Cached TeamResults carry their base snapshot, so a report over
        # a finished sweep needs no re-simulation.  A --warm-cache
        # server's session checkpoints share the directory; they are
        # skipped unread rather than counted as errors and misses.
        cache = ResultCache(root=args.cache_dir)
        for fingerprint in cache.fingerprints():
            if fingerprint.startswith(CHECKPOINT_PREFIX):
                continue
            result = cache.get(fingerprint)
            snapshot = getattr(result, "telemetry", None)
            if snapshot is not None:
                snapshots.append(snapshot)
        sweeps = cache.sweep_records()
        if sweeps:
            sweep = sweeps[-1]
        title = "telemetry report — cache %s" % cache.root
    if not snapshots:
        print("no telemetry snapshots found (run a sweep with --cache, "
              "or a --telemetry JSONL)", file=out)
        return 1
    merged = merge_snapshots(snapshots)
    if args.prometheus:
        out.write(prometheus_text(merged))
        return 0
    out.write(render_report(merged, sweep=sweep, title=title))
    return 0


def cmd_lint(args: argparse.Namespace, out) -> int:
    from repro.lint import (
        FRAMEWORK_CODES,
        SANITIZER_CODES,
        LintUsageError,
        all_rules,
        format_human,
        format_json,
        lint_paths,
        parse_code_list,
    )

    if args.list_rules:
        for code, cls in all_rules().items():
            print("%s  %-22s %s" % (code, cls.name, cls.summary), file=out)
        for code, summary in sorted(FRAMEWORK_CODES.items()):
            print("%s  %-22s %s" % (code, "(framework)", summary), file=out)
        for code, summary in sorted(SANITIZER_CODES.items()):
            print("%s  %-22s %s" % (code, "(sanitizer)", summary), file=out)
        return 0
    if args.sanitize:
        from repro.lint.sanitize import run_gate

        return run_gate(
            slow_callback_ms=args.slow_callback_ms,
            json_out=args.sanitize_out,
            out=out,
        )
    select = args.select
    if args.async_only:
        if select is not None:
            print("lint: --async conflicts with --select", file=out)
            return 2
        select = "ASY"
    try:
        report = lint_paths(
            args.paths,
            select=parse_code_list(select, "--select"),
            ignore=parse_code_list(args.ignore, "--ignore"),
        )
    except LintUsageError as exc:
        print("lint: %s" % exc, file=out)
        return 2
    if args.json:
        print(format_json(report), file=out)
    else:
        print(format_human(report), file=out)
    return report.exit_code


def cmd_serve(args: argparse.Namespace, out) -> int:
    import asyncio
    import signal

    from repro.serve import LocalizationServer, ServeConfig, ServiceCore

    checkpoint_cache = None
    if args.warm_cache is not None:
        checkpoint_cache = ResultCache(root=args.warm_cache)
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            queue_limit=args.queue_limit,
            tenant_inflight_limit=args.tenant_inflight,
            session_ttl_s=args.session_ttl,
            checkpointing=not args.no_checkpointing,
            supervise=not args.no_supervise,
            trace_mode=args.trace_mode,
            trace_sample_every=args.trace_sample_every,
            trace_slow_ms=args.trace_slow_ms,
        )
    except ValueError as exc:
        print("serve: %s" % exc, file=out)
        return 2

    async def _run() -> int:
        core = ServiceCore(config, checkpoint_cache=checkpoint_cache)
        server = LocalizationServer(core)
        try:
            await server.start()
        except OSError as exc:
            # Unbindable host/port is a config error, same exit code as
            # an invalid ServeConfig: scripts branch on 2, not on text.
            print("serve: cannot bind %s:%d: %s"
                  % (config.host, config.port, exc), file=out)
            return 2
        print("serving on %s:%d (%d shards%s%s); GET /metrics /healthz "
              "/readyz on the same port"
              % (config.host, server.port, config.n_shards,
                 "" if config.checkpointing else ", checkpointing off",
                 ", checkpoints persisted to %s" % args.warm_cache
                 if args.warm_cache else ""), file=out)
        if args.smoke:
            code = await _serve_smoke(server, out)
            await server.drain()
            await _export_traces(core, args, out)
            return code
        # SIGINT and SIGTERM both end serving and trigger the drain,
        # whatever disposition the process inherited (a background job
        # starts with SIGINT ignored).
        serving = asyncio.ensure_future(server.serve_forever())
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, serving.cancel)
        try:
            await serving
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            # Graceful drain: shed new work, flush checkpoints, stop.
            flushed = await server.drain()
            print("drained: %d checkpoint(s) flushed" % flushed, file=out)
            await _export_traces(core, args, out)
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted", file=out)
        return 0


async def _export_traces(core, args, out) -> None:
    """Write the core's recorded spans/ops to the paths the flags named.

    The records are copied on the loop, which is the only writer of the
    tracer and the ops log; only the file writes go to a worker thread.
    """
    import asyncio

    trace_out = getattr(args, "trace_out", None)
    perfetto_out = getattr(args, "trace_perfetto", None)
    ops_out = getattr(args, "ops_out", None)
    if trace_out is None and perfetto_out is None and ops_out is None:
        return
    from repro.telemetry.export import write_jsonl, write_perfetto_json

    records = core.tracer.records()
    if trace_out is not None:
        count = await asyncio.to_thread(write_jsonl, trace_out, records)
        print("trace: %d span%s -> %s"
              % (count, "" if count == 1 else "s", trace_out), file=out)
    if perfetto_out is not None:
        count = await asyncio.to_thread(
            write_perfetto_json, perfetto_out, records
        )
        print("trace: %d event%s -> %s (Perfetto)"
              % (count, "" if count == 1 else "s", perfetto_out),
              file=out)
    if ops_out is not None:
        count = await asyncio.to_thread(
            write_jsonl, ops_out, core.ops.records()
        )
        print("ops: %d event%s -> %s"
              % (count, "" if count == 1 else "s", ops_out), file=out)


def cmd_trace(args: argparse.Namespace, out) -> int:
    from repro.obs import render_slowest, render_summary
    from repro.telemetry.export import read_trace_jsonl, write_perfetto_json

    try:
        records = read_trace_jsonl(args.path)
    except OSError as exc:
        print("trace: cannot read %s: %s" % (args.path, exc), file=out)
        return 2
    except ValueError as exc:
        print("trace: %s is not trace JSONL: %s" % (args.path, exc),
              file=out)
        return 2
    if args.trace_command == "summarize":
        print(render_summary(records), file=out)
        return 0
    if args.trace_command == "slowest":
        print(render_slowest(records, n=args.n), file=out)
        return 0
    if args.trace_command == "export":
        count = write_perfetto_json(args.out, records)
        print("wrote %d event%s to %s"
              % (count, "" if count == 1 else "s", args.out), file=out)
        return 0
    print("trace: unknown subcommand %r" % args.trace_command, file=out)
    return 2


def cmd_chaos(args: argparse.Namespace, out) -> int:
    import asyncio

    from repro.core.config import CoCoAConfig
    from repro.serve import ChaosSchedule, record_replay_log, run_chaos
    from repro.util.geometry import Rect

    if args.seeds:
        try:
            seeds = [int(token) for token in args.seeds.split(",") if token]
        except ValueError:
            print("chaos: --seeds must be comma-separated integers",
                  file=out)
            return 2
    else:
        seeds = [args.seed]
    if min(args.kills, args.severs, args.evicts, args.delays) < 0:
        print("chaos: fault counts must be >= 0", file=out)
        return 2

    failures = 0
    for seed in seeds:
        config = CoCoAConfig(
            area=Rect.square(args.area),
            n_robots=args.robots,
            n_anchors=args.anchors,
            beacon_period_s=20.0,
            duration_s=args.duration,
            master_seed=seed,
            calibration_samples=args.samples,
            localization_mode=LocalizationMode.RF_ONLY,
        )
        log, result = record_replay_log(config)
        if result.fixes == 0:
            print("chaos: seed %d scenario produced no fixes; widen "
                  "--duration or --anchors" % seed, file=out)
            return 2
        schedule = ChaosSchedule.for_log(
            log, seed,
            kills=args.kills, severs=args.severs,
            evicts=args.evicts, delays=args.delays,
        )
        log_path = None
        if args.log is not None:
            log_path = (args.log if len(seeds) == 1
                        else "%s.seed%d" % (args.log, seed))
        trace_path = None
        if args.trace_out is not None:
            trace_path = (args.trace_out if len(seeds) == 1
                          else "%s.seed%d" % (args.trace_out, seed))
        report = asyncio.run(run_chaos(
            log, schedule, chaos_log_path=log_path,
            trace_log_path=trace_path,
        ))
        print(report.summary(), file=out)
        for problem in report.problems[:10]:
            print("  divergence: %s" % problem, file=out)
        if len(report.problems) > 10:
            print("  ... and %d more" % (len(report.problems) - 10),
                  file=out)
        if report.divergent_trace is not None:
            # Forensics: the first diverging fix's end-to-end timeline.
            print("  first divergent fix: trace %s"
                  % report.divergent_trace, file=out)
            for span in report.divergent_spans:
                duration_ms = (
                    (span["end_s"] - span["start_s"]) * 1e3
                    if span.get("end_s") is not None else 0.0
                )
                print("    %-18s %8.3f ms  %s"
                      % (span["name"], duration_ms, span.get("attrs") or ""),
                      file=out)
        if log_path is not None:
            print("  journal: %s" % log_path, file=out)
        if trace_path is not None:
            print("  traces: %s" % trace_path, file=out)
        if not report.ok:
            failures += 1
    if failures:
        print("chaos: %d/%d seeds FAILED the byte-identical recovery "
              "gate" % (failures, len(seeds)), file=out)
        return 1
    print("chaos: all %d seed(s) recovered byte-identically"
          % len(seeds), file=out)
    return 0


async def _serve_smoke(server, out) -> int:
    """Two-tenant round trip, an undersized-hello refusal and the HTTP
    scrapes (every closed lane parked), against ourselves."""
    import asyncio
    import re

    from repro.serve import ServeClient

    port = server.port
    for tenant in ("smoke-a", "smoke-b"):
        async with ServeClient(server.core.config.host, port) as client:
            hello = await client.hello(
                tenant, calibration_samples=2000, area_side_m=80.0
            )
            if not hello.ok:
                print("smoke FAIL: hello %s" % hello.error, file=out)
                return 1
            await client.window_open(tenant, robot=0)
            beacons = [(10.0, 10.0, -60.0), (70.0, 10.0, -72.0),
                       (40.0, 70.0, -68.0), (20.0, 40.0, -64.0)]
            for seq, (x, y, rssi) in enumerate(beacons):
                await client.observe(tenant, 0, seq=seq, x=x, y=y,
                                     rssi_dbm=rssi)
            close = await client.window_close(tenant, robot=0)
            if not (close.ok and close.payload.get("fixed")):
                print("smoke FAIL: no fix for %s (%r)" % (tenant, close),
                      file=out)
                return 1
            print("smoke: %s fix at (%.2f, %.2f)"
                  % (tenant, close.payload["x"], close.payload["y"]),
                  file=out)
    # A hello too small to calibrate is the client's fault, and the
    # connection must keep serving after it.
    async with ServeClient(server.core.config.host, port) as client:
        hello = await client.hello(
            "smoke-small", calibration_samples=1, area_side_m=80.0
        )
        if hello.ok or hello.error != "bad_request":
            print("smoke FAIL: undersized hello got %r" % (hello,), file=out)
            return 1
        pong = await client.ping()
        if not (pong.ok and pong.payload.get("pong")):
            print("smoke FAIL: no ping after undersized hello", file=out)
            return 1
    print("smoke: undersized hello refused (bad_request), connection "
          "still serving", file=out)

    async def _scrape(path: bytes) -> bytes:
        reader, writer = await asyncio.open_connection(
            server.core.config.host, port
        )
        writer.write(b"GET " + path + b" HTTP/1.1\r\nHost: smoke\r\n\r\n")
        await writer.drain()
        body = await reader.read(-1)
        writer.close()
        await writer.wait_closed()
        return body

    scrape = await _scrape(b"/metrics")
    if b"200 OK" not in scrape or b"serve_fixes_total" not in scrape:
        print("smoke FAIL: bad /metrics scrape", file=out)
        return 1
    print("smoke: /metrics scrape ok (%d bytes)" % len(scrape), file=out)
    # Every window has closed, so every lane must have parked its grid.
    grids = re.search(rb"^repro_serve_lane_grids_live (\S+)$", scrape, re.M)
    if grids is None or grids.group(1) != b"0.0":
        print("smoke FAIL: lane grids still live after every window "
              "closed (%r)" % (grids and grids.group(0),), file=out)
        return 1
    print("smoke: no lane holds a grid once its window closed", file=out)
    for path, want in ((b"/healthz", b"ok"), (b"/readyz", b"ready")):
        scrape = await _scrape(path)
        if b"200 OK" not in scrape or want not in scrape:
            print("smoke FAIL: bad %s probe" % path.decode(), file=out)
            return 1
    print("smoke: /healthz and /readyz probes ok", file=out)
    return 0


def cmd_calibrate(args: argparse.Namespace, out) -> int:
    from repro.core.calibration import build_pdf_table
    from repro.net.phy import PathLossModel
    from repro.sim.rng import RandomStreams

    result = build_pdf_table(
        PathLossModel(),
        RandomStreams(args.seed).get("calibration"),
        n_samples=args.samples,
    )
    table = result.table
    print("samples: %d drawn, %d decodable"
          % (result.n_samples_drawn, result.n_samples_decodable), file=out)
    print("bins: %d (%d gaussian, %d histogram), RSSI [%d, %d] dBm"
          % (table.n_bins, result.n_gaussian_bins, result.n_histogram_bins,
             *table.rssi_range), file=out)
    print("%-8s %-10s %-10s %-8s" % ("RSSI", "kind", "mean d", "std"),
          file=out)
    for rssi, dist in table.items():
        kind = "gaussian" if dist.is_gaussian else "histogram"
        print("%-8d %-10s %-10.1f %-8.2f"
              % (rssi, kind, dist.mean_m, dist.std_m), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "figure":
        return cmd_figure(args, out)
    if args.command == "sweep":
        return cmd_sweep(args, out)
    if args.command == "resilience":
        return cmd_resilience(args, out)
    if args.command == "report":
        return cmd_report(args, out)
    if args.command == "lint":
        return cmd_lint(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "chaos":
        return cmd_chaos(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "ledger":
        from repro.experiments import ledger

        action = ledger.check if args.action == "check" else ledger.update
        return action(jobs=args.jobs, out=out)
    if args.command == "calibrate":
        return cmd_calibrate(args, out)
    parser.error("unknown command %r" % args.command)
    return 2


if __name__ == "__main__":
    sys.exit(main())
