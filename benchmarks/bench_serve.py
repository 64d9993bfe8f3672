"""Load benchmark for the streaming localization service.

Drives N concurrent tenants x M robots each through the real TCP path
(NDJSON protocol, shard queues, per-tenant sessions) and reports
sustained fix throughput plus fix latency quantiles:

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --tenants 16 --robots 8

Each robot runs a sequence of beacon windows; a window is one
``window open`` + ``k`` pipelined observations + ``window close``, and
the *fix latency* is the wall time from sending the close (the request
that triggers the Bayes update) to receiving its response.  All tenants
share one calibration identity, so the PDF table is built once and the
measurement isolates the serving path, not calibration.

The workload runs in three variants — checkpointing off (baseline),
checkpointing on (the production default and the headline), and
checkpointing on with request tracing forced to ``always`` — so the
report states both the checkpoint overhead and the tracing overhead as
fixes/sec ratios.  Every variant runs ``REPEATS`` times (``QUICK_REPEATS``
with ``--quick``), interleaved: each repeat rotates which variant goes
first, so slow stretches of a shared machine spread over all three.
Every measured row of the report is the median, interquartile range and
minimum over the repeats; overheads are taken pairwise within a repeat
before they are summarized.  Counts that describe one pass (fixes,
latency samples, checkpoints, spans) sit under ``per_pass`` and come
from the last pass of their variant.  ``--trace-out`` additionally dumps
the last traced pass's spans as trace JSONL for ``repro trace``.

Writes ``BENCH_serve.json`` (see ``--out``) with the scenario shape,
sustained fixes/sec, p50/p90/p99 latency in milliseconds and the
checkpointing/tracing comparisons — the same file the CI
``serve-smoke`` job uploads as an artifact.  The headline numbers are
the checkpointing-on, tracing-off variant (what a real deployment
serves).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.serve.client import ServeClient
from repro.serve.server import LocalizationServer, ServeConfig, ServiceCore

AREA_SIDE_M = 120.0
RSSI_RANGE_DBM = (-82.0, -55.0)
#: Interleaved passes per variant: full run, and the ``--quick`` CI shape.
REPEATS = 5
QUICK_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=12,
                        help="concurrent tenants (default 12)")
    parser.add_argument("--robots", type=int, default=8,
                        help="robots per tenant (default 8)")
    parser.add_argument("--windows", type=int, default=15,
                        help="beacon windows per robot (default 15)")
    parser.add_argument("--beacons", type=int, default=4,
                        help="observations per window (default 4)")
    parser.add_argument("--shards", type=int, default=4,
                        help="service shards (default 4)")
    parser.add_argument("--calibration-samples", type=int, default=20_000,
                        help="calibration table size (shared by tenants)")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed for the synthetic traffic")
    parser.add_argument("--quick", action="store_true",
                        help="CI shape: 8 tenants x 4 robots x 5 windows, "
                             "%d repeats instead of %d"
                             % (QUICK_REPEATS, REPEATS))
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="report path (default BENCH_serve.json)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the traced pass's spans as trace "
                             "JSONL here (feed to 'repro trace')")
    args = parser.parse_args(argv)
    if args.quick:
        args.tenants = min(args.tenants, 8)
        args.robots = min(args.robots, 4)
        args.windows = min(args.windows, 5)
        args.calibration_samples = min(args.calibration_samples, 4000)
    return args


async def drive_tenant(
    host: str,
    port: int,
    tenant: str,
    args: argparse.Namespace,
    seed: int,
    latencies_ms: List[float],
) -> Dict[str, int]:
    """One tenant's full workload; appends fix latencies in place."""
    rng = np.random.default_rng(seed)
    fixes = 0
    closes = 0
    async with ServeClient(host, port) as client:
        hello = await client.hello(
            tenant,
            calibration_samples=args.calibration_samples,
            area_side_m=AREA_SIDE_M,
        )
        if not hello.ok:
            raise RuntimeError("hello failed for %s: %s"
                               % (tenant, hello.error))
        for window in range(args.windows):
            for robot in range(args.robots):
                await client.window_open(tenant, robot, t=float(window))
                pending = []
                for seq in range(args.beacons):
                    x = float(rng.uniform(0.0, AREA_SIDE_M))
                    y = float(rng.uniform(0.0, AREA_SIDE_M))
                    rssi = float(rng.uniform(*RSSI_RANGE_DBM))
                    pending.append(await client.send(
                        _observe(tenant, robot, seq, x, y, rssi,
                                 t=float(window))
                    ))
                for future in pending:
                    response = await future
                    if not response.ok:
                        raise RuntimeError("observe shed: %s"
                                           % response.error)
                started = time.perf_counter()
                close = await client.window_close(tenant, robot,
                                                  t=float(window))
                latencies_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )
                if not close.ok:
                    raise RuntimeError("close failed: %s" % close.error)
                closes += 1
                if close.payload.get("fixed"):
                    fixes += 1
        await client.bye(tenant)
    return {"fixes": fixes, "closes": closes}


def _observe(tenant, robot, seq, x, y, rssi, t):
    from repro.serve.protocol import ObserveRequest

    return ObserveRequest(tenant=tenant, robot=robot, seq=seq,
                          x=x, y=y, rssi_dbm=rssi, t=t)


async def _run_load(args: argparse.Namespace,
                    checkpointing: bool,
                    trace_mode: str = "off") -> Dict[str, object]:
    """One full workload pass; returns raw totals for that pass."""
    core = ServiceCore(ServeConfig(
        port=0,
        n_shards=args.shards,
        queue_limit=max(256, args.tenants * args.robots * 4),
        tenant_inflight_limit=max(64, args.beacons * args.robots * 2),
        checkpointing=checkpointing,
        trace_mode=trace_mode,
    ))
    server = LocalizationServer(core)
    await server.start()
    host, port = core.config.host, server.port
    # Pre-build the shared calibration table outside the timed window,
    # so the measurement (and the checkpointing-on/off comparison) is
    # pure serving path, not one-off table construction.
    from repro.serve.protocol import HelloRequest

    core.calibrations.table_for(HelloRequest(
        tenant="warmup",
        calibration_samples=args.calibration_samples,
        area_side_m=AREA_SIDE_M,
    ))
    latencies_ms: List[float] = []
    started = time.perf_counter()
    totals = await asyncio.gather(*[
        drive_tenant(host, port, "bench-%02d" % i, args,
                     seed=args.seed * 1000 + i, latencies_ms=latencies_ms)
        for i in range(args.tenants)
    ])
    wall_s = time.perf_counter() - started
    stats = core.stats()
    trace_records = core.tracer.records()
    await server.stop()
    fixes = sum(t["fixes"] for t in totals)
    return {
        "wall_s": wall_s,
        "fixes": fixes,
        "closes": sum(t["closes"] for t in totals),
        "fixes_per_s": fixes / wall_s if wall_s else 0.0,
        "latencies_ms": latencies_ms,
        "stats": stats,
        "trace_records": trace_records,
    }


#: The three variants as ``(name, checkpointing, trace_mode)``.  Each
#: pass boots a fresh server, so no pass warms another.
VARIANTS = (
    ("baseline", False, "off"),
    ("durable", True, "off"),
    # Tracing forced to "always" is the worst case; serving samples.
    ("traced", True, "always"),
)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, interquartile range and minimum of one row's repeats."""
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return {
        "median": round(float(median), 3),
        "iqr": round(float(q3 - q1), 3),
        "min": round(float(np.min(values)), 3),
    }


def _overhead_pct(slower: float, faster: float) -> float:
    return 100.0 * (1.0 - slower / faster) if faster > 0 else 0.0


async def run_bench(args: argparse.Namespace) -> Dict[str, object]:
    passes: Dict[str, List[Dict[str, object]]] = {
        name: [] for name, _, _ in VARIANTS
    }
    repeats = QUICK_REPEATS if args.quick else REPEATS
    for repeat in range(repeats):
        shift = repeat % len(VARIANTS)
        for name, checkpointing, trace_mode in (
            VARIANTS[shift:] + VARIANTS[:shift]
        ):
            passes[name].append(await _run_load(
                args, checkpointing=checkpointing, trace_mode=trace_mode
            ))
    baseline, durable, traced = (
        passes["baseline"], passes["durable"], passes["traced"]
    )
    if args.trace_out is not None:
        from repro.telemetry.export import write_jsonl

        await asyncio.to_thread(
            write_jsonl, args.trace_out, traced[-1]["trace_records"]
        )

    def rows(runs, key):
        return summarize([run[key] for run in runs])

    def latency(q):
        return summarize([
            float(np.percentile(run["latencies_ms"], q)) for run in durable
        ])

    def overheads(slower, faster):
        return summarize([
            _overhead_pct(s["fixes_per_s"], f["fixes_per_s"])
            for s, f in zip(slower, faster)
        ])

    last = durable[-1]
    stats = last["stats"]
    return {
        "benchmark": "serve",
        "quick": bool(args.quick),
        "repeats": repeats,
        "summary": "median, iqr, min over the repeats; per_pass holds "
                   "counts from the last pass of a variant",
        "scenario": {
            "tenants": args.tenants,
            "robots_per_tenant": args.robots,
            "windows_per_robot": args.windows,
            "beacons_per_window": args.beacons,
            "shards": args.shards,
            "calibration_samples": args.calibration_samples,
            "area_side_m": AREA_SIDE_M,
            "seed": args.seed,
        },
        "totals": {
            "wall_s": rows(durable, "wall_s"),
            "fixes_per_s": rows(durable, "fixes_per_s"),
            "requests_per_s": summarize([
                run["stats"].get("serve_requests_total", 0.0) / run["wall_s"]
                for run in durable
            ]),
            "shed": summarize([
                run["stats"].get("serve_shed_total_all", 0.0)
                for run in durable
            ]),
        },
        "fix_latency_ms": {
            "p50": latency(50.0),
            "p90": latency(90.0),
            "p99": latency(99.0),
            "mean": summarize([
                float(np.mean(run["latencies_ms"])) for run in durable
            ]),
            "max": summarize([
                float(np.max(run["latencies_ms"])) for run in durable
            ]),
        },
        "checkpointing": {
            "on_fixes_per_s": rows(durable, "fixes_per_s"),
            "off_fixes_per_s": rows(baseline, "fixes_per_s"),
            "overhead_pct": overheads(durable, baseline),
        },
        "tracing": {
            "mode": "always",
            "on_fixes_per_s": rows(traced, "fixes_per_s"),
            "off_fixes_per_s": rows(durable, "fixes_per_s"),
            "overhead_pct": overheads(traced, durable),
        },
        "per_pass": {
            "window_closes": last["closes"],
            "fixes": last["fixes"],
            "latency_samples": len(last["latencies_ms"]),
            "checkpoints_saved": stats.get("serve_checkpoints_saved", 0.0),
            "traced_spans_recorded": len(traced[-1]["trace_records"]),
            "traced_traces_recorded": traced[-1]["stats"].get(
                "obs_traces_recorded", 0.0
            ),
            "service_metrics": {
                key: value for key, value in sorted(stats.items())
                if key.startswith("serve_")
            },
        },
    }


def _fmt(row: Dict[str, float], unit: str = "") -> str:
    return "%.2f%s (IQR %.2f, min %.2f)" % (
        row["median"], unit, row["iqr"], row["min"]
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    report = asyncio.run(run_bench(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    totals = report["totals"]
    latency = report["fix_latency_ms"]
    scenario = report["scenario"]
    per_pass = report["per_pass"]
    print("serve bench: %d tenants x %d robots x %d windows (%d shards), "
          "%d repeats%s; median (IQR, min) per row"
          % (scenario["tenants"], scenario["robots_per_tenant"],
             scenario["windows_per_robot"], scenario["shards"],
             report["repeats"], " (quick)" if report["quick"] else ""))
    print("  sustained: %s fixes/s, %s requests/s, sheds %s "
          "(%d fixes per pass)"
          % (_fmt(totals["fixes_per_s"]), _fmt(totals["requests_per_s"]),
             _fmt(totals["shed"]), per_pass["fixes"]))
    print("  fix latency (n=%d per pass): p50 %s  p99 %s"
          % (per_pass["latency_samples"], _fmt(latency["p50"], " ms"),
             _fmt(latency["p99"], " ms")))
    durability = report["checkpointing"]
    print("  checkpointing: %s fixes/s on vs %s off, overhead %s "
          "(%d checkpoints per pass)"
          % (_fmt(durability["on_fixes_per_s"]),
             _fmt(durability["off_fixes_per_s"]),
             _fmt(durability["overhead_pct"], "%"),
             int(per_pass["checkpoints_saved"])))
    tracing = report["tracing"]
    print("  tracing (always): %s fixes/s on, overhead %s "
          "(%d spans / %d traces per pass)"
          % (_fmt(tracing["on_fixes_per_s"]),
             _fmt(tracing["overhead_pct"], "%"),
             per_pass["traced_spans_recorded"],
             int(per_pass["traced_traces_recorded"])))
    if args.trace_out is not None:
        print("  traced pass spans written to %s" % args.trace_out)
    print("  report written to %s" % args.out)
    if per_pass["fixes"] == 0:
        print("FAIL: benchmark produced no fixes")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
