"""The repository's benchmark: both stacks, one command.

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload fig7-cocoa --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-fleet --trace 1 --record runs.jsonl

Workloads (the reasons are also in ``BENCHMARK.json``):

- ``fig7-cocoa`` -- the paper's section 4.3 headline, Figure 7's CoCoA arm
  (50 robots, 25 anchors, T = 100 s, coordinated sleep, v_max = 2 m/s).
  Time is spread across layers: odometry and metric sampling, the
  coalesced channel fast path, the Bayes update.
- ``rf-dense-faults`` -- Figure 6's RF-only scenario at T = 10 s under the
  shipped fault composite at intensity 1 with the shipped defenses.  Ten
  times the beacon rate makes the Bayes update and the channel dominate,
  faults force the channel's generic delivery path, and there is no
  odometry.
- ``serve-fleet`` -- ``repro serve`` with its shipped defaults under an
  open-loop load of 12 tenants x 8 robots (see ``serve_fleet.py``).  The
  simulator is not used.

With ``--trace 0`` the run measures end to end, untraced, and prints every
``end_to_end`` metric of ``BENCHMARK.json``; with ``--trace 1`` it makes
an untraced reference pass and a traced pass and prints every
``per_layer`` metric (a layer a workload does not exercise reads 0).
Every run checks its outputs: the science digests of the simulated
scenarios against the ones recorded in ``expected.json`` (and, traced,
against the untraced pass), and the service's fixes against the same
estimator run in process.  A failed check counts as a failed operation
and makes ``correct`` false.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(ROOT, "perfbench", "expected.json")

WORKLOADS = ("fig7-cocoa", "rf-dense-faults", "serve-fleet")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    ``repro`` that imports is the one in it."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit("perfbench: cannot import repro from %s: %s"
                         % (SRC, exc))
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("perfbench: repro imported from %s, not %s"
                         % (where, SRC))


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit("perfbench: cannot read %s: %s" % (path, exc))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict) -> Dict[str, object]:
    if workload == "serve-fleet":
        from perfbench import serve_fleet

        measure = serve_fleet.measure_traced if trace else serve_fleet.measure
        return measure(ROOT, seed, seconds)
    from perfbench import sim_workloads

    spec = sim_workloads.WORKLOADS[workload]
    recorded = expected["digests"].get(workload, {})
    measure = (sim_workloads.measure_traced if trace
               else sim_workloads.measure)
    return measure(spec, seed, seconds, recorded)


def result_line(outcome: Dict[str, object], specs: List[dict],
                fill_missing: bool) -> Dict[str, object]:
    """The run's last output line: every metric of ``specs`` with its unit.

    ``fill_missing`` reads a metric the workload did not produce as 0 --
    used for per-layer metrics of layers the workload never enters.
    """
    values = outcome["metrics"]
    problems = list(outcome["problems"])
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and not fill_missing:
            raise KeyError("workload produced no %r" % name)
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            problems.append("%s is not finite" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": spec["unit"]}
    failed = int(outcome["failed"])
    if problems and not failed:
        failed = 1
    return {
        "correct": failed == 0 and not problems,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(workload: str, seed: int, trace: bool,
                 line: Dict[str, object], outcome: Dict[str, object]) -> None:
    print("%s  seed %d  %s" % (workload, seed,
                               "traced" if trace else "untraced"))
    for name, metric in line["metrics"].items():
        print("  %-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  correct: %s  (%d attempted, %d failed)"
          % (line["correct"], line["attempted"], line["failed"]))
    for problem in outcome["problems"]:
        print("  problem: %s" % problem)
    for key, value in sorted(outcome.get("detail", {}).items()):
        if not isinstance(value, (dict, list)):
            print("  %s: %s" % (key, value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the default seed in "
                             "expected.json; its held-out seed is there too)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--record", metavar="PATH",
                        help="append each run's result, with its workload "
                             "and seed, to this JSONL file (compare.py input)")
    args = parser.parse_args(argv)

    benchmark = load_json(BENCHMARK_JSON)
    expected = load_json(EXPECTED_JSON)
    _import_program()
    seed = args.seed if args.seed is not None else expected["default_seed"]
    seconds = (args.seconds if args.seconds is not None
               else float(benchmark["run_seconds"]))
    if seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    specs = benchmark["per_layer" if trace else "end_to_end"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    lines = {}
    for workload in workloads:
        outcome = run_workload(workload, seed, seconds, trace, expected)
        line = result_line(outcome, specs, fill_missing=trace)
        print_report(workload, seed, trace, line, outcome)
        lines[workload] = line
        if args.record:
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(dict(
                    line, workload=workload, seed=seed, trace=int(trace),
                )) + "\n")
    if len(lines) == 1:
        final = lines[workloads[0]]
    else:
        final = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                "%s/%s" % (workload, name): metric
                for workload, line in lines.items()
                for name, metric in line["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
