"""Compare two result sets of the benchmark: a parent and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the results ``run.py --record PATH`` appends, one JSON
object per run.  Make the runs in alternating order (parent, change,
change, parent, ...) with the same seeds and ``--seconds`` on both sides;
the i-th untraced run of a workload on one side is paired with the i-th
on the other.

One row per (workload, end-to-end metric), with each side's median and
quartiles and the change's wins over the pairs, and a verdict:

- ``improved`` -- the change wins at least 9/10 of the pairs (ties count
  for neither) and the medians differ by more than the parent's own
  quartile spread;
- ``REGRESSED`` -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved`` -- the parent's quartile spread is wider than the bound,
  so "no worse by more than the bound" cannot be shown, unless every run
  of the change reads better than every run of the parent;
- ``unchanged`` -- otherwise.

Exits 1 when any row regressed or any run of the change failed its
correctness check, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> Dict[str, List[dict]]:
    """Untraced runs per workload, in file order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                run = json.loads(line)
                if not run.get("trace"):
                    runs[run["workload"]].append(run)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, object]:
    """The section-8 decision for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > spread:
        label = "improved"
    elif worse_by > bound:
        label = "REGRESSED"
    elif pm and spread / abs(pm) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "wins": wins, "pairs": len(pairs), "worse_by": worse_by,
        "verdict": label,
    }


def compare(parent_runs: Dict[str, List[dict]],
            change_runs: Dict[str, List[dict]],
            specs: Sequence[dict]) -> List[Dict[str, object]]:
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            continue
        for spec in specs:
            name = spec["name"]
            row = verdict(
                [run["metrics"][name]["value"] for run in parent],
                [run["metrics"][name]["value"] for run in change],
                spec["better"], spec["bound"],
            )
            row.update(workload=workload, metric=name, unit=spec["unit"],
                       failed=sum(run["failed"] for run in change))
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="JSONL results of the parent")
    parser.add_argument("change", help="JSONL results of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["end_to_end"]
    rows = compare(load_runs(args.parent), load_runs(args.change), specs)
    print("%-16s %-20s %-10s %-32s %-32s %-6s %s" % (
        "workload", "metric", "unit", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    failing = False
    for row in rows:
        print("%-16s %-20s %-10s %-32s %-32s %-6s %s" % (
            row["workload"], row["metric"], row["unit"],
            "%.5g [%.5g, %.5g]" % (row["parent"][1], row["parent"][0],
                                   row["parent"][2]),
            "%.5g [%.5g, %.5g]" % (row["change"][1], row["change"][0],
                                   row["change"][2]),
            "%d/%d" % (row["wins"], row["pairs"]), row["verdict"]))
        failing |= row["verdict"] == "REGRESSED" or row["failed"] > 0
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
