"""BENCH_hotpath.json: every stored verdict follows from its stored runs.

Each entry holds the raw ``perfbench/run.py --record`` lines of a paired
series and the rows ``perfbench.compare.compare`` made from them.  This
re-derives the rows from the lines (no timing) and checks that each
entry's claimed metric reads ``improved`` in every series of its
workload.
"""

import json
import os

import pytest

from perfbench.compare import compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


ENTRIES = _load("BENCH_hotpath.json")["entries"]
SPECS = _load("BENCHMARK.json")["end_to_end"]


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry["change_commit"][:7] for entry in ENTRIES]
)
def test_rows_follow_from_runs_and_claim_holds(entry):
    claim = entry["claim"]
    claimed = []
    for series in entry["series"]:
        runs = {
            side: {series["workload"]: lines}
            for side, lines in series["record_lines"].items()
        }
        for lines in series["record_lines"].values():
            assert len(lines) == series["pairs"]
            assert all(line["seed"] == series["seed"] for line in lines)
        rows = compare(runs["parent"], runs["change"], SPECS)
        assert json.loads(json.dumps(rows)) == series["compare_rows"]
        assert not any(row["failed"] for row in rows)
        assert not any(row["verdict"] == "REGRESSED" for row in rows)
        # A serve series also shows the service answered identically.
        digests = series.get("fix_digests", {})
        assert len({d for side in digests.values() for d in side}) <= 1
        claimed += [
            row for row in rows
            if row["workload"] == claim["workload"]
            and row["metric"] == claim["metric"]
        ]
    assert claimed
    assert {row["verdict"] for row in claimed} == {claim["verdict_required"]}
