"""Record the science digests the simulator workloads are checked against.

    python3 perfbench/record_digests.py --workload fig7-cocoa --seeds 0-40 7919

For every listed run seed, simulates the workload's panel of scenarios
once and stores each scenario's digest in ``perfbench/expected.json``
under its master seed.  Recording is a deliberate act: run it only when
a change is *meant* to alter the science, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402


def parse_seeds(tokens: List[str]) -> List[int]:
    seeds = []
    for token in tokens:
        first, _, last = token.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig7-cocoa", "rf-dense-faults"))
    parser.add_argument("--seeds", nargs="+", required=True,
                        help="run seeds or inclusive ranges, e.g. 0-40 7919")
    args = parser.parse_args(argv)
    run._import_program()
    from perfbench import sim_workloads

    workload = sim_workloads.WORKLOADS[args.workload]
    digests = {}
    for seed in parse_seeds(args.seeds):
        for scenario in sim_workloads.run_pass(workload, workload.seeds(seed)):
            digests[str(scenario.seed)] = scenario.digest
        print("run seed %d recorded" % seed, flush=True)
    # Re-read just before writing, so recordings of the two workloads can
    # run side by side.
    expected = run.load_json(run.EXPECTED_JSON)
    table = expected["digests"].setdefault(args.workload, {})
    table.update(digests)
    expected["digests"][args.workload] = dict(
        sorted(table.items(), key=lambda item: int(item[0]))
    )
    with open(run.EXPECTED_JSON, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")
    print("%d digests written to %s" % (len(digests), run.EXPECTED_JSON))
    return 0


if __name__ == "__main__":
    sys.exit(main())
