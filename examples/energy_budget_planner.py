#!/usr/bin/env python3
"""Pick the beacon period T for a mission's accuracy and energy budget.

The paper's §4.3.1 take-away is that T trades localization accuracy
against energy, with a sweet spot between 50 and 100 seconds.  A mission
planner has the inverse problem: given an accuracy requirement and a
battery budget, which T (and whether coordination is worth its
complexity) should the team use?

This script sweeps T, prints the trade-off table, and picks the cheapest
configuration that meets the accuracy requirement — the operator-facing
decision the SYNC message's adjustable T/t exists for.

Run:
    python examples/energy_budget_planner.py [accuracy_requirement_m]
"""

import sys
from dataclasses import replace

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.experiments.metrics import summarize_errors


def main() -> None:
    accuracy_requirement_m = (
        float(sys.argv[1]) if len(sys.argv) > 1 else 15.0
    )
    base = CoCoAConfig(
        n_robots=30,
        n_anchors=15,
        duration_s=600.0,
        v_max=2.0,
        master_seed=3,
    )
    periods = (20.0, 50.0, 100.0, 200.0)

    print("Mission: %.0f robots, %.0f min, accuracy requirement %.1f m"
          % (base.n_robots, base.duration_s / 60.0, accuracy_requirement_m))
    print("\n%-8s %-12s %-14s %-14s %-8s" % (
        "T (s)", "error (m)", "E coord (J)", "E idle (J)", "savings"))

    rows = []
    for period in periods:
        coordinated = CoCoATeam(replace(base, beacon_period_s=period)).run()
        uncoordinated = CoCoATeam(
            replace(base, beacon_period_s=period, coordination=False)
        ).run()
        summary = summarize_errors(
            coordinated.errors, skip_first_s=min(period, 200.0)
        )
        e_coord = coordinated.total_energy_j()
        e_idle = uncoordinated.total_energy_j()
        rows.append((period, summary.time_average_m, e_coord, e_idle))
        print("%-8.0f %-12.2f %-14.0f %-14.0f %.1fx" % (
            period, summary.time_average_m, e_coord, e_idle,
            e_idle / e_coord))

    feasible = [r for r in rows if r[1] <= accuracy_requirement_m]
    print()
    if not feasible:
        best = min(rows, key=lambda r: r[1])
        print("No configuration meets %.1f m; the most accurate is "
              "T=%.0f s at %.2f m. Consider more anchors (see Figure 10)."
              % (accuracy_requirement_m, best[0], best[1]))
        return
    choice = min(feasible, key=lambda r: r[2])
    print("Recommendation: T = %.0f s -> %.2f m average error at %.0f J "
          "(%.1fx cheaper than leaving radios idle)."
          % (choice[0], choice[1], choice[2], choice[3] / choice[2]))
    print("Broadcast it by having the operator update the Sync robot; "
          "SYNC messages carry T and t to the whole team (§2.3).")


if __name__ == "__main__":
    main()
