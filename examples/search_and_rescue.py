#!/usr/bin/env python3
"""Search and rescue: the paper's motivating application, end to end.

    "In search and rescue operation, the location of a survivor needs to
    be indicated so that additional personnel can be dispatched to the
    area."  (§1)
    "The average localization error is about 8 m ... survivors can be
    located within 8 m.  Pinpointing the exact location of the survivor is
    then trivial once more resources are deployed to the area."  (§6)

The scenario: a robot team sweeps a disaster area; survivors are at
unknown spots.  When a robot passes close to a survivor, it detects them
(a proximity sensor stand-in) and reports the survivor at *its own
estimated position*.  The quality of the dispatch therefore equals the
robot's localization error at detection time — exactly what CoCoA bounds.

The script also routes each report to the operator station with greedy
geographic forwarding over CoCoA coordinates, the §6 application claim.

Run:
    python examples/search_and_rescue.py
"""

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.ext.georouting import greedy_route
from repro.multicast.mesh import connectivity_graph
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2

DETECTION_RADIUS_M = 8.0
LINK_RANGE_M = 90.0


def main() -> None:
    config = CoCoAConfig(
        n_robots=30,
        n_anchors=12,
        beacon_period_s=60.0,
        duration_s=600.0,
        v_max=2.0,
        master_seed=11,
    )
    rng = RandomStreams(99).get("survivors")
    survivors = [
        Vec2(float(rng.uniform(10, 190)), float(rng.uniform(10, 190)))
        for _ in range(8)
    ]
    operator_station = Vec2(5.0, 5.0)

    team = CoCoATeam(config)
    reports = []
    found = set()

    def sweep() -> None:
        """Every 5 s, each robot checks its proximity sensor."""
        t = team.sim.now
        for node in team.nodes:
            position = node.true_position(t)
            for idx, survivor in enumerate(survivors):
                if idx in found:
                    continue
                if position.distance_to(survivor) <= DETECTION_RADIUS_M:
                    found.add(idx)
                    reported_at = node.estimated_position(t)
                    reports.append(
                        (t, idx, node.node_id, survivor, reported_at)
                    )
        if t + 5.0 < config.duration_s:
            team.sim.schedule(5.0, sweep)

    team.sim.schedule(5.0, sweep)
    team.run()

    print("Deployed %d robots over %.0f m x %.0f m; %d survivors hidden."
          % (config.n_robots, config.area.width, config.area.height,
             len(survivors)))
    print("Found %d/%d survivors in %.0f simulated minutes.\n"
          % (len(found), len(survivors), config.duration_s / 60.0))

    print("%-6s %-9s %-7s %-22s %s" % (
        "t(s)", "survivor", "robot", "reported position", "report error"))
    errors = []
    for t, idx, robot, survivor, reported in reports:
        error = reported.distance_to(survivor)
        errors.append(error)
        print("%-6.0f #%-8d %-7d (%6.1f, %6.1f) m       %5.1f m"
              % (t, idx, robot, reported.x, reported.y, error))
    if errors:
        print("\nMean report error: %.1f m (the paper argues <~8 m suffices"
              " to dispatch responders)" % (sum(errors) / len(errors)))

    # Route the reports to the operator station over CoCoA coordinates.
    t = team.sim.now
    true_coords = {n.node_id: n.true_position(t) for n in team.nodes}
    est_coords = {n.node_id: n.estimated_position(t) for n in team.nodes}
    station_id = -1
    true_coords[station_id] = operator_station
    est_coords[station_id] = operator_station
    graph = connectivity_graph(true_coords, LINK_RANGE_M)

    delivered = 0
    reporters = {robot for _, _, robot, _, _ in reports}
    for robot in sorted(reporters):
        path = greedy_route(graph, est_coords, robot, station_id)
        if path is not None:
            delivered += 1
            print("robot %2d -> operator: %d hops via %s"
                  % (robot, len(path) - 1, path))
        else:
            print("robot %2d -> operator: greedy routing failed "
                  "(local minimum)" % robot)
    if reporters:
        print("\nGeographic routing over CoCoA coordinates delivered "
              "%d/%d reports." % (delivered, len(reporters)))


if __name__ == "__main__":
    main()
