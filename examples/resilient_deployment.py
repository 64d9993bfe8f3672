#!/usr/bin/env python3
"""A mission that goes wrong — and the team that survives it.

The paper deploys CoCoA for disaster response, where robots get crushed,
flipped and drained mid-mission.  This example runs such a mission:

1. a 30-robot team localizes cooperatively with T = 40 s,
2. at t = 120 s the designated Sync robot dies,
3. two more robots (an anchor and an unknown) die later,
4. the failover extension elects a replacement Sync robot (lowest alive
   anchor, decided purely by rank-staggered silence — zero extra
   packets), desynchronized robots re-acquire via resync mode,
5. throughout, survivors keep routing status reports to an operator
   corner over the live network using their CoCoA coordinates.

Run:
    python examples/resilient_deployment.py
"""

import numpy as np

from repro.core.config import CoCoAConfig
from repro.ext.failures import FailureSchedule
from repro.ext.online_routing import RoutingTeam
from repro.sim.rng import RandomStreams


class ResilientRoutingTeam(RoutingTeam):
    """Online routing plus failure injection (mixin-by-inheritance)."""

    def __init__(self, config, schedule, **kwargs):
        from repro.ext.failures import ResilientTeam

        # Reuse ResilientTeam's machinery by delegation-style composition:
        # RoutingTeam builds the network; we add kills + failover wiring.
        self._failures = schedule
        super().__init__(config, **kwargs)
        # Wire failover exactly as ResilientTeam does.
        self.dead = set()
        self.failovers = {}
        ResilientTeam._wire_failover(self)
        for node in self.nodes:
            if node.coordinator is not None:
                node.coordinator.resync_after = 3

    def _hook_anchor(self, node, component):
        from repro.ext.failures import ResilientTeam

        ResilientTeam._hook_anchor(self, node, component)

    def kill(self, node_id):
        from repro.ext.failures import ResilientTeam

        ResilientTeam.kill(self, node_id)

    @property
    def _failover_enabled(self):
        return True

    def run(self):
        for time_s, node_id in self._failures.failures:
            self.sim.schedule_at(time_s, self.kill, node_id, name="failure")
        return super().run()


def main() -> None:
    config = CoCoAConfig(
        n_robots=30,
        n_anchors=10,
        beacon_period_s=40.0,
        duration_s=600.0,
        master_seed=13,
    )
    schedule = FailureSchedule.of((120.0, 0), (260.0, 4), (380.0, 17))
    team = ResilientRoutingTeam(config, schedule)
    rng = RandomStreams(77).get("traffic")
    operator = 29  # the report sink

    def traffic():
        if team.sim.now < 90.0:
            return
        alive = [
            n.node_id
            for n in team.nodes
            if n.node_id not in team.dead and n.node_id != operator
        ]
        for src in rng.choice(alive, size=3, replace=False):
            dest = team.nodes[operator].estimated_position(team.sim.now)
            team.routers[int(src)].send(operator, dest)

    team.on_window(traffic, delay_s=1.2, node_id=operator)
    result = team.run()

    print("Mission: %d robots, T=%.0f s, %.0f simulated minutes"
          % (config.n_robots, config.beacon_period_s,
             config.duration_s / 60.0))
    print("Failures injected: Sync robot @120 s, anchor @260 s, "
          "unknown @380 s\n")

    series = result.mean_error_series()
    for window in range(0, 600, 120):
        seg = series[window : window + 120]
        print("  t=%3d-%3ds: mean localization error %5.1f m"
              % (window, window + 120, float(np.nanmean(seg))))

    acting = [f for f in team.failovers.values() if f.is_acting_sync]
    resync = sum(n.coordinator.resync_periods for n in team.nodes
                 if n.coordinator is not None)
    print("\nFailover: takeovers=%d, acting Sync robot=%s, "
          "resync node-periods=%d"
          % (sum(f.takeovers for f in team.failovers.values()),
             [f.node_id for f in acting], resync))
    print("SYNC messages delivered: %d" % result.syncs_received)

    stats = team.routing_stats()
    print("\nStatus reports to the operator: %d sent, %d delivered (%.0f%%)"
          % (stats.originated, stats.delivered,
             100.0 * stats.delivered / max(stats.originated, 1)))
    print("Team survived: %d/%d robots operational at mission end."
          % (config.n_robots - len(team.dead), config.n_robots))


if __name__ == "__main__":
    main()
