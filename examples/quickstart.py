#!/usr/bin/env python3
"""Quickstart: run a small CoCoA team and read the results.

This builds the paper's system at reduced scale — 20 robots, half of them
anchors, five beacon periods — runs it, and prints the numbers the paper's
evaluation is about: localization error over time and the team's energy
bill, split by cause.

Run:
    python examples/quickstart.py
"""

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam


def main() -> None:
    config = CoCoAConfig(
        n_robots=20,
        n_anchors=10,
        beacon_period_s=60.0,  # T: beacon period
        transmit_window_s=3.0,  # t: transmit window
        beacons_per_window=3,  # k
        v_max=2.0,
        duration_s=300.0,
        master_seed=42,
    )
    print("Building team: %d robots (%d anchors), T=%.0fs, t=%.0fs, k=%d"
          % (config.n_robots, config.n_anchors, config.beacon_period_s,
             config.transmit_window_s, config.beacons_per_window))

    team = CoCoATeam(config)
    print("PDF Table calibrated: %d RSSI bins covering [%d, %d] dBm"
          % (team.pdf_table.n_bins, *team.pdf_table.rssi_range))

    result = team.run()

    print("\n--- Localization ---")
    series = result.mean_error_series()
    for minute in range(0, int(config.duration_s), 60):
        window = series[minute : minute + 60]
        print("  t=%3d-%3ds: mean error %6.2f m" % (minute, minute + 60,
                                                    window.mean()))
    print("  time-average error: %.2f m" % result.time_average_error())
    print("  RF fixes produced: %d (windows without a fix: %d)"
          % (result.fixes, result.windows_without_fix))

    print("\n--- Energy (team total: %.1f J) ---" % result.total_energy_j())
    for key, value in result.energy.breakdown.as_dict().items():
        print("  %-14s %10.2f J" % (key, value))

    print("\n--- Network ---")
    stats = result.channel_stats
    print("  beacons sent: %d, frames delivered: %d, collisions: %d"
          % (result.beacons_sent, stats.frames_delivered,
             stats.frames_collided))
    print("  SYNC messages received across the team: %d"
          % result.syncs_received)


if __name__ == "__main__":
    main()
