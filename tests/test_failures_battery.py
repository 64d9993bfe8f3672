"""Tests for failure injection, Sync failover and the battery model."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.energy.battery import Battery, project_lifetime
from repro.ext.failures import FailureSchedule, ResilientTeam
from repro.mobility.odometry import NOISE_BLOCK


def small_config(**overrides):
    defaults = dict(
        n_robots=16,
        n_anchors=6,
        beacon_period_s=30.0,
        duration_s=155.0,
        master_seed=7,
        calibration_samples=30_000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


class TestBattery:
    def test_radio_budget(self):
        battery = Battery(capacity_j=80_000.0, radio_share=0.25)
        assert battery.radio_budget_j == pytest.approx(20_000.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Battery(capacity_j=0.0)
        with pytest.raises(ValueError):
            Battery(radio_share=0.0)

    def test_projection_orders_deaths(self):
        profile = {0: 100.0, 1: 200.0, 2: 50.0}
        projection = project_lifetime(profile, measured_duration_s=100.0)
        # Node 1 burns fastest, node 2 slowest.
        assert projection.first_death_s == projection.node_lifetimes_s[1]
        assert projection.last_death_s == projection.node_lifetimes_s[2]
        assert (
            projection.first_death_s
            <= projection.half_team_s
            <= projection.last_death_s
        )

    def test_projection_math(self):
        battery = Battery(capacity_j=100_000.0, radio_share=0.5)
        # 100 J over 100 s = 1 W; budget 50 kJ -> 50 000 s.
        projection = project_lifetime({0: 100.0}, 100.0, battery)
        assert projection.node_lifetimes_s[0] == pytest.approx(50_000.0)

    def test_zero_consumption_is_infinite(self):
        projection = project_lifetime({0: 0.0, 1: 10.0}, 100.0)
        assert projection.node_lifetimes_s[0] == float("inf")

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            project_lifetime({}, 100.0)

    def test_coordination_extends_lifetime(self, pdf_table):
        """The payoff of Figure 9(b), in mission time."""
        from repro.core.team import CoCoATeam

        coordinated = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        idle = CoCoATeam(
            small_config(coordination=False), pdf_table=pdf_table
        ).run()
        battery = Battery()
        life_coord = project_lifetime(
            coordinated.per_node_energy_j, 155.0, battery
        )
        life_idle = project_lifetime(idle.per_node_energy_j, 155.0, battery)
        assert life_coord.first_death_s > 1.5 * life_idle.first_death_s


class TestFailureSchedule:
    def test_of_constructor(self):
        schedule = FailureSchedule.of((10.0, 1), (20.0, 2))
        assert len(schedule.failures) == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            FailureSchedule.of((-1.0, 1))
        with pytest.raises(ValueError):
            FailureSchedule.of((1.0, -2))

    def test_sorted_and_deduplicated(self):
        """Entry order never matters and duplicates collapse, so two
        differently-written schedules hash and execute identically."""
        a = FailureSchedule.of((20.0, 2), (10.0, 1), (20.0, 2))
        b = FailureSchedule.of((10.0, 1), (20.0, 2), (10.0, 1))
        assert a.failures == b.failures == ((10.0, 1), (20.0, 2))


class TestFailureInjection:
    def test_dead_robot_stops_consuming_and_reporting(self, pdf_table):
        team = ResilientTeam(
            small_config(),
            FailureSchedule.of((50.0, 10)),
            failover=False,
            pdf_table=pdf_table,
        )
        result = team.run()
        assert 10 in team.dead
        # Node 10 is an unknown (ids 6..15); find its row.
        row = result.measured_ids.index(10)
        assert np.isnan(result.errors[row, -1])
        assert not np.isnan(result.errors[row, 10])
        # NaN-aware aggregates remain finite.
        assert np.isfinite(result.time_average_error())

    def test_dead_anchor_stops_beaconing(self, pdf_table):
        alive = ResilientTeam(small_config(), pdf_table=pdf_table)
        alive_result = alive.run()
        team = ResilientTeam(
            small_config(),
            FailureSchedule.of((40.0, 3), (40.0, 4), (40.0, 5)),
            failover=False,
            pdf_table=pdf_table,
        )
        result = team.run()
        assert result.beacons_sent < alive_result.beacons_sent

    def test_kill_is_idempotent(self, pdf_table):
        team = ResilientTeam(small_config(), pdf_table=pdf_table)
        team.kill(2)
        team.kill(2)
        assert team.dead == {2}

    def test_team_survives_many_failures(self, pdf_table):
        schedule = FailureSchedule.of(
            (30.0, 2), (60.0, 8), (90.0, 12), (120.0, 14)
        )
        team = ResilientTeam(
            small_config(), schedule, failover=True, pdf_table=pdf_table
        )
        result = team.run()
        assert len(team.dead) == 4
        assert np.isfinite(result.time_average_error())

    @pytest.mark.parametrize("mode", ["cocoa", "odometry_only"])
    def test_measured_robot_killed_at_start(self, mode, pdf_table):
        config = replace(
            small_config(duration_s=60.0),
            localization_mode=LocalizationMode(mode),
        )
        team = ResilientTeam(
            config,
            FailureSchedule.of((0.0, 10)),
            failover=False,
            pdf_table=pdf_table,
        )
        result = team.run()
        row = result.measured_ids.index(10)
        assert np.isnan(result.errors[row]).all()
        assert np.isfinite(np.delete(result.errors, row, axis=0)).all()

    def test_kill_with_noise_block_used_up(self, pdf_table):
        """A robot dies right after a sample that read its odometer's
        last read-ahead noise value: later samples still run."""
        cursors = []

        class Recording(ResilientTeam):
            def kill(self, node_id):
                row = self._row_of[node_id]
                cursors.append(int(self.odometry._cursor[row]))
                super().kill(node_id)

        # With seed 5, node 6's sample at 381 s ends on the block's last
        # value.
        team = Recording(
            small_config(duration_s=390.0, master_seed=5),
            FailureSchedule.of((381.5, 6)),
            failover=False,
            pdf_table=pdf_table,
        )
        result = team.run()
        assert cursors == [NOISE_BLOCK]
        errors = result.errors[result.measured_ids.index(6)]
        dead = result.times > 381.5
        assert np.isnan(errors[dead]).all()
        assert np.isfinite(errors[~dead]).all()
        assert dead.sum() == 9


class TestSyncFailover:
    def run_with_sync_death(self, pdf_table, failover, duration=400.0):
        config = small_config(duration_s=duration)
        team = ResilientTeam(
            config,
            FailureSchedule.of((45.0, 0)),  # kill the Sync robot early
            failover=failover,
            resync_after_silent_periods=3 if failover else None,
            pdf_table=pdf_table,
        )
        return team, team.run()

    def test_without_failover_syncs_stop(self, pdf_table):
        team, result = self.run_with_sync_death(pdf_table, failover=False)
        # Only the pre-death periods distributed SYNC.
        late_syncs = result.syncs_received
        team2, result2 = self.run_with_sync_death(pdf_table, failover=True)
        assert result2.syncs_received > 2 * late_syncs

    def test_exactly_one_backup_takes_over(self, pdf_table):
        team, _ = self.run_with_sync_death(pdf_table, failover=True)
        acting = [f for f in team.failovers.values() if f.is_acting_sync]
        assert len(acting) == 1
        # Rank staggering: the lowest-id backup anchor wins.
        assert acting[0].node_id == 1
        assert acting[0].takeovers == 1

    def test_failover_restores_localization(self, pdf_table):
        _, without = self.run_with_sync_death(pdf_table, failover=False)
        _, with_fo = self.run_with_sync_death(pdf_table, failover=True)
        late_without = float(np.nanmean(without.errors[:, 250:]))
        late_with = float(np.nanmean(with_fo.errors[:, 250:]))
        assert late_with < late_without

    def test_resync_mode_used_during_outage(self, pdf_table):
        team, _ = self.run_with_sync_death(pdf_table, failover=True)
        resync_periods = sum(
            n.coordinator.resync_periods
            for n in team.nodes
            if n.coordinator is not None
        )
        assert resync_periods > 0

    def test_no_takeover_when_sync_robot_alive(self, pdf_table):
        team = ResilientTeam(
            small_config(duration_s=245.0), failover=True,
            pdf_table=pdf_table,
        )
        team.run()
        assert all(f.takeovers == 0 for f in team.failovers.values())
