"""Integration tests: the full CoCoA team on short scenarios.

These use scaled-down durations (2-4 beacon periods) so the whole file
runs in a few seconds while still exercising every component together:
channel, MAC, coordination, multicast SYNC, beaconing, the Bayesian filter
and odometry fusion.
"""

import numpy as np
import pytest

from repro.core.config import CoCoAConfig, LocalizationMode, MulticastProtocol
from repro.core.node import RobotRole
from repro.core.team import CoCoATeam


def small_config(**overrides):
    defaults = dict(
        n_robots=20,
        n_anchors=10,
        beacon_period_s=30.0,
        duration_s=95.0,
        master_seed=7,
        calibration_samples=40_000,
    )
    defaults.update(overrides)
    return CoCoAConfig(**defaults)


@pytest.fixture(scope="module")
def cocoa_result(pdf_table):
    team = CoCoATeam(small_config(), pdf_table=pdf_table)
    return team, team.run()


class TestTeamConstruction:
    def test_roles_assigned(self, pdf_table):
        team = CoCoATeam(small_config(), pdf_table=pdf_table)
        anchors = [n for n in team.nodes if n.role is RobotRole.ANCHOR]
        unknowns = [n for n in team.nodes if n.role is RobotRole.UNKNOWN]
        assert len(anchors) == 10
        assert len(unknowns) == 10
        assert all(n.beaconer is not None for n in anchors)
        assert all(n.estimator is not None for n in unknowns)

    def test_exactly_one_sync_robot(self, pdf_table):
        team = CoCoATeam(small_config(), pdf_table=pdf_table)
        sync_robots = [n for n in team.nodes if n.is_sync_robot]
        assert len(sync_robots) == 1
        assert sync_robots[0].multicast.is_source

    def test_odometry_only_team_has_no_network_roles(self):
        config = small_config(
            localization_mode=LocalizationMode.ODOMETRY_ONLY,
            n_anchors=0,
            coordination=False,
        )
        team = CoCoATeam(config)
        assert all(n.multicast is None for n in team.nodes)
        assert all(n.beaconer is None for n in team.nodes)
        assert all(n.estimator is not None for n in team.nodes)
        # An odometry-only team calibrates no PDF table, anchors or not.
        assert team.pdf_table is None
        assert CoCoATeam(
            small_config(localization_mode=LocalizationMode.ODOMETRY_ONLY)
        ).pdf_table is None


class TestCocoaRun:
    def test_metrics_shape(self, cocoa_result):
        team, result = cocoa_result
        assert result.errors.shape[0] == 10  # unknowns
        assert result.errors.shape[1] == 95  # one sample per second
        assert len(result.times) == 95

    def test_beacons_sent_per_window(self, cocoa_result):
        team, result = cocoa_result
        # 10 anchors x 3 beacons x ~3 full windows (t=0, 30, 60, 90).
        assert result.beacons_sent >= 10 * 3 * 3

    def test_unknowns_obtain_fixes(self, cocoa_result):
        team, result = cocoa_result
        assert result.fixes >= 10 * 2  # nearly every robot, nearly every window

    def test_error_drops_after_first_window(self, cocoa_result):
        team, result = cocoa_result
        series = result.mean_error_series()
        # Before any fix the estimate is the area center (~70 m expected
        # error); after the first window it must fall dramatically.
        assert series[10] < 30.0

    def test_syncs_distributed(self, cocoa_result):
        team, result = cocoa_result
        # 19 members x up to 2 SYNC copies x 3+ windows; require broad reach.
        assert result.syncs_received >= 19

    def test_energy_accounted_for_all_nodes(self, cocoa_result):
        team, result = cocoa_result
        assert len(result.per_node_energy_j) == 20
        assert all(e > 0 for e in result.per_node_energy_j.values())
        assert result.energy.breakdown.sleep_j > 0  # coordination slept

    def test_channel_saw_traffic(self, cocoa_result):
        team, result = cocoa_result
        assert result.channel_stats.frames_sent > 50
        assert result.channel_stats.frames_delivered > 100


class TestModesComparison:
    def test_cocoa_beats_rf_only_and_odometry_diverges(self, pdf_table):
        """The paper's central comparison (Figure 7), in miniature."""
        cocoa = CoCoATeam(
            small_config(duration_s=185.0), pdf_table=pdf_table
        ).run()
        rf = CoCoATeam(
            small_config(
                duration_s=185.0,
                localization_mode=LocalizationMode.RF_ONLY,
            ),
            pdf_table=pdf_table,
        ).run()
        odo = CoCoATeam(
            small_config(
                duration_s=185.0,
                localization_mode=LocalizationMode.ODOMETRY_ONLY,
                n_anchors=0,
                coordination=False,
            )
        ).run()
        # Compare after the first fix window.
        cocoa_err = float(cocoa.errors[:, 40:].mean())
        rf_err = float(rf.errors[:, 40:].mean())
        assert cocoa_err < rf_err
        # Odometry-only error grows with time.
        odo_series = odo.mean_error_series()
        assert odo_series[-10:].mean() > odo_series[10:20].mean()

    def test_coordination_saves_energy(self, pdf_table):
        coordinated = CoCoATeam(
            small_config(), pdf_table=pdf_table
        ).run()
        uncoordinated = CoCoATeam(
            small_config(coordination=False), pdf_table=pdf_table
        ).run()
        assert coordinated.total_energy_j() < 0.6 * (
            uncoordinated.total_energy_j()
        )
        assert uncoordinated.energy.breakdown.sleep_j == 0.0

    def test_coordination_does_not_wreck_accuracy(self, pdf_table):
        coordinated = CoCoATeam(
            small_config(), pdf_table=pdf_table
        ).run()
        uncoordinated = CoCoATeam(
            small_config(coordination=False), pdf_table=pdf_table
        ).run()
        c = float(coordinated.errors[:, 35:].mean())
        u = float(uncoordinated.errors[:, 35:].mean())
        assert c < u + 6.0

    def test_odmrp_variant_runs(self, pdf_table):
        result = CoCoATeam(
            small_config(multicast=MulticastProtocol.ODMRP),
            pdf_table=pdf_table,
        ).run()
        assert result.syncs_received > 0


class TestDeterminism:
    def test_same_seed_same_results(self, pdf_table):
        r1 = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        r2 = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        np.testing.assert_allclose(r1.errors, r2.errors)
        assert r1.total_energy_j() == pytest.approx(r2.total_energy_j())
        assert r1.beacons_sent == r2.beacons_sent

    def test_different_seed_different_results(self, pdf_table):
        r1 = CoCoATeam(small_config(), pdf_table=pdf_table).run()
        r2 = CoCoATeam(
            small_config(master_seed=8), pdf_table=pdf_table
        ).run()
        assert not np.allclose(r1.errors, r2.errors)


class TestTeamResultHelpers:
    def test_summary_helpers(self, cocoa_result):
        team, result = cocoa_result
        assert result.time_average_error() == pytest.approx(
            float(result.errors.mean())
        )

    def test_error_snapshot_nearest_sample(self, cocoa_result):
        team, result = cocoa_result
        snapshot = result.error_snapshot(50.2)
        idx = int(np.argmin(np.abs(result.times - 50.2)))
        np.testing.assert_allclose(snapshot, result.errors[:, idx])
