"""Unit tests for the drifting clock and the scenario configuration."""

import pytest

from repro.core.clock import MAX_CLOCK_DRIFT_RATE, DriftingClock
from repro.core.config import CoCoAConfig, LocalizationMode, MulticastProtocol
from repro.core.coordinator import GUARD_FRACTION
from repro.core.team import CoCoATeam
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect


class TestDriftingClock:
    def test_zero_drift_tracks_true_time(self):
        clock = DriftingClock(0.0)
        assert clock.local_time(100.0) == pytest.approx(100.0)
        assert clock.offset(100.0) == pytest.approx(0.0)

    def test_fast_clock_runs_ahead(self):
        clock = DriftingClock(0.02)
        assert clock.local_time(100.0) == pytest.approx(102.0)
        assert clock.offset(100.0) == pytest.approx(2.0)

    def test_slow_clock_lags(self):
        clock = DriftingClock(-0.01)
        assert clock.local_time(100.0) == pytest.approx(99.0)

    def test_true_time_of_inverts_local_time(self):
        clock = DriftingClock(0.015)
        for t in (0.0, 50.0, 1234.5):
            assert clock.true_time_of(clock.local_time(t)) == pytest.approx(t)

    def test_synchronize_reanchors(self):
        clock = DriftingClock(0.02)
        # After 100 s the clock reads 102; a SYNC tells it the reference
        # timeline reads 100.5.
        clock.synchronize(100.0, 100.5)
        assert clock.local_time(100.0) == pytest.approx(100.5)
        # Drift resumes from the new anchor.
        assert clock.local_time(200.0) == pytest.approx(100.5 + 102.0)

    def test_drift_bounded_after_each_sync(self):
        clock = DriftingClock(0.01)
        for sync_time in (100.0, 200.0, 300.0):
            clock.synchronize(sync_time, sync_time)
            assert abs(clock.offset(sync_time + 100.0)) <= 1.0 + 1e-9

    def test_random_clock_within_bounds(self):
        for seed in range(20):
            clock = DriftingClock.random(RandomStreams(seed).get("clock"))
            assert abs(clock.drift_rate) <= MAX_CLOCK_DRIFT_RATE

    def test_extreme_rate_rejected(self):
        with pytest.raises(ValueError):
            DriftingClock(1.0)


class TestCoCoAConfig:
    def test_paper_defaults(self):
        config = CoCoAConfig()
        assert config.n_robots == 50
        assert config.n_anchors == 25
        assert config.area.area == pytest.approx(40000.0)
        assert config.beacon_period_s == 100.0
        assert config.transmit_window_s == 3.0
        assert config.beacons_per_window == 3
        assert config.duration_s == 1800.0
        assert config.min_beacons_for_fix == 3

    def test_derived_quantities(self):
        """The team wakes its coordinators GUARD_FRACTION of T early:
        4 s at the paper's T = 100 s."""
        team = CoCoATeam(CoCoAConfig(
            area=Rect.square(60.0), n_robots=4, n_anchors=2,
            calibration_samples=6000,
        ))
        guards = [node.coordinator._guard_s for node in team.nodes]
        assert guards == [pytest.approx(4.0)] * 4

    def test_window_must_be_shorter_than_period(self):
        with pytest.raises(ValueError):
            CoCoAConfig(beacon_period_s=3.0, transmit_window_s=3.0)

    def test_anchors_bounded_by_team(self):
        with pytest.raises(ValueError):
            CoCoAConfig(n_robots=10, n_anchors=11)

    def test_zero_anchors_allowed(self):
        config = CoCoAConfig(n_anchors=0)
        assert config.n_anchors == 0

    def test_guard_must_cover_drift(self):
        """Two clocks drift apart at up to twice the drift rate, and the
        wake guard must cover that or beacon windows are missed."""
        assert 2 * MAX_CLOCK_DRIFT_RATE <= GUARD_FRACTION

    def test_speed_bounds_validated(self):
        """v_max may not fall below the waypoint model's speed floor."""
        with pytest.raises(ValueError):
            CoCoAConfig(v_max=0.05)

    def test_resolution_must_fit_area(self):
        with pytest.raises(ValueError):
            CoCoAConfig(area=Rect.square(2.0), grid_resolution_m=5.0)

    def test_modes_enumerated(self):
        assert LocalizationMode("cocoa") is LocalizationMode.COCOA
        assert MulticastProtocol("mrmm") is MulticastProtocol.MRMM
