"""Unit tests for the per-robot position estimator (all three modes)."""

import math

import pytest

from repro.core.config import LocalizationMode
from repro.core.estimator import PositionEstimator
from repro.mobility.base import ScriptedMobility
from repro.mobility.odometry import OdometryNoise, OdometrySensor
from repro.net.phy import PathLossModel
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2


AREA = Rect.square(200.0)


def make_sensor(mobility, seed=1, noise=None):
    return OdometrySensor(
        mobility,
        RandomStreams(seed).get("odo"),
        noise=noise or OdometryNoise.noiseless(),
    )


def straight_mobility(speed=1.0):
    return ScriptedMobility([Vec2(50, 100), Vec2(150, 100)], speed=speed)


class TestConstruction:
    def test_odometry_only_requires_initial_position(self, pdf_table):
        with pytest.raises(ValueError):
            PositionEstimator(
                LocalizationMode.ODOMETRY_ONLY,
                AREA,
                odometry=make_sensor(straight_mobility()),
            )

    def test_odometry_only_requires_sensor(self):
        with pytest.raises(ValueError):
            PositionEstimator(
                LocalizationMode.ODOMETRY_ONLY,
                AREA,
                initial_position=Vec2(0, 0),
            )

    def test_rf_modes_require_table(self):
        with pytest.raises(ValueError):
            PositionEstimator(LocalizationMode.RF_ONLY, AREA)

    def test_cocoa_requires_odometry(self, pdf_table):
        with pytest.raises(ValueError):
            PositionEstimator(
                LocalizationMode.COCOA, AREA, pdf_table=pdf_table
            )

    def test_rf_default_estimate_is_area_center(self, pdf_table):
        est = PositionEstimator(
            LocalizationMode.RF_ONLY, AREA, pdf_table=pdf_table
        )
        assert est.estimate == AREA.center
        assert not est.has_fix


class TestOdometryOnlyMode:
    def test_perfect_odometry_tracks_truth(self):
        mobility = straight_mobility()
        est = PositionEstimator(
            LocalizationMode.ODOMETRY_ONLY,
            AREA,
            odometry=make_sensor(mobility),
            initial_position=mobility.position(0.0),
            initial_heading=mobility.heading(0.0),
        )
        for t in range(1, 51):
            est.tick(float(t))
        assert est.estimate.distance_to(mobility.position(50.0)) < 1e-6

    def test_beacons_ignored(self):
        mobility = straight_mobility()
        est = PositionEstimator(
            LocalizationMode.ODOMETRY_ONLY,
            AREA,
            odometry=make_sensor(mobility),
            initial_position=mobility.position(0.0),
            initial_heading=mobility.heading(0.0),
        )
        est.on_window_open()
        est.on_beacon(Vec2(0, 0), -50.0)
        est.on_window_close()
        assert est.beacons_heard == 0
        assert not est.has_fix


class TestRfOnlyMode:
    def fixed_estimator(self, pdf_table):
        return PositionEstimator(
            LocalizationMode.RF_ONLY, AREA, pdf_table=pdf_table
        )

    def apply_good_beacons(self, est, true_position, n=6):
        model = PathLossModel()
        anchors = [
            Vec2(true_position.x - 25, true_position.y),
            Vec2(true_position.x + 25, true_position.y + 5),
            Vec2(true_position.x, true_position.y + 30),
            Vec2(true_position.x - 10, true_position.y - 25),
            Vec2(true_position.x + 15, true_position.y - 15),
            Vec2(true_position.x + 5, true_position.y + 18),
        ][:n]
        for anchor in anchors:
            rssi = float(model.mean_rssi(anchor.distance_to(true_position)))
            est.on_beacon(anchor, rssi)

    def test_fix_after_enough_beacons(self, pdf_table):
        est = self.fixed_estimator(pdf_table)
        true = Vec2(80, 120)
        est.on_window_open()
        self.apply_good_beacons(est, true)
        est.on_window_close()
        assert est.has_fix
        assert est.fixes == 1
        assert est.estimate.distance_to(true) < 10.0

    def test_too_few_beacons_keeps_old_estimate(self, pdf_table):
        est = self.fixed_estimator(pdf_table)
        before = est.estimate
        est.on_window_open()
        est.on_beacon(Vec2(50, 50), -60.0)
        est.on_beacon(Vec2(60, 50), -60.0)
        est.on_window_close()
        assert est.estimate == before
        assert est.windows_without_fix == 1
        assert not est.has_fix

    def test_estimate_frozen_between_windows(self, pdf_table):
        est = self.fixed_estimator(pdf_table)
        true = Vec2(80, 120)
        est.on_window_open()
        self.apply_good_beacons(est, true)
        est.on_window_close()
        frozen = est.estimate
        est.tick(1.0)  # no odometry in RF mode: tick is a no-op
        assert est.estimate == frozen

    def test_window_reset_discards_stale_evidence(self, pdf_table):
        est = self.fixed_estimator(pdf_table)
        est.on_window_open()
        self.apply_good_beacons(est, Vec2(40, 40))
        est.on_window_close()
        first = est.estimate
        est.on_window_open()
        self.apply_good_beacons(est, Vec2(160, 160))
        est.on_window_close()
        assert est.estimate.distance_to(Vec2(160, 160)) < 12.0
        assert est.estimate.distance_to(first) > 50.0


class TestCocoaMode:
    def make(self, pdf_table, mobility, noise=None, seed=1):
        return PositionEstimator(
            LocalizationMode.COCOA,
            AREA,
            pdf_table=pdf_table,
            odometry=make_sensor(mobility, seed=seed, noise=noise),
        )

    def fix_at(self, est, true_position):
        model = PathLossModel()
        est.on_window_open()
        for anchor in (
            Vec2(true_position.x - 20, true_position.y),
            Vec2(true_position.x + 20, true_position.y + 10),
            Vec2(true_position.x, true_position.y + 25),
            Vec2(true_position.x - 8, true_position.y - 20),
        ):
            est.on_beacon(
                anchor,
                float(model.mean_rssi(anchor.distance_to(true_position))),
            )
        est.on_window_close()

    def test_fix_reanchors_dead_reckoner(self, pdf_table):
        mobility = straight_mobility()
        est = self.make(pdf_table, mobility)
        self.fix_at(est, mobility.position(0.0))
        assert est.estimate.distance_to(mobility.position(0.0)) < 8.0

    def test_dead_reckoning_between_fixes(self, pdf_table):
        mobility = straight_mobility()
        est = self.make(pdf_table, mobility)
        self.fix_at(est, mobility.position(0.0))
        fix_error = est.estimate.distance_to(mobility.position(0.0))
        for t in range(1, 21):
            est.tick(float(t))
        # With perfect odometry the error cannot grow beyond the fix error
        # (plus the unknown initial heading, corrected by the second fix).
        late_error = est.estimate.distance_to(mobility.position(20.0))
        assert late_error < fix_error + 25.0

    def test_heading_corrected_by_second_fix(self, pdf_table):
        mobility = straight_mobility()
        est = self.make(pdf_table, mobility)
        self.fix_at(est, mobility.position(0.0))
        for t in range(1, 31):
            est.tick(float(t))
        self.fix_at(est, mobility.position(30.0))
        # After the second fix the reckoner's heading must be close to the
        # true course (0 rad: moving along +x).
        heading = est._dead_reckoner.heading
        assert abs(heading) < math.radians(25.0)

    def test_third_window_tracks_well(self, pdf_table):
        mobility = straight_mobility()
        est = self.make(pdf_table, mobility)
        t = 0.0
        for window in range(3):
            self.fix_at(est, mobility.position(t))
            for step in range(1, 21):
                est.tick(t + step)
            t += 20.0
        error = est.estimate.distance_to(mobility.position(t))
        assert error < 10.0

    def test_window_without_beacons_continues_reckoning(self, pdf_table):
        mobility = straight_mobility()
        est = self.make(pdf_table, mobility)
        self.fix_at(est, mobility.position(0.0))
        est.tick(1.0)
        moved = est.estimate
        est.on_window_open()
        est.on_window_close()  # zero beacons
        assert est.windows_without_fix == 1
        assert est.estimate == moved


class TestWindowCloseMoments:
    """A window close computes the fix's mean once and its spread once,
    and hands both to every consumer (watchdog, fix, residual test,
    ``last_fix_std_m``)."""

    def defended_close(self, pdf_table, monkeypatch, position_filter=None):
        est = PositionEstimator(
            LocalizationMode.RF_ONLY,
            AREA,
            pdf_table=pdf_table,
            position_filter=position_filter,
            watchdog=True,
            anchor_expiry_s=60.0,
        )
        calls = {"estimate": 0, "covariance": 0}
        filt = est.filter

        def spy(name):
            original = getattr(filt, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(filt, name, counted)

        spy("estimate")
        if hasattr(filt, "covariance"):
            spy("covariance")
        model = PathLossModel()
        true = Vec2(90.0, 110.0)
        est.on_window_open()
        for anchor_id, offset in enumerate(
            [(-20, 0), (18, 6), (0, 25), (-8, -20), (12, -12)]
        ):
            anchor = Vec2(true.x + offset[0], true.y + offset[1])
            rssi = float(model.mean_rssi(anchor.distance_to(true)))
            est.on_beacon(anchor, rssi, anchor_id=anchor_id, t=1.0)
        assert calls == {"estimate": 0, "covariance": 0}
        est.on_window_close()
        return est, calls

    def test_grid_filter_moments_computed_once(self, pdf_table, monkeypatch):
        est, calls = self.defended_close(pdf_table, monkeypatch)
        assert est.fixes == 1
        assert calls["estimate"] <= 1
        assert calls["covariance"] <= 1
        # The shared moments are the ones the filter reports on its own.
        filt = est.filter
        assert est.estimate == filt.estimate()
        assert est.last_fix_std_m == filt.position_std_m()
        # The residual test ran on that confident fix.
        assert est.last_fix_std_m <= est.RESIDUAL_MAX_FIX_STD_M
        assert est._window_beacons == []

    def test_particle_filter_mean_computed_once(self, pdf_table, monkeypatch):
        from repro.core.particle import ParticleFilter

        filt = ParticleFilter(AREA, RandomStreams(9).get("pf"))
        est, calls = self.defended_close(pdf_table, monkeypatch, filt)
        assert est.fixes == 1
        assert calls["estimate"] <= 1
        assert est.estimate == filt.estimate()
        assert est.last_fix_std_m == filt.position_std_m()
