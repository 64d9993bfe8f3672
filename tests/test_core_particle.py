"""Unit tests for the particle-filter localization alternative."""

import numpy as np
import pytest

from repro.core.config import LocalizationFilter
from repro.core.estimator import PositionEstimator
from repro.core.config import LocalizationMode
from repro.core.particle import ParticleFilter
from repro.net.phy import PathLossModel
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2

AREA = Rect.square(200.0)


def make_filter(seed=1, **kwargs):
    return ParticleFilter(AREA, RandomStreams(seed).get("pf"), **kwargs)


class TestConstruction:
    def test_particles_start_uniform(self):
        filt = make_filter(n_particles=2000)
        particles = filt.particles
        assert particles.shape == (2000, 2)
        assert particles[:, 0].min() >= 0.0
        assert particles[:, 0].max() <= 200.0
        # Uniform: mean near center, spread near 200/sqrt(12).
        assert abs(particles[:, 0].mean() - 100.0) < 10.0
        assert abs(particles[:, 0].std() - 200.0 / np.sqrt(12)) < 8.0

    def test_initial_estimate_near_center(self):
        filt = make_filter()
        assert filt.estimate().distance_to(AREA.center) < 12.0

    def test_weights_normalized(self):
        filt = make_filter()
        assert filt.weights.sum() == pytest.approx(1.0)

    def test_initial_ess_is_n(self):
        filt = make_filter(n_particles=500)
        assert filt.effective_sample_size() == pytest.approx(500.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_filter(n_particles=5)


class TestBeaconUpdates:
    def test_triangulation(self, pdf_table):
        model = PathLossModel()
        true = Vec2(80.0, 120.0)
        filt = make_filter(n_particles=3000)
        anchors = [
            Vec2(60, 100), Vec2(110, 130), Vec2(75, 150), Vec2(95, 100),
        ]
        for anchor in anchors:
            rssi = float(model.mean_rssi(anchor.distance_to(true)))
            filt.apply_beacon(anchor, rssi, pdf_table)
        assert filt.estimate().distance_to(true) < 10.0
        assert filt.beacons_applied == 4

    def test_spread_shrinks_with_evidence(self, pdf_table):
        model = PathLossModel()
        rng = RandomStreams(3).get("x")
        true = Vec2(100.0, 100.0)
        filt = make_filter()
        before = filt.position_std_m()
        for _ in range(8):
            anchor = Vec2(
                float(rng.uniform(60, 140)), float(rng.uniform(60, 140))
            )
            rssi = float(
                model.sample_rssi(max(anchor.distance_to(true), 1.0), rng)
            )
            filt.apply_beacon(anchor, rssi, pdf_table)
        assert filt.position_std_m() < before

    def test_resampling_triggered(self, pdf_table):
        filt = make_filter()
        # Sharp, repeated evidence collapses the ESS and forces resampling.
        for _ in range(6):
            filt.apply_beacon(Vec2(100, 100), -50.0, pdf_table)
        assert filt.resamplings >= 1
        assert filt.weights.max() < 0.5

    def test_contradictory_evidence_recovers(self, pdf_table):
        filt = make_filter()
        for _ in range(30):
            filt.apply_beacon(Vec2(0, 0), -45.0, pdf_table)
            filt.apply_beacon(Vec2(200, 200), -45.0, pdf_table)
        assert np.isfinite(filt.weights.sum())
        assert filt.weights.sum() == pytest.approx(1.0)

    def test_reset_restores_uniform(self, pdf_table):
        filt = make_filter()
        filt.apply_beacon(Vec2(50, 50), -55.0, pdf_table)
        filt.reset_uniform()
        assert filt.beacons_applied == 0
        assert filt.position_std_m() > 50.0

    def test_particles_stay_inside_area(self, pdf_table):
        filt = make_filter()
        rng = RandomStreams(5).get("b")
        for _ in range(20):
            filt.apply_beacon(
                Vec2(float(rng.uniform(0, 200)), float(rng.uniform(0, 200))),
                float(rng.uniform(-90, -45)),
                pdf_table,
            )
            particles = filt.particles
            assert particles[:, 0].min() >= 0.0
            assert particles[:, 1].max() <= 200.0


class TestAgainstGrid:
    def test_comparable_accuracy_to_grid(self, pdf_table):
        """Particle and grid filters should agree on easy fixes."""
        from repro.core.bayes import GridBayesFilter

        model = PathLossModel()
        rng = RandomStreams(9).get("t")
        disagreements = []
        for trial in range(10):
            true = Vec2(
                float(rng.uniform(40, 160)), float(rng.uniform(40, 160))
            )
            grid = GridBayesFilter(AREA, 2.0)
            pf = make_filter(seed=trial, n_particles=3000)
            for _ in range(10):
                anchor = Vec2(
                    float(rng.uniform(0, 200)), float(rng.uniform(0, 200))
                )
                rssi = float(
                    model.sample_rssi(max(anchor.distance_to(true), 1.0), rng)
                )
                grid.apply_beacon(anchor, rssi, pdf_table)
                pf.apply_beacon(anchor, rssi, pdf_table)
            disagreements.append(
                grid.estimate().distance_to(pf.estimate())
            )
        assert float(np.mean(disagreements)) < 8.0

    def test_estimator_accepts_particle_filter(self, pdf_table):
        filt = make_filter()
        est = PositionEstimator(
            LocalizationMode.RF_ONLY,
            AREA,
            pdf_table=pdf_table,
            position_filter=filt,
        )
        assert est.filter is filt

    def test_team_runs_with_particle_filter(self, pdf_table):
        from repro.core.config import CoCoAConfig
        from repro.core.team import CoCoATeam

        config = CoCoAConfig(
            n_robots=12,
            n_anchors=6,
            beacon_period_s=30.0,
            duration_s=65.0,
            master_seed=3,
            localization_filter=LocalizationFilter.PARTICLE,
        )
        result = CoCoATeam(config, pdf_table=pdf_table).run()
        assert result.fixes > 0
        assert result.errors.shape[0] == 6
