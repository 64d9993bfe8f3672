"""Unit tests for the grid Bayesian filter (Equations 1-3)."""

import numpy as np
import pytest

from repro.core.bayes import GridBayesFilter
from repro.net.phy import PathLossModel
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2


@pytest.fixture()
def area():
    return Rect.square(200.0)


class TestGridGeometry:
    def test_grid_shape(self, area):
        filt = GridBayesFilter(area, 2.0)
        assert filt.shape == (100, 100)

    def test_posterior_normalized_at_start(self, area):
        filt = GridBayesFilter(area, 2.0)
        assert filt.posterior.sum() == pytest.approx(1.0)

    def test_uniform_prior_estimate_is_center(self, area):
        filt = GridBayesFilter(area, 2.0)
        estimate = filt.estimate()
        assert estimate.x == pytest.approx(100.0)
        assert estimate.y == pytest.approx(100.0)

    def test_posterior_read_only(self, area):
        filt = GridBayesFilter(area, 2.0)
        with pytest.raises(ValueError):
            filt.posterior[0, 0] = 1.0

    def test_invalid_resolution_rejected(self, area):
        with pytest.raises(ValueError):
            GridBayesFilter(area, 0.0)
        with pytest.raises(ValueError):
            GridBayesFilter(area, 500.0)

    def test_non_square_area(self):
        filt = GridBayesFilter(Rect(0, 0, 100, 50), 2.0)
        assert filt.shape == (25, 50)
        est = filt.estimate()
        assert est.x == pytest.approx(50.0)
        assert est.y == pytest.approx(25.0)


class TestBeaconUpdates:
    def test_single_beacon_creates_ring(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        beacon = Vec2(100.0, 100.0)
        # RSSI whose table distance is ~20 m.
        rssi = -60.0
        expected_d = pdf_table.expected_distance(rssi)
        filt.apply_beacon(beacon, rssi, pdf_table)
        # The ring is symmetric around the beacon, so the estimate stays at
        # the beacon; most posterior mass sits on the annulus at the
        # table's expected distance.
        estimate = filt.estimate()
        assert estimate.distance_to(beacon) < 5.0
        post = filt.posterior
        ny, nx = filt.shape
        cell_x, cell_y = np.meshgrid(
            area.x_min + (np.arange(nx) + 0.5) * (area.width / nx),
            area.y_min + (np.arange(ny) + 0.5) * (area.height / ny),
        )
        dist = np.hypot(cell_x - beacon.x, cell_y - beacon.y)
        on_ring = np.abs(dist - expected_d) < 6.0
        assert float(post[on_ring].sum()) > 0.6

    def test_beacons_applied_counter(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        filt.apply_beacon(Vec2(50, 50), -60.0, pdf_table)
        filt.apply_beacon(Vec2(150, 50), -60.0, pdf_table)
        assert filt.beacons_applied == 2

    def test_reset_restores_uniform(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        filt.apply_beacon(Vec2(50, 50), -60.0, pdf_table)
        filt.reset_uniform()
        assert filt.beacons_applied == 0
        assert float(filt.posterior.std()) == pytest.approx(0.0, abs=1e-12)

    def test_posterior_stays_normalized(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        rng = RandomStreams(3).get("x")
        for _ in range(20):
            beacon = Vec2(
                float(rng.uniform(0, 200)), float(rng.uniform(0, 200))
            )
            filt.apply_beacon(beacon, float(rng.uniform(-90, -40)), pdf_table)
            assert filt.posterior.sum() == pytest.approx(1.0)
            assert np.all(filt.posterior >= 0)

    def test_triangulation_from_three_anchors(self, area, pdf_table):
        """Three rings around distinct anchors localize the robot — the
        paper's minimum-three-beacons rule."""
        model = PathLossModel()
        true = Vec2(80.0, 120.0)
        filt = GridBayesFilter(area, 2.0)
        anchors = [Vec2(60, 100), Vec2(110, 130), Vec2(75, 150)]
        for anchor in anchors:
            rssi = float(model.mean_rssi(anchor.distance_to(true)))
            filt.apply_beacon(anchor, rssi, pdf_table)
        assert filt.estimate().distance_to(true) < 8.0

    def test_more_beacons_tighten_posterior(self, area, pdf_table):
        model = PathLossModel()
        rng = RandomStreams(4).get("x")
        true = Vec2(100.0, 100.0)
        filt = GridBayesFilter(area, 2.0)
        spreads = []
        for i in range(12):
            anchor = Vec2(
                float(rng.uniform(60, 140)), float(rng.uniform(60, 140))
            )
            rssi = float(
                model.sample_rssi(max(anchor.distance_to(true), 1.0), rng)
            )
            filt.apply_beacon(anchor, rssi, pdf_table)
            spreads.append(filt.position_std_m())
        assert spreads[-1] < spreads[0]

    def test_annihilation_recovers_from_contradiction(self, area, pdf_table):
        """Grossly inconsistent beacons must not produce NaNs or crash."""
        filt = GridBayesFilter(area, 2.0)
        # Claim the robot is exactly 5 m from two anchors 200 m apart —
        # impossible; repeated updates drive the posterior toward zero.
        for _ in range(40):
            filt.apply_beacon(Vec2(0, 0), -45.0, pdf_table)
            filt.apply_beacon(Vec2(200, 200), -45.0, pdf_table)
        assert np.isfinite(filt.posterior.sum())
        assert filt.posterior.sum() == pytest.approx(1.0)

    def test_estimate_stays_inside_area(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        rng = RandomStreams(5).get("x")
        for _ in range(30):
            filt.apply_beacon(
                Vec2(float(rng.uniform(0, 200)), float(rng.uniform(0, 200))),
                float(rng.uniform(-92, -40)),
                pdf_table,
            )
            assert area.contains(filt.estimate())


class TestEstimators:
    def test_mode_near_mean_for_unimodal(self, area, pdf_table):
        model = PathLossModel()
        true = Vec2(100.0, 100.0)
        filt = GridBayesFilter(area, 2.0)
        for anchor in (Vec2(80, 90), Vec2(120, 95), Vec2(100, 125)):
            rssi = float(model.mean_rssi(anchor.distance_to(true)))
            filt.apply_beacon(anchor, rssi, pdf_table)
        assert filt.mode().distance_to(filt.estimate()) < 10.0

    def test_covariance_positive_semidefinite(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        filt.apply_beacon(Vec2(50, 50), -70.0, pdf_table)
        cov = filt.covariance()
        eigenvalues = np.linalg.eigvalsh(cov)
        assert np.all(eigenvalues >= -1e-9)
        assert cov[0, 1] == pytest.approx(cov[1, 0])

    def test_entropy_decreases_with_evidence(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        before = filt.entropy_bits()
        filt.apply_beacon(Vec2(100, 100), -55.0, pdf_table)
        assert filt.entropy_bits() < before

    def test_uniform_entropy_is_log_cells(self, area):
        filt = GridBayesFilter(area, 2.0)
        assert filt.entropy_bits() == pytest.approx(
            np.log2(100 * 100), rel=1e-6
        )


class TestAxisGeometry:
    """The filter keeps its cell centres as two broadcast axes.  On a
    square area both axes are the same array, so a mix-up between them
    would pass every square-area check; this grid is neither square nor
    anchored at the origin."""

    AREA = Rect(-30.0, 10.0, 170.0, 90.0)

    def test_fields_match_meshgrid_formulas(self):
        filt = GridBayesFilter(self.AREA, 2.0)
        ny, nx = filt.shape
        assert (ny, nx) == (40, 100)
        area = self.AREA
        cell_x, cell_y = np.meshgrid(
            area.x_min + (np.arange(nx) + 0.5) * (area.width / nx),
            area.y_min + (np.arange(ny) + 0.5) * (area.height / ny),
        )
        rng = np.random.default_rng(2024)
        for _ in range(10):
            posterior = rng.random((ny, nx)) ** 4
            posterior /= posterior.sum()
            state = filt.snapshot_state()
            state["posterior"] = posterior
            filt.restore_state(state)

            beacon = Vec2(
                float(rng.uniform(-60.0, 200.0)),
                float(rng.uniform(-20.0, 120.0)),
            )
            distances = np.subtract(cell_x, beacon.x)
            np.square(distances, out=distances)
            dy = np.subtract(cell_y, beacon.y)
            np.square(dy, out=dy)
            distances += dy
            np.sqrt(distances, out=distances)
            assert np.array_equal(
                filt.compute_distance_field(beacon), distances
            )
            out = np.empty((ny, nx))
            assert filt.compute_distance_field(beacon, out=out) is out
            assert np.array_equal(out, distances)

            x_hat = float((posterior * cell_x).sum())
            y_hat = float((posterior * cell_y).sum())
            assert filt.estimate() == Vec2(x_hat, y_hat)

            dx = cell_x - x_hat
            dy = cell_y - y_hat
            cxx = float((posterior * dx * dx).sum())
            cyy = float((posterior * dy * dy).sum())
            cxy = float((posterior * dx * dy).sum())
            covariance = np.array([[cxx, cxy], [cxy, cyy]])
            assert np.array_equal(filt.covariance(), covariance)
            assert np.array_equal(
                filt.covariance(Vec2(x_hat, y_hat)), covariance
            )
            std = float(np.sqrt(max(cxx + cyy, 0.0)))
            assert filt.position_std_m() == std
            assert filt.position_std_m(Vec2(x_hat, y_hat)) == std

            idx = np.unravel_index(int(np.argmax(posterior)), (ny, nx))
            assert filt.mode() == Vec2(
                float(cell_x[idx]), float(cell_y[idx])
            )


class TestLeastSquaresOracle:
    """An estimator-independent oracle: with only near-regime Gaussian
    beacons and no motion, each beacon's constraint is a Gaussian in
    range, so the posterior's peak is the σ-weighted nonlinear
    least-squares trilateration of the bins' mean ranges (the range-only
    formulation behind DCL-Sparse, arXiv 2412.14793).  The grid's MAP
    cell must land within one cell of it."""

    NEAR_M = 40.0

    @pytest.mark.parametrize("lut", [False, True])
    def test_mode_matches_weighted_trilateration(self, area, pdf_table, lut):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        pdf_table.set_lut(lut)
        model = PathLossModel()
        rng = np.random.default_rng(17)
        for _ in range(8):
            true = rng.uniform(60.0, 140.0, size=2)
            anchors, bins = [], []
            while len(anchors) < int(rng.integers(4, 8)):
                angle = rng.uniform(0.0, 2.0 * np.pi)
                offset = rng.uniform(5.0, self.NEAR_M)
                anchor = true + offset * np.array(
                    [np.cos(angle), np.sin(angle)]
                )
                rssi = float(model.mean_rssi(offset)) + rng.normal(0.0, 2.0)
                near = pdf_table.bin_for(rssi)
                if not near.is_gaussian or near.mean_m > self.NEAR_M:
                    continue
                anchors.append((anchor, rssi))
                bins.append(near)
            filt = GridBayesFilter(area, 2.0)
            for anchor, rssi in anchors:
                filt.apply_beacon(Vec2(*anchor), rssi, pdf_table)

            def residuals(p):
                return [
                    (np.hypot(*(p - anchor)) - near.mean_m)
                    / max(near.std_m, 0.25)
                    for (anchor, _), near in zip(anchors, bins)
                ]

            fit = least_squares(residuals, x0=true).x
            mode = filt.mode()
            cell = filt.resolution_m
            assert abs(mode.x - fit[0]) <= cell
            assert abs(mode.y - fit[1]) <= cell
