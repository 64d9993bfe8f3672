"""Unit tests for the grid Bayesian filter (Equations 1-3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: Beacons fed in order by the moment-memo tests: a consistent fix.
MEMO_BEACONS = (
    (Vec2(80.0, 90.0), -62.0),
    (Vec2(120.0, 95.0), -66.0),
    (Vec2(100.0, 125.0), -64.0),
    (Vec2(60.0, 140.0), -71.0),
)


def _moments_hex(filt):
    mean = filt.estimate()
    return (mean.x.hex(), mean.y.hex(), filt.position_std_m().hex())


def _fed(area, pdf_table, beacons):
    filt = GridBayesFilter(area, 2.0)
    for beacon, rssi in beacons:
        filt.apply_beacon(beacon, rssi, pdf_table)
    return filt


class TestMomentMemo:
    """The mean and spread are memoised per posterior state: every write
    clears them, so a filter read between writes reports exactly what a
    fresh filter fed the same sequence reports."""

    def test_apply_beacon_clears_memo(self, area, pdf_table):
        filt = GridBayesFilter(area, 2.0)
        for k, (beacon, rssi) in enumerate(MEMO_BEACONS, start=1):
            _moments_hex(filt)
            filt.apply_beacon(beacon, rssi, pdf_table)
            fresh = _fed(area, pdf_table, MEMO_BEACONS[:k])
            assert _moments_hex(filt) == _moments_hex(fresh)

    def test_annihilation_restart_clears_memo(self, area, pdf_table):
        # The constraint fields carry a density floor, so no beacon
        # sequence drives a normalized posterior's mass to zero; zero it
        # directly, as a poisoned posterior would, to take the restart.
        def annihilate(filt):
            filt._posterior.fill(0.0)
            filt.apply_beacon(Vec2(50.0, 50.0), -70.0, pdf_table)

        filt = _fed(area, pdf_table, MEMO_BEACONS)
        _moments_hex(filt)
        annihilate(filt)
        assert filt.annihilations == 1
        fresh = _fed(area, pdf_table, MEMO_BEACONS)
        annihilate(fresh)
        assert _moments_hex(filt) == _moments_hex(fresh)

    def test_reset_uniform_clears_memo(self, area, pdf_table):
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        _moments_hex(filt)
        filt.reset_uniform()
        assert _moments_hex(filt) == _moments_hex(GridBayesFilter(area, 2.0))

    def test_restore_state_clears_memo(self, area, pdf_table):
        saved = _fed(area, pdf_table, MEMO_BEACONS[:2]).snapshot_state()
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        _moments_hex(filt)
        filt.restore_state(saved, pdf_table)
        fresh = _fed(area, pdf_table, MEMO_BEACONS[:2])
        assert _moments_hex(filt) == _moments_hex(fresh)

    def test_second_read_does_not_recompute(
        self, area, pdf_table, monkeypatch
    ):
        calls = []
        spread_about = GridBayesFilter._spread_about

        def counting(self, mean):
            calls.append(mean)
            return spread_about(self, mean)

        monkeypatch.setattr(GridBayesFilter, "_spread_about", counting)
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        # A window close reads the mean, then the spread about it ...
        fix = filt.estimate()
        std_m = filt.position_std_m(fix)
        assert len(calls) == 1
        # ... and a later read of the same posterior reuses both.
        assert filt.estimate() is fix
        assert filt.position_std_m() == std_m
        assert filt.position_std_m(fix) == std_m
        assert len(calls) == 1
        # A spread about another point is computed, and not kept.
        assert filt.position_std_m(Vec2(0.0, 0.0)) > std_m
        assert filt.position_std_m() == std_m
        assert len(calls) == 2

    def test_snapshot_carries_no_memo(self, area, pdf_table):
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        _moments_hex(filt)
        state = filt.snapshot_state()
        assert set(state) == {"grid_signature", "evidence"}


def _meshgrid(area, shape):
    ny, nx = shape
    return np.meshgrid(
        area.x_min + (np.arange(nx) + 0.5) * (area.width / nx),
        area.y_min + (np.arange(ny) + 0.5) * (area.height / ny),
    )


def _with_posterior(filt, posterior):
    """Set the posterior directly (no beacon sequence reaches an
    arbitrary mass grid), clearing the moment memo as a write does."""
    np.copyto(filt._posterior, posterior)
    filt._forget_moments()
    return filt


def _oracle_mean(posterior, cell_x, cell_y):
    """Equation (3) over full meshgrids."""
    return Vec2(
        float((posterior * cell_x).sum()), float((posterior * cell_y).sum())
    )


def _oracle_std(posterior, cell_x, cell_y, about):
    """sqrt of the covariance trace about ``about``, over full meshgrids."""
    dx = cell_x - about.x
    dy = cell_y - about.y
    cxx = float((posterior * dx * dx).sum())
    cyy = float((posterior * dy * dy).sum())
    return float(np.sqrt(max(cxx + cyy, 0.0)))


def _hex(value):
    return value.x.hex(), value.y.hex()


class TestAxisGeometry:
    """The filter keeps its cell centres as two broadcast axes.  On a
    square area both axes are the same array, so a mix-up between them
    would pass every square-area check; this grid is neither square nor
    anchored at the origin.  The meshgrid formulas are the bit-for-bit
    oracle for every per-cell field and moment."""

    AREA = Rect(-30.0, 10.0, 170.0, 90.0)

    def test_fields_match_meshgrid_formulas(self):
        filt = GridBayesFilter(self.AREA, 2.0)
        ny, nx = filt.shape
        assert (ny, nx) == (40, 100)
        cell_x, cell_y = _meshgrid(self.AREA, (ny, nx))
        rng = np.random.default_rng(2024)
        for _ in range(10):
            posterior = rng.random((ny, nx)) ** 4
            posterior /= posterior.sum()
            _with_posterior(filt, posterior)

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

            mean = _oracle_mean(posterior, cell_x, cell_y)
            assert filt.estimate() == mean
            std = _oracle_std(posterior, cell_x, cell_y, mean)
            assert filt.position_std_m() == std
            assert filt.position_std_m(Vec2(mean.x, mean.y)) == std
            # A spread about a point that is not the mean.
            assert filt.position_std_m(beacon) == _oracle_std(
                posterior, cell_x, cell_y, beacon
            )

            idx = np.unravel_index(int(np.argmax(posterior)), (ny, nx))
            assert filt.mode() == Vec2(
                float(cell_x[idx]), float(cell_y[idx])
            )

    @pytest.mark.parametrize("posterior_kind", ["random", "zeros", "uniform"])
    def test_square_grid_moments_match_meshgrid(self, area, posterior_kind):
        filt = GridBayesFilter(area, 2.0)
        assert filt.shape == (100, 100)
        cell_x, cell_y = _meshgrid(area, filt.shape)
        rng = np.random.default_rng(7)
        if posterior_kind == "uniform":
            posterior = np.full(filt.shape, 1.0 / filt.posterior.size)
        else:
            posterior = rng.random(filt.shape) ** 8
            if posterior_kind == "zeros":
                # Exact zeros, as a far-off ring's underflowed cells hold.
                posterior[:, :37] = 0.0
                posterior[60:, :] = 0.0
            posterior /= posterior.sum()
        _with_posterior(filt, posterior)
        mean = _oracle_mean(posterior, cell_x, cell_y)
        assert _hex(filt.estimate()) == _hex(mean)
        std = _oracle_std(posterior, cell_x, cell_y, mean)
        assert filt.position_std_m().hex() == std.hex()
        elsewhere = Vec2(13.25, 181.5)
        assert filt.position_std_m(elsewhere).hex() == _oracle_std(
            posterior, cell_x, cell_y, elsewhere
        ).hex()
        if posterior_kind == "uniform":
            assert _hex(filt.estimate()) == _hex(
                GridBayesFilter(area, 2.0).estimate()
            )


class TestMomentOracleProperty:
    """For random posteriors and points the moments equal the meshgrid
    oracle exactly (compared as ``float.hex``)."""

    @given(
        posterior_seed=st.integers(min_value=0, max_value=2**32 - 1),
        power=st.sampled_from([1, 4, 16]),
        shape=st.sampled_from([(5, 7), (40, 100), (100, 100)]),
        px=st.floats(min_value=-100.0, max_value=300.0),
        py=st.floats(min_value=-100.0, max_value=300.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_moments_equal_oracle(self, posterior_seed, power, shape, px, py):
        ny, nx = shape
        area = Rect(-20.0, 5.0, -20.0 + 2.0 * nx, 5.0 + 2.0 * ny)
        filt = GridBayesFilter(area, 2.0)
        assert filt.shape == shape
        cell_x, cell_y = _meshgrid(area, shape)
        posterior = np.random.default_rng(posterior_seed).random(shape) ** power
        posterior /= posterior.sum()
        _with_posterior(filt, posterior)
        mean = _oracle_mean(posterior, cell_x, cell_y)
        assert _hex(filt.estimate()) == _hex(mean)
        point = Vec2(px, py)
        assert filt.position_std_m(point).hex() == _oracle_std(
            posterior, cell_x, cell_y, point
        ).hex()
        assert filt.position_std_m().hex() == _oracle_std(
            posterior, cell_x, cell_y, mean
        ).hex()


def _masked_entropy(posterior):
    """Entropy over the positive cells only, as a masked copy."""
    p = posterior[posterior > 0]
    return float(-(p * np.log2(p)).sum())


class TestEntropy:
    """The entropy sums over the whole grid without a masked copy; it
    equals the masked sum bit for bit (compared as ``float.hex``)."""

    def test_random_posterior_matches_masked_sum(self, area):
        filt = GridBayesFilter(area, 2.0)
        posterior = np.random.default_rng(11).random(filt.shape) ** 4
        posterior /= posterior.sum()
        assert (posterior > 0).all()
        _with_posterior(filt, posterior)
        assert filt.entropy_bits().hex() == _masked_entropy(posterior).hex()

    def test_exact_zero_cells_fall_back_to_masked_sum(self, area):
        filt = GridBayesFilter(area, 2.0)
        posterior = np.random.default_rng(12).random(filt.shape) ** 4
        posterior[:, :41] = 0.0
        posterior[70:, :] = 0.0
        posterior /= posterior.sum()
        _with_posterior(filt, posterior)
        bits = filt.entropy_bits()
        assert np.isfinite(bits)
        assert bits.hex() == _masked_entropy(posterior).hex()

    def test_fed_posterior_matches_masked_sum(self, area, pdf_table):
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        assert filt.entropy_bits().hex() == _masked_entropy(
            filt.posterior
        ).hex()


class TestEvidence:
    """The filter keeps the beacons applied since the last reset; a
    snapshot carries them and a restore replays them bit for bit."""

    def test_evidence_follows_applies_and_resets(self, area, pdf_table):
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        assert filt.snapshot_state()["evidence"] == tuple(
            (beacon.x, beacon.y, rssi) for beacon, rssi in MEMO_BEACONS
        )
        filt.reset_uniform()
        assert filt.snapshot_state()["evidence"] == ()

    def test_restore_replays_into_a_restored_filter(self, area, pdf_table):
        original = _fed(area, pdf_table, MEMO_BEACONS)
        once = GridBayesFilter(area, 2.0)
        once.restore_state(original.snapshot_state(), pdf_table)
        twice = GridBayesFilter(area, 2.0)
        twice.restore_state(once.snapshot_state(), pdf_table)
        for filt in (once, twice):
            assert filt.posterior.tobytes() == original.posterior.tobytes()
            assert filt.beacons_applied == original.beacons_applied
            assert _moments_hex(filt) == _moments_hex(original)
            assert filt.entropy_bits().hex() == (
                original.entropy_bits().hex()
            )

    def test_snapshot_without_evidence_is_refused(self, area, pdf_table):
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        state = {
            "grid_signature": filt.grid_signature,
            "posterior": np.array(filt.posterior),
            "beacons_applied": filt.beacons_applied,
            "annihilations": filt.annihilations,
        }
        fresh = GridBayesFilter(area, 2.0)
        with pytest.raises(ValueError, match="no evidence"):
            fresh.restore_state(state, pdf_table)
        assert fresh.beacons_applied == 0
        with pytest.raises(ValueError, match="geometry"):
            GridBayesFilter(Rect.square(100.0), 2.0).restore_state(
                filt.snapshot_state(), pdf_table
            )


class _TruncatedTable:
    """The fixture's table with every density zero past ``cutoff_m``.

    The real table's uniform floor keeps some mass in every cell, so no
    beacon sequence annihilates its posterior.  Here two beacons that
    each put the robot within ``cutoff_m`` of opposite corners leave no
    mass anywhere, so the second one annihilates through its evidence
    alone, and a replay takes the same restart.
    """

    def __init__(self, table, cutoff_m):
        self._table = table
        self._cutoff = int(table.lut_index_for(np.array([cutoff_m]))[0])

    def __getattr__(self, name):
        return getattr(self._table, name)

    def pdf_from_index(self, key, index):
        field = self._table.pdf_from_index(key, index)
        field[index > self._cutoff] = 0.0
        return field


def _parking_scenario(area, pdf_table, kind):
    """Two filters fed the same round (``kind``), the table it used,
    and the beacon that continues it."""
    if kind == "annihilated":
        table = _TruncatedTable(pdf_table, 40.0)
        beacons = [
            (Vec2(20.0, 20.0), -60.0),
            (Vec2(180.0, 180.0), -60.0),
            (Vec2(170.0, 150.0), -66.0),
        ]
    else:
        table, beacons = pdf_table, list(MEMO_BEACONS)
    pair = []
    for _ in range(2):
        filt = GridBayesFilter(area, 2.0)
        for beacon, rssi in beacons:
            filt.apply_beacon(beacon, rssi, table)
        pair.append(filt)
    if kind == "annihilated":
        assert pair[0].annihilations == 1
    return pair[0], pair[1], table, (Vec2(150.0, 170.0), -64.0)


def _memo_readout(filt):
    """What a parked filter answers from its memo: the mean, the spread
    about it, the entropy and the counters, as bits."""
    mean = filt.estimate()
    return (
        mean.x.hex(), mean.y.hex(), filt.position_std_m(mean).hex(),
        filt.position_std_m().hex(), filt.entropy_bits().hex(),
        filt.beacons_applied, filt.annihilations, filt.snapshot_state(),
        filt.shape, filt.grid_signature,
    )


def _grid_readout(filt):
    """What needs the grid: the posterior bytes, the MAP cell, the
    spread about another point and the degeneracy probe."""
    mode = filt.mode()
    return (
        filt.posterior.tobytes(), mode.x.hex(), mode.y.hex(),
        filt.position_std_m(Vec2(10.0, 20.0)).hex(), filt.is_degenerate(),
    )


class TestParking:
    """A parked filter answers every read and takes every write with the
    bits of a twin that never parked."""

    @pytest.mark.parametrize("kind", ["fed", "annihilated"])
    def test_parked_reads_match_an_unparked_twin(self, area, pdf_table, kind):
        parked, twin, table, _ = _parking_scenario(area, pdf_table, kind)
        parked.park(table)
        assert parked.parked and not twin.parked
        assert _memo_readout(parked) == _memo_readout(twin)
        # The memo answered; nothing rebuilt the grid.
        assert parked.parked
        assert _grid_readout(parked) == _grid_readout(twin)
        assert not parked.parked
        assert _memo_readout(parked) == _memo_readout(twin)

    @pytest.mark.parametrize("kind", ["fed", "annihilated"])
    def test_apply_beacon_on_a_parked_filter_continues(
        self, area, pdf_table, kind
    ):
        parked, twin, table, (beacon, rssi) = _parking_scenario(
            area, pdf_table, kind
        )
        parked.park(table)
        for filt in (parked, twin):
            filt.apply_beacon(beacon, rssi, table)
        assert not parked.parked
        assert _memo_readout(parked) == _memo_readout(twin)
        assert _grid_readout(parked) == _grid_readout(twin)

    @pytest.mark.parametrize("kind", ["fed", "annihilated"])
    def test_reset_uniform_on_a_parked_filter_allocates_the_prior(
        self, area, pdf_table, kind
    ):
        parked, twin, table, (beacon, rssi) = _parking_scenario(
            area, pdf_table, kind
        )
        parked.park(table)
        for filt in (parked, twin):
            filt.reset_uniform()
        assert not parked.parked
        assert _memo_readout(parked) == _memo_readout(twin)
        assert (
            parked.posterior.tobytes()
            == GridBayesFilter(area, 2.0).posterior.tobytes()
        )
        for filt in (parked, twin):
            for beacon_, rssi_ in MEMO_BEACONS:
                filt.apply_beacon(beacon_, rssi_, pdf_table)
        assert _memo_readout(parked) == _memo_readout(twin)
        assert _grid_readout(parked) == _grid_readout(twin)

    def test_park_computes_each_moment_once(
        self, area, pdf_table, monkeypatch
    ):
        calls = []
        spread_about = GridBayesFilter._spread_about

        def counting(self, mean):
            calls.append(mean)
            return spread_about(self, mean)

        monkeypatch.setattr(GridBayesFilter, "_spread_about", counting)
        filt = _fed(area, pdf_table, MEMO_BEACONS)
        fix = filt.estimate()
        std_m = filt.position_std_m(fix)
        filt.park(pdf_table)
        entropy = filt.entropy_bits()
        # A memoised float comes back as the same object.
        assert filt.entropy_bits() is entropy
        filt.posterior  # the replay rebuilds the grid, not the memo
        assert filt.estimate() is fix
        assert filt.position_std_m() == std_m
        assert filt.entropy_bits() is entropy
        assert len(calls) == 1
        filt.park(pdf_table)
        filt.park(pdf_table)   # parking a parked filter does nothing
        assert filt.estimate() is fix
        assert len(calls) == 1

    def test_estimator_watchdog_reset_then_park(self, area, pdf_table):
        """A close whose posterior the watchdog resets parks the prior."""
        from repro.core.config import LocalizationMode
        from repro.core.estimator import PositionEstimator

        pair = []
        for _ in range(2):
            est = PositionEstimator(
                LocalizationMode.RF_ONLY, area, pdf_table, watchdog=True
            )
            est.on_window_open()
            for beacon, rssi in MEMO_BEACONS:
                est.on_beacon(beacon, rssi)
            est.filter._posterior.fill(np.nan)
            est.on_window_close()
            assert est.watchdog_resets == 1
            pair.append(est)
        parked, twin = (est.filter for est in pair)
        parked.park(pdf_table)
        assert _memo_readout(parked) == _memo_readout(twin)
        assert parked.parked
        assert _grid_readout(parked) == _grid_readout(twin)


class TestLeastSquaresOracle:
    """An estimator-independent oracle: with only near-regime Gaussian
    beacons and no motion, each beacon's constraint is a Gaussian in
    range, so the posterior's peak is the σ-weighted nonlinear
    least-squares trilateration of the bins' mean ranges (the range-only
    formulation behind DCL-Sparse, arXiv 2412.14793).  The grid's MAP
    cell must land within one cell of it."""

    NEAR_M = 40.0

    def test_mode_matches_weighted_trilateration(self, area, pdf_table):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
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
