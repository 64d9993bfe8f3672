"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bayes import GridBayesFilter
from repro.core.clock import DriftingClock
from repro.core.pdf_table import DistanceDistribution
from repro.mobility.base import ScriptedMobility
from repro.mobility.dead_reckoning import DeadReckoning
from repro.mobility.odometry import OdometryReading
from repro.multicast.lifetime import Kinematics, predict_link_lifetime
from repro.net.phy import PathLossModel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2, clamp, normalize_angle
from repro.util.units import dbm_to_mw, mw_to_dbm

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coords = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)
angles = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestGeometryProperties:
    @given(coords, coords, coords, coords)
    def test_distance_symmetry_and_nonnegativity(self, ax, ay, bx, by):
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert a.distance_to(b) >= 0.0
        assert a.distance_to(b) == b.distance_to(a)

    @given(coords, coords, coords, coords, coords, coords)
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Vec2(ax, ay), Vec2(bx, by), Vec2(cx, cy)
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(angles)
    def test_normalize_angle_in_range(self, angle):
        result = normalize_angle(angle)
        assert -math.pi < result <= math.pi + 1e-12

    @given(angles)
    def test_normalize_angle_preserves_direction(self, angle):
        result = normalize_angle(angle)
        assert math.cos(result) == pytest_approx(math.cos(angle))
        assert math.sin(result) == pytest_approx(math.sin(angle))

    @given(coords, coords, angles)
    def test_rotation_preserves_norm(self, x, y, angle):
        v = Vec2(x, y)
        assert v.rotated(angle).norm() == pytest_approx(v.norm(), abs_tol=1e-6)

    @given(finite, st.floats(-100, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
    def test_clamp_within_bounds(self, value, low, width):
        high = low + width
        result = clamp(value, low, high)
        assert low <= result <= high


def pytest_approx(expected, abs_tol=1e-9):
    import pytest

    return pytest.approx(expected, abs=max(abs_tol, abs(expected) * 1e-9))


class TestUnitsProperties:
    @given(st.floats(min_value=-150.0, max_value=60.0, allow_nan=False))
    def test_dbm_roundtrip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest_approx(dbm, abs_tol=1e-9)

    @given(
        st.floats(min_value=-150.0, max_value=60.0),
        st.floats(min_value=-150.0, max_value=60.0),
    )
    def test_dbm_monotone(self, a, b):
        # Require a meaningful gap: adjacent floats can collapse in 10**x.
        if a + 1e-9 < b:
            assert dbm_to_mw(a) < dbm_to_mw(b)


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=40))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=30))
    def test_identical_times_fifo(self, tags):
        sim = Simulator()
        fired = []
        for tag in tags:
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == tags


class TestPathLossProperties:
    @given(
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=1.0, max_value=200.0),
    )
    def test_mean_rssi_monotone_decreasing(self, d1, d2):
        model = PathLossModel()
        if d1 < d2:
            assert model.mean_rssi(d1) >= model.mean_rssi(d2)

    @given(st.floats(min_value=-120.0, max_value=-33.0))
    def test_distance_inverse_consistent(self, rssi):
        model = PathLossModel()
        d = model.distance_for_mean_rssi(rssi)
        assert d >= 1.0
        if d > 1.0:
            assert model.mean_rssi(d) == pytest_approx(rssi, abs_tol=1e-6)


class TestGeneratorStreamProperties:
    """The RNG identities the channel's batched RSSI draw rests on: a PCG64
    ``Generator`` consumes its stream identically whether values are
    drawn one at a time, in chunks, or in one batch (see
    :meth:`repro.net.phy.PathLossModel.sample_rssi_batch`)."""

    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @given(seeds, st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_k_sequential_size_one_normals_equal_one_size_k_draw(
        self, seed, k
    ):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        sequential = np.concatenate(
            [a.normal(0.0, 1.0, size=1) for _ in range(k)]
        )
        batch = b.normal(0.0, 1.0, size=k)
        assert sequential.tobytes() == batch.tobytes()
        # The streams stay in lockstep afterwards, too: the draws
        # consumed exactly the same generator state.
        assert a.random() == b.random()

    @given(
        seeds,
        st.lists(
            st.integers(min_value=1, max_value=16),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_chunked_normals_equal_one_batch(self, seed, chunks):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        chunked = np.concatenate(
            [a.normal(0.0, 1.0, size=c) for c in chunks]
        )
        batch = b.normal(0.0, 1.0, size=sum(chunks))
        assert chunked.tobytes() == batch.tobytes()
        assert a.random() == b.random()

    @given(seeds, st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_scalar_draws_equal_size_one_draws(self, seed, k):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for _ in range(k):
            # Interleave the two draw kinds the scalar RSSI path uses.
            assert a.normal(0.0, 1.0) == b.normal(0.0, 1.0, size=1)[0]
            assert a.random() == b.random(size=1)[0]
        assert a.normal(0.0, 1.0) == b.normal(0.0, 1.0)


class TestPdfProperties:
    @given(
        st.floats(min_value=1.0, max_value=150.0),
        st.floats(min_value=0.1, max_value=40.0),
    )
    @settings(max_examples=30)
    def test_gaussian_pdf_nonnegative_everywhere(self, mean, std):
        dist = DistanceDistribution.gaussian(mean, std, 180.0)
        xs = np.linspace(0.0, 250.0, 200)
        assert np.all(dist.pdf(xs) > 0.0)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20)
    def test_histogram_fit_integrates_to_one(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(45.0, 170.0, size=400)
        dist = DistanceDistribution.from_samples(samples, 180.0)
        xs = np.linspace(0.0, 180.0, 3000)
        integral = float(np.trapezoid(dist.pdf(xs), xs))
        assert 0.9 < integral < 1.1


class TestBayesFilterProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=200.0),
                st.floats(min_value=0.0, max_value=200.0),
                st.floats(min_value=-92.0, max_value=-40.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_posterior_always_a_distribution(self, beacons, ):
        from repro.core.calibration import build_pdf_table

        table = _cached_table()
        filt = GridBayesFilter(Rect.square(200.0), 4.0)
        for x, y, rssi in beacons:
            filt.apply_beacon(Vec2(x, y), rssi, table)
        post = filt.posterior
        assert np.all(post >= 0.0)
        assert float(post.sum()) == pytest_approx(1.0, abs_tol=1e-9)
        estimate = filt.estimate()
        assert Rect.square(200.0).contains(estimate)


_TABLE_CACHE = {}


def _cached_table():
    if "table" not in _TABLE_CACHE:
        from repro.core.calibration import build_pdf_table

        _TABLE_CACHE["table"] = build_pdf_table(
            PathLossModel(),
            RandomStreams(77).get("cal"),
            n_samples=30_000,
        ).table
    return _TABLE_CACHE["table"]


class TestDeadReckoningProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=-math.pi, max_value=math.pi),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_position_displacement_bounded_by_distance(self, increments):
        reckoner = DeadReckoning(Vec2(0, 0), 0.0)
        start = reckoner.position
        total = 0.0
        for i, (dist, turn) in enumerate(increments):
            reckoner.advance(
                OdometryReading(float(i), float(i + 1), dist, turn)
            )
            total += dist
        assert reckoner.position.distance_to(start) <= total + 1e-9
        assert -math.pi < reckoner.heading <= math.pi + 1e-12


class TestClockProperties:
    @given(
        st.floats(min_value=-0.05, max_value=0.05),
        st.floats(min_value=0.0, max_value=1e5),
    )
    def test_local_true_roundtrip(self, rate, t):
        clock = DriftingClock(rate)
        assert clock.true_time_of(clock.local_time(t)) == pytest_approx(
            t, abs_tol=1e-6
        )

    @given(
        st.floats(min_value=-0.02, max_value=0.02),
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e3),
    )
    def test_offset_bounded_by_rate(self, rate, sync_at, elapsed):
        clock = DriftingClock(rate)
        clock.synchronize(sync_at, sync_at)
        offset = clock.offset(sync_at + elapsed)
        assert abs(offset) <= abs(rate) * elapsed + 1e-9


class TestLinkLifetimeProperties:
    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0, max_value=500),
        st.floats(min_value=0, max_value=500),
    )
    @settings(max_examples=60)
    def test_lifetime_nonnegative_and_bounded(self, bx, by, vx, vy, ta, tb):
        a = Kinematics(Vec2(0, 0), Vec2(0, 0), ta, 0.0)
        b = Kinematics(Vec2(bx, by), Vec2(vx, vy), tb, 0.0)
        lifetime = predict_link_lifetime(a, b, 100.0, max_horizon_s=600.0)
        assert 0.0 <= lifetime <= 600.0

    @given(
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=-80, max_value=80),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=60)
    def test_lifetime_symmetric(self, bx, by, vx, vy):
        a = Kinematics(Vec2(0, 0), Vec2(1.0, -0.5), 300.0, 10.0)
        b = Kinematics(Vec2(bx, by), Vec2(vx, vy), 200.0, 5.0)
        f = predict_link_lifetime(a, b, 100.0)
        g = predict_link_lifetime(b, a, 100.0)
        assert f == pytest_approx(g, abs_tol=1e-6)


class TestMobilityProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_waypoint_robot_always_inside_area(self, seed):
        from repro.mobility.waypoint import WaypointMobility

        area = Rect.square(200.0)
        mob = WaypointMobility(
            area, RandomStreams(seed).get("m"), v_max=2.0
        )
        for t in range(0, 900, 37):
            assert area.contains(mob.position(float(t)), tolerance=1e-6)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.2, max_value=2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_waypoint_speed_never_exceeds_vmax(self, seed, v_max):
        from repro.mobility.waypoint import WaypointMobility

        area = Rect.square(200.0)
        mob = WaypointMobility(
            area, RandomStreams(seed).get("m"), v_min=0.1, v_max=v_max
        )
        for t in range(0, 600, 23):
            assert mob.speed(float(t)) <= v_max + 1e-9


class TestWatchdogProperties:
    """However a round's evidence breaks the posterior, the watchdog
    must leave behind a normalized distribution and an unchanged
    estimate — never a junk fix."""

    @given(
        poison=st.one_of(
            st.sampled_from([0.0, float("inf"), float("nan"), -1.0]),
            st.floats(min_value=1e-12, max_value=1e9),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_watchdog_restores_normalized_posterior(self, poison, pdf_table):
        from repro.core.config import LocalizationMode
        from repro.core.estimator import PositionEstimator

        est = PositionEstimator(
            LocalizationMode.RF_ONLY,
            Rect.square(100.0),
            pdf_table=pdf_table,
            min_beacons_for_fix=1,
            watchdog=True,
        )
        before = est.estimate
        est.on_window_open()
        est.filter._posterior.fill(poison)
        degenerate = est.filter.is_degenerate()
        est.on_window_close()
        if degenerate:
            assert est.watchdog_resets == 1
            assert est.fixes == 0
            assert est.estimate == before
            posterior = est.filter.posterior
            assert np.isfinite(posterior).all()
            assert float(posterior.sum()) == pytest_approx(1.0)
            # The reset is the uniform prior, not some other salvage.
            assert float(posterior.max()) == pytest_approx(
                float(posterior.min())
            )
        else:
            # A uniform fill that happens to normalize is a legitimate
            # (if uninformative) distribution; no reset, no crash.
            assert est.watchdog_resets == 0
