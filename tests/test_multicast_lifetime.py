"""Unit tests for link-lifetime prediction and flooding helpers."""

import math

import pytest

from repro.mobility.base import ScriptedMobility, StationaryMobility
from repro.mobility.waypoint import WaypointMobility
from repro.multicast.flooding import CopyCounter, DuplicateCache
from repro.multicast.lifetime import (
    Kinematics,
    kinematics_of,
    predict_link_lifetime,
)
from repro.sim.rng import RandomStreams
from repro.util.geometry import Rect, Vec2


def kin(x, y, vx=0.0, vy=0.0, tta=100.0, rest=0.0):
    return Kinematics(Vec2(x, y), Vec2(vx, vy), tta, rest)


class TestPredictLinkLifetime:
    def test_out_of_range_link_is_dead(self):
        assert predict_link_lifetime(kin(0, 0), kin(200, 0), 100.0) == 0.0

    def test_static_pair_lives_for_horizon(self):
        a = kin(0, 0, tta=0.0, rest=50.0)
        b = kin(10, 0, tta=0.0, rest=80.0)
        # Both resting: velocity valid for min(50, 80) = 50 s.
        assert predict_link_lifetime(a, b, 100.0) == pytest.approx(50.0)

    def test_separating_pair_breaks_at_range(self):
        # b moves away at 2 m/s from 20 m apart; range 100 m:
        # separation hits 100 m after (100-20)/2 = 40 s.
        a = kin(0, 0, tta=1000.0)
        b = kin(20, 0, vx=2.0, tta=1000.0)
        assert predict_link_lifetime(a, b, 100.0) == pytest.approx(40.0)

    def test_parallel_movers_never_separate(self):
        a = kin(0, 0, vx=1.5, tta=200.0)
        b = kin(30, 0, vx=1.5, tta=300.0)
        assert predict_link_lifetime(a, b, 100.0) == pytest.approx(200.0)

    def test_approaching_then_receding(self):
        # b approaches a, passes, then recedes: lifetime is the time for
        # the separation to grow back past R on the far side.
        a = kin(0, 0, tta=1000.0)
        b = kin(50, 0, vx=-2.0, tta=1000.0)
        # Position of b: 50 - 2t; separation |50-2t| = 100 at t = 75.
        assert predict_link_lifetime(a, b, 100.0) == pytest.approx(75.0)

    def test_horizon_caps_prediction(self):
        a = kin(0, 0, tta=10.0)
        b = kin(20, 0, vx=2.0, tta=1000.0)
        # Separation math says 40 s, but a's command expires at 10 s.
        assert predict_link_lifetime(a, b, 100.0) == pytest.approx(10.0)

    def test_max_horizon_caps_everything(self):
        a = kin(0, 0, tta=math.inf)
        b = kin(10, 0, tta=math.inf)
        assert predict_link_lifetime(a, b, 100.0, max_horizon_s=300.0) == (
            pytest.approx(300.0)
        )

    def test_nonpositive_range_rejected(self):
        with pytest.raises(ValueError):
            predict_link_lifetime(kin(0, 0), kin(1, 0), 0.0)

    def test_symmetry(self):
        a = kin(0, 0, vx=1.0, tta=500.0)
        b = kin(30, 10, vy=-2.0, tta=400.0)
        assert predict_link_lifetime(a, b, 90.0) == pytest.approx(
            predict_link_lifetime(b, a, 90.0)
        )


class TestKinematicsOf:
    def test_stationary_reports_zero_velocity(self):
        k = kinematics_of(StationaryMobility(Vec2(3, 4)), 10.0)
        assert k.position == Vec2(3, 4)
        assert k.velocity == Vec2.zero()
        assert k.rest_remaining == math.inf

    def test_waypoint_reports_velocity_and_horizon(self):
        area = Rect.square(200.0)
        mob = WaypointMobility(area, RandomStreams(4).get("m"), v_max=2.0)
        k = kinematics_of(mob, 0.0)
        pose = mob.pose(0.0)
        assert k.velocity.norm() == pytest.approx(pose.speed)
        assert k.time_to_waypoint == pytest.approx(mob.time_to_waypoint(0.0))

    def test_scripted_reports_time_to_each_waypoint(self):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)], speed=2.0
        )
        k = kinematics_of(mob, 1.0)
        assert k.velocity == Vec2(2.0, 0.0)
        assert k.time_to_waypoint == 4.0
        assert k.rest_remaining == 0.0
        k = kinematics_of(mob, 6.0)
        assert k.time_to_waypoint == 4.0
        # Past the last waypoint the robot rests for good.
        k = kinematics_of(mob, 12.0)
        assert k.position == Vec2(10, 10)
        assert k.velocity == Vec2.zero()
        assert k.time_to_waypoint == 0.0
        assert k.rest_remaining == math.inf

    def test_prediction_horizon_combines_travel_and_rest(self):
        k = kin(0, 0, tta=30.0, rest=20.0)
        assert k.prediction_horizon == pytest.approx(50.0)


class TestDuplicateCache:
    def test_first_sighting_is_new(self):
        cache = DuplicateCache()
        assert not cache.seen_before(1)
        assert cache.seen_before(1)

    def test_contains(self):
        cache = DuplicateCache()
        cache.seen_before(5)
        assert 5 in cache
        assert 6 not in cache

    def test_eviction_beyond_capacity(self):
        cache = DuplicateCache(capacity=3)
        for uid in (1, 2, 3, 4):
            cache.seen_before(uid)
        assert 1 not in cache
        assert 4 in cache
        assert len(cache) == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DuplicateCache(capacity=0)


class TestCopyCounter:
    def test_counts_increment(self):
        counter = CopyCounter()
        assert counter.record(1) == 1
        assert counter.record(1) == 2
        assert counter.count(1) == 2

    def test_unknown_is_zero(self):
        assert CopyCounter().count(99) == 0

    def test_eviction(self):
        counter = CopyCounter(capacity=2)
        counter.record(1)
        counter.record(2)
        counter.record(3)
        assert counter.count(1) == 0
        assert counter.count(3) == 1
