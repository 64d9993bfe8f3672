"""Unit tests for odometry sensing and dead reckoning."""

import math

import numpy as np
import pytest

from repro.mobility.base import ScriptedMobility, StationaryMobility
from repro.mobility.dead_reckoning import DeadReckoning
from repro.mobility.odometry import NOISE_BLOCK, OdometryNoise, OdometrySensor
from repro.mobility.waypoint import WaypointMobility
from repro.sim.rng import RandomStreams
from repro.sim.world import WorldState
from repro.util.geometry import Rect, Vec2, normalize_angle


@pytest.fixture()
def rng():
    return RandomStreams(3).get("odometry")


class TestOdometryNoise:
    def test_defaults_match_paper(self):
        noise = OdometryNoise()
        assert noise.displacement_std_per_s == pytest.approx(0.1)
        assert noise.angular_std_rad == pytest.approx(math.radians(10.0))

    def test_noiseless_factory(self):
        noise = OdometryNoise.noiseless()
        assert noise.displacement_std_per_s == 0.0
        assert noise.angular_std_rad == 0.0
        assert noise.heading_drift_std_rad_per_sqrt_s == 0.0

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            OdometryNoise(displacement_std_per_s=-0.1)
        with pytest.raises(ValueError):
            OdometryNoise(angular_std_rad=-0.1)
        with pytest.raises(ValueError):
            OdometryNoise(heading_drift_std_rad_per_sqrt_s=-0.1)
        with pytest.raises(ValueError):
            OdometryNoise(turn_threshold_rad=-0.1)


class TestOdometrySensor:
    def test_noiseless_straight_line(self, rng):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(100, 0)], speed=2.0)
        sensor = OdometrySensor(mob, rng, noise=OdometryNoise.noiseless())
        reading = sensor.read(5.0)
        assert reading.distance == pytest.approx(10.0)
        assert reading.heading_change == pytest.approx(0.0)
        assert reading.dt == pytest.approx(5.0)

    def test_noiseless_turn_measured_exactly(self, rng):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10)], speed=1.0
        )
        sensor = OdometrySensor(mob, rng, noise=OdometryNoise.noiseless())
        sensor.read(9.5)
        reading = sensor.read(10.5)  # crosses the 90-degree turn
        assert reading.heading_change == pytest.approx(math.pi / 2)

    def test_stationary_robot_reads_zero(self, rng):
        sensor = OdometrySensor(
            StationaryMobility(Vec2(1, 1)), rng, noise=OdometryNoise()
        )
        reading = sensor.read(1.0)
        assert reading.distance == 0.0
        assert reading.heading_change == 0.0

    def test_reads_must_advance_time(self, rng):
        sensor = OdometrySensor(StationaryMobility(Vec2(0, 0)), rng)
        sensor.read(1.0)
        with pytest.raises(ValueError):
            sensor.read(1.0)
        with pytest.raises(ValueError):
            sensor.read(0.5)

    def test_displacement_noise_scale(self):
        """Measured distances over 1 s should deviate with σ ≈ 0.1 m."""
        mob = ScriptedMobility([Vec2(0, 0), Vec2(5000, 0)], speed=1.0)
        noise = OdometryNoise(
            displacement_std_per_s=0.1,
            angular_std_rad=0.0,
            heading_drift_std_rad_per_sqrt_s=0.0,
        )
        sensor = OdometrySensor(
            mob, RandomStreams(1).get("x"), noise=noise
        )
        deviations = [
            sensor.read(float(t)).distance - 1.0 for t in range(1, 2001)
        ]
        assert abs(float(np.mean(deviations))) < 0.02
        assert float(np.std(deviations)) == pytest.approx(0.1, rel=0.15)

    def test_straight_motion_without_drift_keeps_heading(self):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(1000, 0)], speed=1.0)
        noise = OdometryNoise(
            displacement_std_per_s=0.1,
            angular_std_rad=math.radians(10.0),
            heading_drift_std_rad_per_sqrt_s=0.0,
        )
        sensor = OdometrySensor(mob, RandomStreams(1).get("x"), noise=noise)
        for t in range(1, 100):
            assert sensor.read(float(t)).heading_change == 0.0

    def test_heading_drift_accumulates_with_motion(self):
        mob = ScriptedMobility([Vec2(0, 0), Vec2(5000, 0)], speed=1.0)
        noise = OdometryNoise(
            displacement_std_per_s=0.0,
            angular_std_rad=0.0,
            heading_drift_std_rad_per_sqrt_s=math.radians(1.5),
        )
        sensor = OdometrySensor(mob, RandomStreams(1).get("x"), noise=noise)
        changes = [sensor.read(float(t)).heading_change for t in range(1, 1001)]
        assert float(np.std(changes)) == pytest.approx(
            math.radians(1.5), rel=0.15
        )


class TestDeadReckoning:
    def test_perfect_odometry_tracks_truth(self, rng):
        mob = ScriptedMobility(
            [Vec2(0, 0), Vec2(50, 0), Vec2(50, 50), Vec2(0, 50)], speed=1.0
        )
        sensor = OdometrySensor(mob, rng, noise=OdometryNoise.noiseless())
        block = DeadReckoning(Vec2(0, 0), mob.heading(0.0))
        reckoner = block.row(0)
        horizon = int(mob.travel_time)
        for t in range(1, horizon + 1):
            block.advance(sensor.read(float(t)))
        assert reckoner.position.distance_to(
            mob.position(float(horizon))
        ) == pytest.approx(0.0, abs=1e-6)

    def test_error_grows_with_time_with_noise(self):
        """The Figure 4 behaviour: noisy odometry drifts without bound."""
        area = Rect.square(200.0)
        errors_early, errors_late = [], []
        for robot in range(12):
            streams = RandomStreams(robot)
            mob = WaypointMobility(area, streams.get("mob"), v_max=2.0)
            sensor = OdometrySensor(mob, streams.get("odo"))
            block = DeadReckoning(mob.position(0.0), mob.heading(0.0))
            reckoner = block.row(0)
            for t in range(1, 1201):
                block.advance(sensor.read(float(t)))
                if t == 120:
                    errors_early.append(
                        reckoner.position.distance_to(mob.position(float(t)))
                    )
            errors_late.append(
                reckoner.position.distance_to(mob.position(1200.0))
            )
        assert np.mean(errors_late) > 3.0 * np.mean(errors_early)

    def test_reset_reanchors_position(self):
        block = DeadReckoning(Vec2(0, 0), 0.0)
        reckoner = block.row(0)
        reckoner.reset(Vec2(10, 10))
        assert reckoner.position == Vec2(10, 10)
        assert reckoner.updates == 0

    def test_reset_keeps_heading_unless_given(self):
        block = DeadReckoning(Vec2(0, 0), 1.0)
        reckoner = block.row(0)
        reckoner.reset(Vec2(5, 5))
        assert reckoner.heading == pytest.approx(1.0)
        reckoner.reset(Vec2(5, 5), heading=2.0)
        assert reckoner.heading == pytest.approx(2.0)

    def test_heading_normalized(self, rng):
        from repro.mobility.odometry import OdometryReading

        block = DeadReckoning(Vec2(0, 0), 3.0)
        reckoner = block.row(0)
        block.advance(OdometryReading(0.0, 1.0, 1.0, 3.0))
        assert -math.pi < reckoner.heading <= math.pi


class ScalarOdometer:
    """The per-robot scalar odometer the array code replaced, kept as the
    reference: one mobility model, one stream, ``rng.normal`` on demand."""

    def __init__(self, mobility, rng, noise):
        self.mobility = mobility
        self.rng = rng
        self.noise = noise
        self.draws = 0
        self.still_steps = 0
        self.small_turns = 0
        self.turns = 0
        pose = mobility.pose(0.0)
        self.last_time = 0.0
        self.last_position = pose.position
        self.last_heading = pose.heading

    def normal(self, sigma):
        self.draws += 1
        return float(self.rng.normal(0.0, sigma))

    def read(self, t):
        noise = self.noise
        pose = self.mobility.pose(t)
        dt = t - self.last_time
        position = pose.position
        last = self.last_position
        true_distance = math.hypot(position.x - last.x, position.y - last.y)
        true_turn = normalize_angle(pose.heading - self.last_heading)
        distance = true_distance
        if noise.displacement_std_per_s > 0.0 and true_distance > 0.0:
            distance += self.normal(noise.displacement_std_per_s * dt)
        heading_change = true_turn
        if noise.angular_std_rad > 0.0 and abs(true_turn) > (
            noise.turn_threshold_rad
        ):
            heading_change += self.normal(noise.angular_std_rad)
        if noise.heading_drift_std_rad_per_sqrt_s > 0.0 and true_distance > 0.0:
            heading_change += self.normal(
                noise.heading_drift_std_rad_per_sqrt_s * math.sqrt(dt)
            )
        self.still_steps += true_distance == 0.0
        if abs(true_turn) > noise.turn_threshold_rad:
            self.turns += 1
        elif true_turn != 0.0:
            self.small_turns += 1
        self.last_time = t
        self.last_position = position
        self.last_heading = pose.heading
        return distance, heading_change


class ScalarReckoner:
    """The scalar dead-reckoning update, kept as the reference."""

    def __init__(self, position, heading):
        self.x = position.x
        self.y = position.y
        self.heading = normalize_angle(heading)

    def advance(self, distance, heading_change):
        self.x = self.x + distance * math.cos(self.heading)
        self.y = self.y + distance * math.sin(self.heading)
        self.heading = normalize_angle(self.heading + heading_change)


#: Turns below a 90° threshold go unmeasured: waypoint legs then give
#: both turn branches, not only the large-turn one.
COARSE_ENCODER = OdometryNoise(turn_threshold_rad=math.radians(90.0))


class TestArrayOdometerOracle:
    """The array odometer and reckoner against the scalar reference:
    identical doubles, step for step, over 1,000 steps."""

    STEPS = 1000

    @staticmethod
    def times():
        # Uneven sample spacing, so σ·dt and σ·√dt vary.
        t = 0.0
        for k in range(TestArrayOdometerOracle.STEPS):
            t += 0.5 + 0.5 * (k % 3)
            yield t

    def mobilities(self, n, seed, rest):
        streams = RandomStreams(seed)
        return [
            WaypointMobility(
                Rect.square(150.0),
                streams.spawn("mobility", i),
                v_max=2.0,
                rest_time_max=rest,
            )
            for i in range(n)
        ]

    def check(self, n, noise, rest, seed=3):
        world = WorldState()
        for row, mobility in enumerate(self.mobilities(n, seed, rest)):
            mobility.bind_world(world, row)
        streams = RandomStreams(seed)
        if n == 1:
            mobility = self.mobilities(1, seed, rest)[0]
            sensor = OdometrySensor(
                mobility, streams.spawn("odometry", 0), noise=noise
            )
        else:
            sensor = OdometrySensor.over_world(
                world,
                list(range(n)),
                [streams.spawn("odometry", i) for i in range(n)],
                noise=noise,
            )
        ref_mobilities = self.mobilities(n, seed, rest)
        ref_streams = RandomStreams(seed)
        odometers = [
            ScalarOdometer(m, ref_streams.spawn("odometry", i), noise)
            for i, m in enumerate(ref_mobilities)
        ]
        starts = [m.pose(0.0) for m in ref_mobilities]
        reckoners = [ScalarReckoner(p.position, p.heading) for p in starts]
        block = DeadReckoning(Vec2(0.0, 0.0), rows=n)
        rows = [block.row(i) for i in range(n)]
        for row, pose in zip(rows, starts):
            row.reset(pose.position, pose.heading)
        for t in self.times():
            reading = sensor.read(t)
            block.advance(reading)
            for i, (odometer, reckoner) in enumerate(
                zip(odometers, reckoners)
            ):
                distance, heading_change = odometer.read(t)
                assert reading.distance[i] == distance
                assert reading.heading_change[i] == heading_change
                reckoner.advance(distance, heading_change)
                row = rows[i]
                assert row.position.x == reckoner.x
                assert row.position.y == reckoner.y
                assert row.heading == reckoner.heading
        return odometers

    @pytest.mark.parametrize("n", [1, 25])
    def test_paper_noise_with_rests(self, n):
        odometers = self.check(n, OdometryNoise(), rest=20.0)
        assert all(o.still_steps > 0 for o in odometers)
        assert all(o.turns > 0 for o in odometers)
        # Every row refilled its read-ahead block at least three times.
        assert min(o.draws for o in odometers) > 3 * NOISE_BLOCK

    @pytest.mark.parametrize("n", [1, 25])
    def test_turns_below_threshold_draw_nothing(self, n):
        odometers = self.check(n, COARSE_ENCODER, rest=5.0)
        assert sum(o.small_turns for o in odometers) > 0
        assert sum(o.turns for o in odometers) > 0
        assert min(o.draws for o in odometers) > 3 * NOISE_BLOCK

    @pytest.mark.parametrize("n", [1, 25])
    def test_noiseless(self, n):
        odometers = self.check(n, OdometryNoise.noiseless(), rest=10.0)
        assert all(o.draws == 0 for o in odometers)
