"""Odometry sensing with the paper's error model (§3).

    "We assume odometry displacement error to be zero-mean Gaussian with
    standard deviation 0.1 m/s and assume the angular odometry error to also
    be zero-mean Gaussian with standard deviation 10 degrees."

The sensor observes the true trajectory at successive sample times and
reports noisy *increments*: distance travelled and heading change since the
previous sample.  Three error components are modelled:

1. displacement noise applied per second of motion (the σ = 0.1 m/s spec),
2. per-turn angular noise — every turn is measured with Gaussian error,
   exactly the mechanism Figure 5 illustrates ("when the robot turns by θ
   ... it estimates a turn by θ'"),
3. a continuous heading random walk (gyro/encoder drift) accumulating with
   the square root of motion time.

Component 3 is not stated explicitly in the paper but is required to
reconcile its two headline numbers: odometry-only error must grow toward
~100 m over 30 minutes (Figure 4) while CoCoA's per-beacon-period
dead-reckoning drift must stay small enough for a single-digit-metre time
average (Figure 7).  The default rate (1.5°/√s of motion) was calibrated
against exactly those two constraints; see DESIGN.md §5 and
EXPERIMENTS.md for the paper-vs-measured comparison.

One :class:`OdometrySensor` reads a block of robots, one row each, in
one array pass per sample.  True poses come only from a
:class:`~repro.sim.world.WorldState`: a team's measured robots are one
block over its channel's world, and a lone robot is a block of one row
over a world of its own.  Every row keeps its own
noise stream, read ahead in blocks of ``NOISE_BLOCK`` standard normals
through a cursor.  A block draw of ``standard_normal`` yields the values
successive scalar draws would, and ``σ · z`` is the value
``rng.normal(0, σ)`` returns, so a row draws exactly what a per-robot
sensor drawing ``normal(0, σ)`` on demand would: the conditional draws
(moving, turning past the threshold, drift while moving) are masked
reads at the row's cursor, in that order.  The true distance stays on
scalar ``math.hypot`` (``numpy.hypot`` is not bit-identical to it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.mobility.base import MobilityModel
from repro.sim.world import WorldState
from repro.util.geometry import normalize_angles

#: Standard normals each row reads ahead from its noise stream.
NOISE_BLOCK = 256


@dataclass(frozen=True)
class OdometryNoise:
    """Noise parameters for the odometry sensor.

    Attributes:
        displacement_std_per_s: σ of the Gaussian displacement error, in
            metres per second of motion (paper: 0.1 m/s).
        angular_std_rad: σ of the Gaussian heading-change error in radians
            (paper: 10°).
        heading_drift_std_rad_per_sqrt_s: σ of the continuous heading random
            walk, in radians per square-root second of motion (calibrated:
            1.5°/√s; see the module docstring).
        turn_threshold_rad: heading changes smaller than this are treated as
            driving straight and incur no angular error; it models the
            encoder's angular resolution.
    """

    displacement_std_per_s: float = 0.1
    angular_std_rad: float = math.radians(10.0)
    heading_drift_std_rad_per_sqrt_s: float = math.radians(1.5)
    turn_threshold_rad: float = math.radians(0.5)

    def __post_init__(self) -> None:
        if self.displacement_std_per_s < 0:
            raise ValueError(
                "displacement_std_per_s must be non-negative, got %r"
                % self.displacement_std_per_s
            )
        if self.angular_std_rad < 0:
            raise ValueError(
                "angular_std_rad must be non-negative, got %r"
                % self.angular_std_rad
            )
        if self.heading_drift_std_rad_per_sqrt_s < 0:
            raise ValueError(
                "heading_drift_std_rad_per_sqrt_s must be non-negative, "
                "got %r" % self.heading_drift_std_rad_per_sqrt_s
            )
        if self.turn_threshold_rad < 0:
            raise ValueError(
                "turn_threshold_rad must be non-negative, got %r"
                % self.turn_threshold_rad
            )

    @staticmethod
    def noiseless() -> "OdometryNoise":
        """A perfect odometer — used by tests to isolate other error sources."""
        return OdometryNoise(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class OdometryReading:
    """One odometry increment per row between consecutive sample times.

    Attributes:
        t_from: start of the interval.
        t_to: end of the interval.
        distance: measured distance travelled per row (metres, noisy,
            can be slightly negative for tiny motions under heavy noise).
        heading_change: measured change in heading per row (radians,
            noisy).  Either field may be a scalar applied to every row.
    """

    t_from: float
    t_to: float
    distance: np.ndarray
    heading_change: np.ndarray

    @property
    def dt(self) -> float:
        return self.t_to - self.t_from


class OdometrySensor:
    """Produces noisy odometry increments for a block of robots.

    The constructor builds a block of one row that follows one mobility
    model, bound to a one-row world of its own; :meth:`over_world` builds
    one row per robot of an existing world.

    Args:
        mobility: the robot's true mobility model (not yet bound to a
            world).
        rng: this robot's odometry noise stream.
        noise: error model parameters.
        start_time: time of the first (implicit) sample.
    """

    def __init__(
        self,
        mobility: MobilityModel,
        rng: np.random.Generator,
        noise: OdometryNoise = OdometryNoise(),
        start_time: float = 0.0,
    ) -> None:
        world = WorldState()
        mobility.bind_world(world, 0)
        self._setup(world, [0], [rng], noise, start_time)

    @classmethod
    def over_world(
        cls,
        world,
        rows: Sequence[int],
        rngs: Sequence[np.random.Generator],
        noise: OdometryNoise = OdometryNoise(),
        start_time: float = 0.0,
    ) -> "OdometrySensor":
        """One row per listed world row, true poses read from ``world``.

        Args:
            world: the :class:`~repro.sim.world.WorldState` whose rows
                carry the robots' trajectories.
            rows: the world rows to read, in block-row order.
            rngs: one noise stream per listed row.
        """
        sensor = cls.__new__(cls)
        sensor._setup(world, rows, list(rngs), noise, start_time)
        return sensor

    def _setup(
        self,
        world: WorldState,
        rows: Sequence[int],
        rngs: Sequence[np.random.Generator],
        noise: OdometryNoise,
        start_time: float,
    ) -> None:
        self._world = world
        self._index = np.asarray(rows, dtype=np.intp)
        self._rngs = rngs
        self._noise = noise
        self._disp_std = noise.displacement_std_per_s
        self._ang_std = noise.angular_std_rad
        self._turn_thresh = noise.turn_threshold_rad
        self._drift_std = noise.heading_drift_std_rad_per_sqrt_s
        # The most values one step draws per row: one per noisy component.
        self._max_draws = (
            (self._disp_std > 0.0) + (self._ang_std > 0.0)
            + (self._drift_std > 0.0)
        )
        n = len(rngs)
        self._rows = np.arange(n)
        # A cursor at NOISE_BLOCK means "nothing read ahead": a row first
        # draws from its stream on the first noisy read (never, for the
        # noiseless model).
        self._buffer = np.zeros((n, NOISE_BLOCK))
        self._cursor = np.full(n, NOISE_BLOCK, dtype=np.intp)
        self._active = np.ones(n, dtype=bool)
        self._last_time = start_time
        self._last_x, self._last_y, self._last_heading = self._true_poses(
            start_time
        )

    def _true_poses(
        self, t: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's true x, y and heading at ``t``, from the world."""
        x, y, heading = self._world.poses_at(t)
        index = self._index
        return x[index], y[index], heading[index]

    @property
    def noise(self) -> OdometryNoise:
        return self._noise

    @property
    def last_sample_time(self) -> float:
        return self._last_time

    @property
    def true_positions(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's true x and y at :attr:`last_sample_time` (the
        sensor's own arrays: do not write)."""
        return self._last_x, self._last_y

    def retire(self, row: int) -> None:
        """Stop ``row``'s odometer for good (its robot died).

        The row draws no more noise and reads zero increments, so its
        dead-reckoned estimate stays where it was.
        """
        self._active[row] = False
        # A dead row's cursor never moves again; parked at 0 it keeps
        # every gather in bounds and never asks for a refill.
        self._cursor[row] = 0

    def read(self, t: float) -> OdometryReading:
        """Sample every row's odometer: the increments since the last read.

        Raises:
            ValueError: if ``t`` is not after the previous sample time.
        """
        if t <= self._last_time:
            raise ValueError(
                "odometry must be read at strictly increasing times: "
                "%r <= %r" % (t, self._last_time)
            )
        x, y, heading = self._true_poses(t)
        dt = t - self._last_time
        dx = (x - self._last_x).tolist()
        dy = (y - self._last_y).tolist()
        distance = np.array(list(map(math.hypot, dx, dy)))
        heading_change = normalize_angles(heading - self._last_heading)
        active = self._active
        moving = (distance > 0.0) & active
        turning = (np.abs(heading_change) > self._turn_thresh) & active
        distance, heading_change = self._add_noise(
            dt, distance, heading_change, moving, turning
        )
        distance = np.where(active, distance, 0.0)
        heading_change = np.where(active, heading_change, 0.0)
        self._last_time = t
        self._last_x = x
        self._last_y = y
        self._last_heading = heading
        return OdometryReading(t - dt, t, distance, heading_change)

    def _add_noise(
        self,
        dt: float,
        distance: np.ndarray,
        heading_change: np.ndarray,
        moving: np.ndarray,
        turning: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The three error components, each drawn only where it applies.

        Per row the draws come in the scalar model's order: displacement
        while moving (σ scales with elapsed motion time), the turn error
        past the encoder threshold, then the heading random walk while
        moving (variance grows with motion time, hence σ ∝ √dt).
        """
        cursor = self._cursor
        # Top up every row with fewer values left than one step can draw
        # before any is read.
        low = cursor > NOISE_BLOCK - self._max_draws
        for row in np.flatnonzero(low).tolist():
            self._refill(row)
        rows = self._rows
        buffer = self._buffer
        if self._disp_std > 0.0:
            z = buffer[rows, cursor]
            distance = np.where(
                moving, distance + (self._disp_std * dt) * z, distance
            )
            cursor = cursor + moving
        if self._ang_std > 0.0:
            z = buffer[rows, cursor]
            heading_change = np.where(
                turning, heading_change + self._ang_std * z, heading_change
            )
            cursor = cursor + turning
        if self._drift_std > 0.0:
            z = buffer[rows, cursor]
            heading_change = np.where(
                moving,
                heading_change + (self._drift_std * math.sqrt(dt)) * z,
                heading_change,
            )
            cursor = cursor + moving
        self._cursor = cursor
        return distance, heading_change

    def _refill(self, row: int) -> None:
        """Shift ``row``'s unread values to the front and draw the rest."""
        cursor = int(self._cursor[row])
        unread = NOISE_BLOCK - cursor
        block = self._buffer[row]
        block[:unread] = block[cursor:NOISE_BLOCK]
        block[unread:NOISE_BLOCK] = self._rngs[row].standard_normal(cursor)
        self._cursor[row] = 0
