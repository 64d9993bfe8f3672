"""Random waypoint mobility, as specified in the paper's §3.

    "As the simulation starts, each robot is given a random command to move
    to a random destination in the given area and starts moving towards the
    chosen destination with a speed chosen uniformly between 0.1 and v_max
    meters/second.  Once the robot reaches the destination, it is given a
    new random command."

The model optionally supports a rest time at each destination ("each robot
moves towards a particular area, performs a task, and then moves to the next
position") — the rest duration is the ``d_rest`` knowledge that the MRMM
mesh-pruning algorithm exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from repro.mobility.base import MobilityModel, Pose
from repro.util.geometry import Rect, Vec2


@dataclass(frozen=True)
class Leg:
    """One movement leg: travel from ``start`` to ``dest`` then rest.

    Attributes:
        start: departure point.
        dest: destination waypoint.
        speed: travel speed in m/s.
        depart_time: simulation time the robot leaves ``start``.
        arrive_time: simulation time the robot reaches ``dest``.
        rest_until: simulation time the robot departs again (equals
            ``arrive_time`` when there is no rest phase).
    """

    start: Vec2
    dest: Vec2
    speed: float
    depart_time: float
    arrive_time: float
    rest_until: float

    @cached_property
    def heading(self) -> float:
        # cached: a leg's heading is queried on every pose() while the
        # leg is active, and atan2 per query was visible in the profile.
        return self.start.heading_to(self.dest)

    @cached_property
    def length(self) -> float:
        return self.start.distance_to(self.dest)

    def position_at(self, t: float) -> Vec2:
        """Position on this leg at time ``t`` (clamped to the leg).

        The interpolation is written out per component — the same float
        operations, in the same order, as the historical
        ``start + (dest - start) * frac`` vector expression (and as the
        SoA world's array interpolation), without the two intermediate
        ``Vec2`` allocations.
        """
        if t <= self.depart_time:
            return self.start
        if t >= self.arrive_time:
            return self.dest
        frac = (t - self.depart_time) / (self.arrive_time - self.depart_time)
        start = self.start
        dest = self.dest
        return Vec2(
            start.x + (dest.x - start.x) * frac,
            start.y + (dest.y - start.y) * frac,
        )


class WaypointMobility(MobilityModel):
    """The paper's random waypoint model over a rectangular area.

    Queries must have non-decreasing times; legs are generated lazily as the
    clock advances, with all randomness drawn from the supplied generator so
    that trajectories are reproducible and independent of query granularity.

    Args:
        area: the deployment rectangle.
        rng: random stream for this robot's movement.
        v_min: minimum speed in m/s (paper: 0.1).
        v_max: maximum speed in m/s (paper: 0.5 or 2.0).
        rest_time_max: maximum rest duration at each destination; the actual
            rest is drawn uniformly from ``[0, rest_time_max]``.  The paper's
            headline experiments use 0 (continuous movement).
        start: optional fixed start position; defaults to uniform random.

    The last computed pose is memoized.  Several subsystems query the
    same robot at the same instant within one event (channel offer,
    delivery interference, odometry read, metric sampling); the pose is a
    pure function of ``t`` once the legs are drawn, and repeat queries
    never draw additional randomness, so replaying it is bit-identical.
    """

    def __init__(
        self,
        area: Rect,
        rng: np.random.Generator,
        v_min: float = 0.1,
        v_max: float = 2.0,
        rest_time_max: float = 0.0,
        start: Optional[Vec2] = None,
    ) -> None:
        if not 0 < v_min <= v_max:
            raise ValueError(
                "need 0 < v_min <= v_max, got v_min=%r v_max=%r"
                % (v_min, v_max)
            )
        if rest_time_max < 0:
            raise ValueError(
                "rest_time_max must be non-negative, got %r" % rest_time_max
            )
        self._area = area
        self._rng = rng
        self._v_min = v_min
        self._v_max = v_max
        self._rest_time_max = rest_time_max
        if start is None:
            start = self._random_point()
        elif not area.contains(start):
            raise ValueError("start %r outside area %r" % (start, area))
        self._legs: List[Leg] = [self._new_leg(start, depart_time=0.0)]
        self._leg_index = 0
        self._last_query_time = 0.0
        self._memo_t: Optional[float] = None
        self._memo_pose: Optional[Pose] = None
        # SoA mirror (see repro.sim.world); None when unbound.
        self._world = None
        self._world_row = 0

    @property
    def area(self) -> Rect:
        return self._area

    @property
    def v_max(self) -> float:
        return self._v_max

    @property
    def legs_generated(self) -> int:
        """Number of legs created so far (grows as time advances)."""
        return len(self._legs)

    def _random_point(self) -> Vec2:
        return Vec2(
            float(self._rng.uniform(self._area.x_min, self._area.x_max)),
            float(self._rng.uniform(self._area.y_min, self._area.y_max)),
        )

    def _new_leg(self, start: Vec2, depart_time: float) -> Leg:
        dest = self._random_point()
        # Degenerate zero-length legs would stall time; redraw (the chance
        # of an exact coincidence is ~0 but redrawing costs nothing).
        # repro: noqa[REP004] exact coincidence is the degenerate case
        while dest.distance_to(start) == 0.0:
            dest = self._random_point()
        speed = float(self._rng.uniform(self._v_min, self._v_max))
        arrive = depart_time + start.distance_to(dest) / speed
        if self._rest_time_max > 0.0:
            rest = float(self._rng.uniform(0.0, self._rest_time_max))
        else:
            rest = 0.0
        return Leg(start, dest, speed, depart_time, arrive, arrive + rest)

    def current_leg(self, t: float) -> Leg:
        """Return the leg active at time ``t``, generating legs as needed.

        A robot resting at a destination is still "on" the leg that brought
        it there until ``rest_until`` passes.

        Raises:
            ValueError: if ``t`` precedes an earlier query (the model only
                moves forward in time).
        """
        if t < self._last_query_time:
            raise ValueError(
                "mobility queried backwards in time: %r < %r"
                % (t, self._last_query_time)
            )
        self._last_query_time = t
        leg = self._legs[self._leg_index]
        if t >= leg.rest_until:
            while t >= leg.rest_until:
                self._leg_index += 1
                if self._leg_index == len(self._legs):
                    self._legs.append(
                        self._new_leg(leg.dest, depart_time=leg.rest_until)
                    )
                leg = self._legs[self._leg_index]
            if self._world is not None:
                self._write_through(leg)
        return leg

    def bind_world(self, world, row: int) -> None:
        """Mirror this trajectory's active leg into a shared SoA block.

        Registers with the :class:`~repro.sim.world.WorldState` and
        writes the currently active leg through; every later leg
        advancement keeps the mirror current.
        """
        self._world = world
        self._world_row = row
        world.bind_mobility(row, self)
        self._write_through(self._legs[self._leg_index])

    def _write_through(self, leg: Leg) -> None:
        self._world.set_leg(
            self._world_row,
            leg.start.x,
            leg.start.y,
            leg.dest.x,
            leg.dest.y,
            leg.depart_time,
            leg.arrive_time,
            leg.rest_until,
        )

    def pose(self, t: float) -> Pose:
        if t == self._memo_t:
            return self._memo_pose
        leg = self.current_leg(t)
        if t >= leg.arrive_time:
            # Resting at the destination.
            pose = Pose(leg.dest, leg.heading, 0.0)
        elif t <= leg.depart_time:
            pose = Pose(leg.start, leg.heading, leg.speed)
        else:
            # Inlined Leg.position_at mid-leg branch (same float ops);
            # the clamp branches are hoisted into this if/elif chain.
            frac = (t - leg.depart_time) / (
                leg.arrive_time - leg.depart_time
            )
            start = leg.start
            dest = leg.dest
            pose = Pose(
                Vec2(
                    start.x + (dest.x - start.x) * frac,
                    start.y + (dest.y - start.y) * frac,
                ),
                leg.heading,
                leg.speed,
            )
        self._memo_t = t
        self._memo_pose = pose
        return pose

    def time_to_waypoint(self, t: float) -> float:
        """Seconds until the robot next reaches a waypoint (0 if resting)."""
        leg = self.current_leg(t)
        return max(0.0, leg.arrive_time - t)

    def rest_remaining(self, t: float) -> float:
        """Seconds of rest remaining at the current destination (0 if moving)."""
        leg = self.current_leg(t)
        if t < leg.arrive_time:
            return 0.0
        return max(0.0, leg.rest_until - t)
