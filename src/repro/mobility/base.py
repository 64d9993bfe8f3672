"""Mobility model interface: every trajectory is a chain of legs.

All mobility models are *analytic*: they answer "where is the robot at time
``t``" for any non-decreasing sequence of queries, instead of being stepped
by simulation events.  This keeps the event queue free of per-robot movement
events and lets the channel model evaluate positions exactly at packet time.

A trajectory is a chain of :class:`Leg` values — travel from a start to a
destination, then rest — and the models differ only in where their legs
come from: :class:`~repro.mobility.waypoint.WaypointMobility` draws random
ones, :class:`ScriptedMobility` walks a fixed route and
:class:`StationaryMobility` rests on one leg forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.util.geometry import Vec2


class Pose:
    """A robot pose: position, heading (radians, CCW from +x) and speed.

    A plain ``__slots__`` class (not a frozen dataclass) because poses
    are materialized on every odometry read and kinematics query;
    immutable by convention, like :class:`~repro.util.geometry.Vec2`.
    """

    __slots__ = ("position", "heading", "speed")

    def __init__(
        self, position: Vec2, heading: float, speed: float
    ) -> None:
        self.position = position
        self.heading = heading
        self.speed = speed

    def __repr__(self) -> str:
        return "Pose(position=%r, heading=%r, speed=%r)" % (
            self.position, self.heading, self.speed
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Pose:
            return (
                self.position == other.position
                and self.heading == other.heading
                and self.speed == other.speed
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.position, self.heading, self.speed))

    @property
    def x(self) -> float:
        return self.position.x

    @property
    def y(self) -> float:
        return self.position.y


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
        heading: the robot's heading on this leg; a travelling leg
            points from ``start`` at ``dest`` (see :meth:`travel`).
    """

    start: Vec2
    dest: Vec2
    speed: float
    depart_time: float
    arrive_time: float
    rest_until: float
    heading: float

    @classmethod
    def travel(
        cls, start: Vec2, dest: Vec2, speed: float, depart_time: float,
        rest: float = 0.0,
    ) -> "Leg":
        """Drive from ``start`` to ``dest`` at ``speed``, then rest."""
        arrive = depart_time + start.distance_to(dest) / speed
        return cls(
            start, dest, speed, depart_time, arrive, arrive + rest,
            start.heading_to(dest),
        )

    @classmethod
    def resting(cls, position: Vec2, heading: float, until: float) -> "Leg":
        """Stand at ``position`` facing ``heading`` until ``until``: the
        leg arrived at time 0 and its travel took no time at all."""
        return cls(position, position, 0.0, 0.0, 0.0, until, heading)

    def position_at(self, t: float) -> Vec2:
        """Position on this leg at time ``t`` (clamped to the leg).

        Written out per component: the same float operations, in the
        same order, as ``start + (dest - start) * frac`` (and as the SoA
        world's array interpolation), without intermediate ``Vec2``s.
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


class MobilityModel:
    """A trajectory made of :class:`Leg` values, queried forward in time.

    Subclasses hand the first legs to the constructor and implement
    :meth:`_next_leg` if their last leg ever ends (``rest_until`` is
    finite).  Queries must use non-decreasing times.

    The last computed pose is memoized.  Several subsystems query the
    same robot at the same instant within one event (channel offer,
    delivery interference, odometry read, metric sampling); the pose is a
    pure function of ``t`` once the legs are drawn, and repeat queries
    never draw additional randomness, so replaying it is bit-identical.
    """

    def __init__(self, legs: Sequence[Leg]) -> None:
        self._legs: List[Leg] = list(legs)
        self._leg_index = 0
        self._last_query_time = 0.0
        self._memo_t: Optional[float] = None
        self._memo_pose: Optional[Pose] = None
        # SoA mirror (see repro.sim.world); None when unbound.
        self._world = None
        self._world_row = 0

    def _next_leg(self, leg: Leg) -> Leg:
        """The leg that follows ``leg``, the trajectory's last so far."""
        raise NotImplementedError

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
                    self._legs.append(self._next_leg(leg))
                leg = self._legs[self._leg_index]
            if self._world is not None:
                self._world.set_leg(self._world_row, leg)
        return leg

    def bind_world(self, world, row: int) -> None:
        """Mirror this trajectory's active leg into a shared SoA block.

        Appends ``row`` to the :class:`~repro.sim.world.WorldState` and
        writes the currently active leg through; every later leg
        advancement keeps the mirror current.

        Raises:
            ValueError: if the model is already bound to a world (the
                first world's mirror would silently go stale).
        """
        if self._world is not None:
            raise ValueError("mobility is already bound to a world")
        world.bind_mobility(row, self)
        self._world = world
        self._world_row = row
        world.set_leg(row, self._legs[self._leg_index])

    def pose(self, t: float) -> Pose:
        """Return the robot's pose at simulation time ``t`` (seconds)."""
        if t == self._memo_t:
            return self._memo_pose
        leg = self.current_leg(t)
        pose = Pose(
            leg.position_at(t),
            leg.heading,
            0.0 if t >= leg.arrive_time else leg.speed,
        )
        self._memo_t = t
        self._memo_pose = pose
        return pose

    def position(self, t: float) -> Vec2:
        """Return the robot's position at time ``t``."""
        return self.pose(t).position

    def heading(self, t: float) -> float:
        """Return the robot's heading at time ``t``."""
        return self.pose(t).heading

    def speed(self, t: float) -> float:
        """Return the robot's speed at time ``t``."""
        return self.pose(t).speed

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


class StationaryMobility(MobilityModel):
    """A robot that never moves: one leg, resting forever.

    Useful in tests and as static landmarks.
    """

    def __init__(self, position: Vec2, heading: float = 0.0) -> None:
        super().__init__([Leg.resting(position, heading, math.inf)])

    def current_leg(self, t: float) -> Leg:
        # The one leg covers every time, so queries may come in any order.
        return self._legs[0]


class ScriptedMobility(MobilityModel):
    """Follow a fixed list of waypoints at a constant speed.

    Used by the Figure 5 reproduction, where a deterministic path with
    well-defined turns illustrates odometry error accumulation, and by
    integration tests that need exactly repeatable trajectories.

    Args:
        waypoints: at least two points; the robot starts at the first one.
        speed: constant movement speed in m/s.
        start_time: simulation time at which movement begins; before it the
            robot rests at the first waypoint, facing the second.
        loop: if True, the robot returns to the first waypoint and repeats.
    """

    def __init__(
        self,
        waypoints: Sequence[Vec2],
        speed: float,
        start_time: float = 0.0,
        loop: bool = False,
    ) -> None:
        if len(waypoints) < 2:
            raise ValueError(
                "ScriptedMobility needs >= 2 waypoints, got %d"
                % len(waypoints)
            )
        if speed <= 0:
            raise ValueError("speed must be positive, got %r" % speed)
        route = [waypoints[0]]
        for point in list(waypoints[1:]) + ([waypoints[0]] if loop else []):
            # Repeated points would make zero-length legs: skip them.
            # repro: noqa[REP004] exact coincidence is the degenerate case
            if point.distance_to(route[-1]) != 0.0:
                route.append(point)
        if len(route) < 2:
            raise ValueError("waypoints are all identical")
        legs = []
        depart = start_time
        for a, b in zip(route, route[1:]):
            legs.append(Leg.travel(a, b, speed, depart))
            depart = legs[-1].arrive_time
        if not loop:
            # The robot stays at the last waypoint for good.
            legs[-1] = replace(legs[-1], rest_until=math.inf)
        self._travel_time = depart - start_time
        self._lap = len(legs)
        if start_time > 0.0:
            legs.insert(0, Leg.resting(route[0], legs[0].heading, start_time))
        super().__init__(legs)

    @property
    def travel_time(self) -> float:
        """Time to traverse the whole path once."""
        return self._travel_time

    def _next_leg(self, leg: Leg) -> Leg:
        # Only a looping route runs past its last leg: it repeats the
        # hop one lap back, departing when ``leg`` ends.
        hop = self._legs[-self._lap]
        return Leg.travel(hop.start, hop.dest, hop.speed, leg.rest_until)
