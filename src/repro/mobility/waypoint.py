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

from typing import Optional

import numpy as np

from repro.mobility.base import Leg, MobilityModel
from repro.util.geometry import Rect, Vec2

#: The paper's minimum waypoint speed in m/s (§3: "uniformly between
#: 0.1 and v_max").
MIN_SPEED_M_S = 0.1


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
    """

    def __init__(
        self,
        area: Rect,
        rng: np.random.Generator,
        v_min: float = MIN_SPEED_M_S,
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
        super().__init__([self._leg_from(start, depart_time=0.0)])

    # A class attribute of its own (the shared implementation), so
    # profilers that wrap methods per class — perfbench's span patcher
    # — can time this model's pose queries alone.
    pose = MobilityModel.pose

    @property
    def area(self) -> Rect:
        return self._area

    @property
    def v_max(self) -> float:
        return self._v_max

    def _random_point(self) -> Vec2:
        return Vec2(
            float(self._rng.uniform(self._area.x_min, self._area.x_max)),
            float(self._rng.uniform(self._area.y_min, self._area.y_max)),
        )

    def _leg_from(self, start: Vec2, depart_time: float) -> Leg:
        dest = self._random_point()
        # Degenerate zero-length legs would stall time; redraw (the chance
        # of an exact coincidence is ~0 but redrawing costs nothing).
        # repro: noqa[REP004] exact coincidence is the degenerate case
        while dest.distance_to(start) == 0.0:
            dest = self._random_point()
        speed = float(self._rng.uniform(self._v_min, self._v_max))
        if self._rest_time_max > 0.0:
            rest = float(self._rng.uniform(0.0, self._rest_time_max))
        else:
            rest = 0.0
        return Leg.travel(start, dest, speed, depart_time, rest)

    def _next_leg(self, leg: Leg) -> Leg:
        return self._leg_from(leg.dest, depart_time=leg.rest_until)
