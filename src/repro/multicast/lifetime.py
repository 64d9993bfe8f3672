"""Link lifetime prediction from robot mobility knowledge.

MRMM's key idea is that robots, unlike generic MANET nodes, *know their own
motion*: the commanded velocity, the time until they reach their current
waypoint, and how long they will rest there (``d_rest``).  Two neighbors
exchanging this knowledge can lower-bound how long their radio link will
survive, and the mesh construction prefers links that live longer.

:func:`predict_link_lifetime` solves the constant-velocity separation
equation |Δp + Δv·τ| = R for the earliest positive τ, then clamps the
prediction to the horizon within which the constant-velocity assumption is
actually valid — the earlier of either robot's next waypoint arrival (after
which its velocity is unknown) plus its rest time (during which it is
stationary, extending validity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.geometry import Vec2


@dataclass(frozen=True)
class Kinematics:
    """A robot's self-knowledge about its current motion.

    Attributes:
        position: current position.
        velocity: current velocity vector (zero while resting).
        time_to_waypoint: seconds until the current movement command
            completes (0 while resting).
        rest_remaining: seconds of rest remaining at the destination —
            the ``d_rest`` knowledge MRMM exploits.
    """

    position: Vec2
    velocity: Vec2
    time_to_waypoint: float
    rest_remaining: float

    @property
    def prediction_horizon(self) -> float:
        """How long this robot's current velocity remains valid."""
        return self.time_to_waypoint + self.rest_remaining


def kinematics_of(mobility, t: float) -> Kinematics:
    """Extract a robot's self-knowledge from its mobility model.

    Every :class:`~repro.mobility.base.MobilityModel` answers from its
    current leg; a stationary node reports a zero velocity and an
    unbounded rest, i.e. "not going anywhere".
    """
    pose = mobility.pose(t)
    velocity = (
        Vec2.from_polar(pose.speed, pose.heading)
        if pose.speed > 0.0
        else Vec2.zero()
    )
    return Kinematics(
        position=pose.position,
        velocity=velocity,
        time_to_waypoint=mobility.time_to_waypoint(t),
        rest_remaining=mobility.rest_remaining(t),
    )


def predict_link_lifetime(
    a: Kinematics,
    b: Kinematics,
    link_range_m: float,
    max_horizon_s: float = 600.0,
) -> float:
    """Predict how long the link between two robots will survive.

    Args:
        a: first endpoint's kinematics.
        b: second endpoint's kinematics.
        link_range_m: communication range assumed for the link.
        max_horizon_s: cap on any prediction (beyond it the answer is
            "long enough").

    Returns:
        A lower-bound estimate, in seconds, of the remaining link lifetime.
        0.0 if the robots are already out of range.
    """
    if link_range_m <= 0:
        raise ValueError(
            "link_range_m must be positive, got %r" % link_range_m
        )
    dp = b.position - a.position
    if dp.norm() > link_range_m:
        return 0.0
    horizon = min(
        max(a.prediction_horizon, 0.0),
        max(b.prediction_horizon, 0.0),
        max_horizon_s,
    )
    dv = b.velocity - a.velocity
    speed_sq = dv.dot(dv)
    if speed_sq <= 1e-12:
        # Not separating under current commands: valid until a command
        # changes, i.e. for the whole prediction horizon.
        return horizon if horizon > 0.0 else max_horizon_s
    # Solve |dp + dv*tau|^2 = R^2 for the earliest positive tau.
    b_coef = 2.0 * dp.dot(dv)
    c_coef = dp.dot(dp) - link_range_m * link_range_m
    disc = b_coef * b_coef - 4.0 * speed_sq * c_coef
    if disc <= 0.0:
        # Separation never reaches R under current velocities.
        return horizon if horizon > 0.0 else max_horizon_s
    tau = (-b_coef + math.sqrt(disc)) / (2.0 * speed_sq)
    if tau <= 0.0:
        return 0.0
    if horizon > 0.0:
        return min(tau, horizon) if tau < horizon else horizon
    return min(tau, max_horizon_s)
