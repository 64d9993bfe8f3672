"""Robot mobility, odometry sensing and dead reckoning.

This package implements the paper's movement and odometry models (§3):

- :class:`~repro.mobility.waypoint.WaypointMobility` — each robot repeatedly
  picks a uniformly random destination in the deployment area and moves to it
  with a speed drawn uniformly from ``[v_min, v_max]`` (the paper uses
  ``v_min = 0.1 m/s`` and ``v_max`` of 0.5 or 2.0 m/s).
- :class:`~repro.mobility.odometry.OdometrySensor` — produces noisy
  (distance, heading-change) increments from the true trajectory, with
  zero-mean Gaussian displacement error (σ = 0.1 m/s) and zero-mean Gaussian
  angular error (σ = 10°) applied at turns.
- :class:`~repro.mobility.dead_reckoning.DeadReckoning` — integrates odometry
  increments from an initial pose, reproducing the accumulating error of
  Figures 4 and 5.

Both work on a block of robots, one row each, in one array pass per
sample; a lone robot is a block of one row, and a robot's estimator
holds a :class:`~repro.mobility.dead_reckoning.ReckonerRow` view.  True
poses come from a :class:`~repro.sim.world.WorldState`, one row per robot.
"""

from repro.mobility.base import Leg, MobilityModel, Pose, ScriptedMobility, StationaryMobility
from repro.mobility.dead_reckoning import DeadReckoning, ReckonerRow
from repro.mobility.odometry import OdometryNoise, OdometryReading, OdometrySensor
from repro.mobility.waypoint import WaypointMobility

__all__ = [
    "Pose",
    "MobilityModel",
    "StationaryMobility",
    "ScriptedMobility",
    "WaypointMobility",
    "Leg",
    "OdometrySensor",
    "OdometryNoise",
    "OdometryReading",
    "DeadReckoning",
    "ReckonerRow",
]
