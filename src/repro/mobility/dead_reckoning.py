"""Dead reckoning: integrating odometry increments into a pose estimate.

This is the paper's "odometry only" localization baseline (§4.1) and the
between-beacon position maintenance inside CoCoA (§2.3): the robot adds each
measured displacement, along its estimated heading, to its current position
estimate.  Because both displacement and angular measurement errors
accumulate, the estimate drifts without bound — Figure 4's central result.

:class:`DeadReckoning` integrates a block of robots, one row each, in one
array pass per :class:`~repro.mobility.odometry.OdometryReading`; a lone
robot is a block of one row.  Each robot's estimator holds a
:class:`ReckonerRow` view of its row.  The update is the scalar one,
element for element: ``x + d·cos(h)``, ``y + d·sin(h)`` and the
normalized heading sum, with ``np.cos``/``np.sin`` in place of
``math.cos``/``math.sin`` (the pinned science digests check that they
agree on the machine at hand).
"""

from __future__ import annotations

import numpy as np

from repro.mobility.odometry import OdometryReading
from repro.util.geometry import Vec2, normalize_angle, normalize_angles


class DeadReckoning:
    """Integrates :class:`OdometryReading` increments from initial poses.

    The estimate is *not* clamped to the deployment area: a drifting
    dead-reckoned position can legitimately leave the map, and clamping
    would understate the error the paper measures.

    Args:
        position: initial position estimate of every row.
        heading: initial heading estimate of every row, in radians.
        rows: number of robots in the block.

    :meth:`row` gives one robot's view (its pose, totals and reset).
    """

    def __init__(
        self, position: Vec2, heading: float = 0.0, rows: int = 1
    ) -> None:
        self._x = np.full(rows, position.x, dtype=float)
        self._y = np.full(rows, position.y, dtype=float)
        self._heading = np.full(rows, normalize_angle(heading), dtype=float)
        self._updates = np.zeros(rows, dtype=np.int64)

    def row(self, index: int) -> "ReckonerRow":
        """A view of one robot's row."""
        return ReckonerRow(self, index)

    @property
    def xs(self) -> np.ndarray:
        """Every row's x estimate (the block's own array: do not write)."""
        return self._x

    @property
    def ys(self) -> np.ndarray:
        """Every row's y estimate (the block's own array: do not write)."""
        return self._y

    def advance(self, reading: OdometryReading) -> None:
        """Apply one odometry increment to every row.

        The displacement is applied along the heading held *before* the
        increment's turn, then the heading change — matching a
        differential-drive robot that drives up to a waypoint and turns in
        place there.  With this ordering a noiseless odometer reproduces
        the true path exactly whenever turns coincide with sample
        boundaries.
        """
        heading = self._heading
        distance = reading.distance
        self._x += distance * np.cos(heading)
        self._y += distance * np.sin(heading)
        self._heading = normalize_angles(heading + reading.heading_change)
        self._updates += 1


class ReckonerRow:
    """One robot's row of a :class:`DeadReckoning` block.

    Reads and writes go straight to the block's arrays, so the view is
    always current after the block advances.
    """

    __slots__ = ("block", "index")

    def __init__(self, block: DeadReckoning, index: int) -> None:
        self.block = block
        self.index = index

    @property
    def position(self) -> Vec2:
        """Current position estimate."""
        i = self.index
        return Vec2(float(self.block._x[i]), float(self.block._y[i]))

    @property
    def heading(self) -> float:
        """Current heading estimate (radians, normalized)."""
        return float(self.block._heading[self.index])

    @property
    def updates(self) -> int:
        """Number of increments applied since the last reset."""
        return int(self.block._updates[self.index])

    def reset(self, position: Vec2, heading: float = None) -> None:
        """Re-anchor the estimate, e.g. after an RF localization fix.

        Args:
            position: new position estimate.
            heading: new heading estimate; if omitted the current heading
                estimate is kept (an RF fix gives position, not orientation).
        """
        block, i = self.block, self.index
        block._x[i] = position.x
        block._y[i] = position.y
        if heading is not None:
            block._heading[i] = normalize_angle(heading)
        block._updates[i] = 0
