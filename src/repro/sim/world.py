"""Structure-of-arrays world state shared by mobility, radio, and channel.

:class:`WorldState` mirrors the per-node state the hot loops read most —
the active trajectory leg of every :class:`~repro.mobility.waypoint.WaypointMobility`
and the power state of every :class:`~repro.net.radio.Radio` — into flat
NumPy blocks indexed by node id.  The per-node objects remain the owners
of their state; they *write through* to the mirror on every transition
(leg advancement, radio state change), so readers get bulk views without
any per-query object traffic:

- :meth:`positions_at` interpolates the whole team's positions in one
  vectorized pass, and
- :attr:`awake` / :attr:`transmitting` answer the channel's eligibility
  filter as boolean masks.

Bit-exactness contract (why reading the mirror changes no result):

- Leg interpolation uses the elementwise float64 expression
  ``start + (dest - start) * ((t - depart) / (arrive - depart))`` — the
  *same* IEEE-754 operations :meth:`~repro.mobility.waypoint.Leg.position_at`
  performs scalar-wise, so every coordinate matches bit for bit (a
  property test pins this).  Clamp masks reproduce the scalar
  ``t <= depart`` / ``t >= arrive`` branches exactly.
- Stale rows (legs expired at the query time) are advanced through the
  owning mobility's own ``current_leg``, in ascending node order, so each
  node's RNG stream consumes exactly the draws its trajectory dictates.
  Per-node streams are independent, and the number of legs a trajectory
  has by time ``t`` is determined by the trajectory alone — not by who
  queried when — so advancing rows here instead of lazily is invisible
  to the science payload.
- Anything downstream that needs a *distance* still computes it with
  scalar ``math.hypot`` (``numpy.hypot`` is not bit-identical to it).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np


class WorldState:
    """Shared SoA mirror of per-node kinematic and radio state.

    Rows are node ids: the team wires node ``i`` to row ``i``.  All
    arrays are owned by this object; writers go through :meth:`set_leg`
    and the radio's bound setters so the cached position snapshot can be
    invalidated.
    """

    def __init__(self, n_nodes: int) -> None:
        n = int(n_nodes)
        if n < 1:
            raise ValueError("n_nodes must be >= 1, got %r" % n_nodes)
        self.n = n
        self._mobility: List[Optional[object]] = [None] * n
        # Active-leg parameters, written through by WaypointMobility.
        self._start_x = np.zeros(n)
        self._start_y = np.zeros(n)
        self._dest_x = np.zeros(n)
        self._dest_y = np.zeros(n)
        self._depart = np.zeros(n)
        self._arrive = np.full(n, math.inf)
        self._rest_until = np.full(n, math.inf)
        # Radio power-state mirror, written through by Radio._enter.
        self.awake = np.ones(n, dtype=bool)
        self.transmitting = np.zeros(n, dtype=bool)
        # Cached position snapshot (plain-float lists, exact via tolist).
        self._pos_time: Optional[float] = None
        self._pos_x: List[float] = []
        self._pos_y: List[float] = []

    def bind_mobility(self, row: int, mobility: object) -> None:
        """Attach the mobility model that owns ``row``'s trajectory."""
        self._mobility[row] = mobility

    def set_leg(
        self,
        row: int,
        start_x: float,
        start_y: float,
        dest_x: float,
        dest_y: float,
        depart_time: float,
        arrive_time: float,
        rest_until: float,
    ) -> None:
        """Write a node's newly active leg through to the mirror."""
        self._start_x[row] = start_x
        self._start_y[row] = start_y
        self._dest_x[row] = dest_x
        self._dest_y[row] = dest_y
        self._depart[row] = depart_time
        self._arrive[row] = arrive_time
        self._rest_until[row] = rest_until
        self._pos_time = None

    def positions_at(self, t: float) -> Tuple[Sequence[float], Sequence[float]]:
        """All node positions at simulation time ``t``, as float lists.

        ``t`` must be non-decreasing across calls interleaved with other
        position queries (simulation time is), because expired legs are
        advanced through their owners.  The snapshot is cached per
        distinct ``t``, so the several subsystems sampling the same
        instant pay for one pass.
        """
        if t != self._pos_time:
            self._refresh(t)
        return self._pos_x, self._pos_y

    def _refresh(self, t: float) -> None:
        stale = np.flatnonzero(self._rest_until <= t)
        for row in stale.tolist():
            # current_leg advances the trajectory and writes the new leg
            # back through set_leg.
            self._mobility[row].current_leg(t)
        depart = self._depart
        arrive = self._arrive
        start_x = self._start_x
        start_y = self._start_y
        frac = (t - depart) / (arrive - depart)
        x = start_x + (self._dest_x - start_x) * frac
        y = start_y + (self._dest_y - start_y) * frac
        # Reproduce Leg.position_at's clamp branches exactly: at or past
        # arrival the position IS dest; at or before departure it IS
        # start (no interpolation arithmetic involved).
        arrived = t >= arrive
        waiting = t <= depart
        np.copyto(x, self._dest_x, where=arrived)
        np.copyto(y, self._dest_y, where=arrived)
        np.copyto(x, start_x, where=waiting)
        np.copyto(y, start_y, where=waiting)
        self._pos_x = x.tolist()
        self._pos_y = y.tolist()
        self._pos_time = t
