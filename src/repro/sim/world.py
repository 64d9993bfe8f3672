"""Structure-of-arrays world state shared by mobility, radio, and channel.

:class:`WorldState` mirrors the per-node state the hot loops read most —
the active :class:`~repro.mobility.base.Leg` of every mobility model
(waypoint, scripted or stationary) and the power state of every
:class:`~repro.net.radio.Radio` — into flat NumPy blocks indexed by node
id.  Every :class:`~repro.net.channel.BroadcastChannel` owns one and adds
a row per registered node.  The per-node objects remain the owners of
their state; they *write through* to the mirror on every transition (leg
advancement, radio state change), so readers get bulk views without any
per-query object traffic:

- :meth:`positions_at` interpolates the whole team's positions in one
  vectorized pass (:meth:`poses_at` hands out the same pass as arrays,
  with every node's heading),
- :attr:`awake` / :attr:`transmitting` answer the channel's eligibility
  filter as boolean masks.

Bit-exactness contract (why reading the mirror changes no result):

- Leg interpolation uses the elementwise float64 expression
  ``start + (dest - start) * ((t - depart) / (arrive - depart))`` — the
  *same* IEEE-754 operations :meth:`~repro.mobility.base.Leg.position_at`
  performs scalar-wise, so every coordinate matches bit for bit (a
  property test pins this).  The travel time ``arrive - depart`` is
  stored per leg; a leg that takes no time (a robot resting in place)
  stores an infinite one, so no row ever divides by zero.  Clamp masks
  reproduce the scalar ``t <= depart`` / ``t >= arrive`` branches
  exactly.
- Stale rows (legs expired at the query time) are advanced through the
  owning mobility's own ``current_leg``, in ascending node order, so each
  node's RNG stream consumes exactly the draws its trajectory dictates.
  Per-node streams are independent, and the number of legs a trajectory
  has by time ``t`` is determined by the trajectory alone — not by who
  queried when — so advancing rows here instead of lazily is invisible
  to the science payload.
- The heading mirror is each leg's own :attr:`~repro.mobility.base.Leg.heading`,
  so it equals the pose heading of every row at the query time.
- Anything downstream that needs a *distance* still computes it with
  scalar ``math.hypot`` (``numpy.hypot`` is not bit-identical to it).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: The per-row arrays, each with the value a new row starts with: the
#: active leg (written through by its mobility model), then the radio
#: power state (written through by ``Radio._enter`` on every transition
#: that flips a mask; the IDLE<->RX flips of ``begin_receive`` and
#: ``finish_receive`` flip neither, so they skip the write).
_ROW_ARRAYS = {
    "_start_x": 0.0, "_start_y": 0.0, "_dest_x": 0.0, "_dest_y": 0.0,
    "_depart": 0.0, "_arrive": 0.0, "_span": 0.0, "_rest_until": 0.0,
    "_heading": 0.0, "awake": True, "transmitting": False,
}


class WorldState:
    """Shared SoA mirror of per-node kinematic and radio state.

    Rows are node ids, added in order by :meth:`bind_mobility`.  All
    arrays are owned by this object; writers go through :meth:`set_leg`
    and the radio's bound setters so the cached position snapshot can be
    invalidated.
    """

    def __init__(self) -> None:
        self.n = 0
        self._mobility: List[object] = []
        # Every per-row array is a view of the first n rows of a buffer
        # that doubles when full, so adding a row is no reallocation.
        self._buffers = {
            name: np.full(0, fill) for name, fill in _ROW_ARRAYS.items()
        }
        self._expose()
        # Cached position snapshot: arrays, plus the plain-float lists
        # (exact via tolist) made on first demand.
        self._pos_time: Optional[float] = None
        self._x = np.zeros(0)
        self._y = np.zeros(0)
        self._pos_lists: Optional[Tuple[List[float], List[float]]] = None

    def bind_mobility(self, row: int, mobility: object) -> None:
        """Add ``row``, whose trajectory ``mobility`` owns.

        The row starts awake and not transmitting; the owner writes its
        active leg through :meth:`set_leg` next.

        Raises:
            ValueError: if ``row`` is not the next row in order.
        """
        if row != self.n:
            raise ValueError(
                "world rows are added in order: the next is %d, got %r"
                % (self.n, row)
            )
        if row == len(self._buffers["awake"]):
            for name, fill in _ROW_ARRAYS.items():
                grown = np.full(2 * row + 1, fill)
                grown[:row] = self._buffers[name]
                self._buffers[name] = grown
        self._mobility.append(mobility)
        self.n += 1
        self._expose()
        self._pos_time = None

    def _expose(self) -> None:
        for name, buffer in self._buffers.items():
            setattr(self, name, buffer[: self.n])

    def set_leg(self, row: int, leg) -> None:
        """Write a node's newly active leg through to the mirror."""
        start = leg.start
        dest = leg.dest
        self._start_x[row] = start.x
        self._start_y[row] = start.y
        self._dest_x[row] = dest.x
        self._dest_y[row] = dest.y
        self._depart[row] = leg.depart_time
        self._arrive[row] = leg.arrive_time
        span = leg.arrive_time - leg.depart_time
        self._span[row] = span if span > 0.0 else math.inf
        self._rest_until[row] = leg.rest_until
        self._heading[row] = leg.heading
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
        if self._pos_lists is None:
            self._pos_lists = (self._x.tolist(), self._y.tolist())
        return self._pos_lists

    def poses_at(
        self, t: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`positions_at` as arrays, plus every node's heading.

        Same rules and same cached pass as :meth:`positions_at`.  The
        arrays belong to the world: read them before the next query and
        do not write to them.
        """
        if t != self._pos_time:
            self._refresh(t)
        return self._x, self._y, self._heading

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
        frac = (t - depart) / self._span
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
        self._x = x
        self._y = y
        self._pos_lists = None
        self._pos_time = t
