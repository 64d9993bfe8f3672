"""Recurring timers built on the event engine.

:class:`PeriodicTimer` drives the team's per-interval metric sampling
(:meth:`~repro.core.team.CoCoATeam.run`), its only user.  Beacon periods
and windows run on each robot's drifting clock through the
:class:`~repro.core.coordinator.Coordinator` instead, and the ``k``
beacons of a window are scheduled by the
:class:`~repro.core.beaconing.AnchorBeaconer`.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.sim.engine import Simulator


class PeriodicTimer:
    """Fire a callback every ``period`` seconds for the rest of the run.

    The callback receives the firing count (0-based).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[int], None],
        *,
        start_delay: float = 0.0,
        name: str = "periodic",
    ) -> None:
        # `not >` instead of `<=` so NaN is rejected too (NaN compares
        # False both ways and would otherwise slip through and feed the
        # scheduler a NaN delay on the first reschedule).
        if not (period > 0 and math.isfinite(period)):
            raise ValueError(
                "period must be positive and finite, got %r" % period
            )
        if not (start_delay >= 0 and math.isfinite(start_delay)):
            raise ValueError(
                "start_delay must be non-negative and finite, got %r"
                % start_delay
            )
        self._sim = sim
        self._period = period
        self._callback = callback
        self._name = name
        self._fires = 0
        sim.schedule(start_delay, self._fire, name=name)

    def _fire(self) -> None:
        count = self._fires
        self._fires += 1
        self._sim.schedule(self._period, self._fire, name=self._name)
        self._callback(count)
