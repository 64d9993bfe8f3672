"""The discrete-event simulation engine.

A :class:`Simulator` owns a monotonically non-decreasing clock (float seconds)
and a priority queue of scheduled callbacks.  Events scheduled for the same
timestamp fire in FIFO order of scheduling, which keeps runs deterministic
regardless of floating-point tie-breaking.

The engine is intentionally callback-based rather than coroutine-based: the
protocols in this reproduction (beaconing, MAC backoff, multicast refresh)
are all timer-driven state machines, and callbacks keep the hot path cheap.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for invalid scheduler operations (e.g. scheduling in the past)."""


class Event:
    """A handle to a scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and may be cancelled
    with :meth:`cancel` at any time before they fire.  Cancelled events stay
    in the internal queue but are skipped when popped (lazy deletion), which
    keeps cancellation O(1).
    """

    __slots__ = (
        "time",
        "seq",
        "callback",
        "args",
        "name",
        "_cancelled",
        "_owner",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
        name: str,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.name = name
        self._cancelled = False
        # The scheduling Simulator, so cancel() can keep its live pending
        # counter exact without a queue scan.  None for bare Events built
        # outside a Simulator (tests).
        self._owner: Optional["Simulator"] = None

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` has been called."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent.

        Cancelling a handle whose event already fired is a no-op for the
        owner's live pending counter: the scheduler clears ``_owner``
        when it pops the event, so a late cancel cannot double-decrement.
        """
        if self._cancelled:
            return
        self._cancelled = True
        owner = self._owner
        if owner is not None:
            self._owner = None
            owner._pending -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "pending"
        return "Event(t=%.6f, name=%r, %s)" % (self.time, self.name, state)


class Simulator:
    """Deterministic discrete-event scheduler; its clock starts at 0 s.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, 'a')
        >>> _ = sim.schedule(0.5, fired.append, 'b')
        >>> sim.run(until=2.0)
        >>> fired
        ['b', 'a']
        >>> sim.now
        2.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        # Heap entries are (time, seq, event) tuples rather than bare
        # events: heapq then compares tuples in C instead of calling
        # Event.__lt__, with the exact same (time, seq) lexicographic
        # order (seq is unique, so the event object itself is never
        # compared).  At paper scale this removes hundreds of thousands
        # of Python-level comparison calls per run.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._max_queue_depth = 0
        self._pending = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events discarded from the queue so far.

        Counted at pop time (lazy deletion), so cancelled events still
        pending when the run ends are not included.
        """
        return self._events_cancelled

    @property
    def max_queue_depth(self) -> int:
        """High-water mark of the event queue (cancelled entries included)."""
        return self._max_queue_depth

    @property
    def pending_count(self) -> int:
        """Number of scheduled, not-yet-cancelled events.

        O(1): a live counter incremented on schedule and decremented on
        cancel/fire, so telemetry's queue-depth gauge can poll it on the
        hot path without scanning the queue.
        """
        return self._pending

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Args:
            delay: non-negative offset from the current time.
            callback: callable invoked when the event fires.
            *args: positional arguments passed to the callback.
            name: optional label used in tracing and ``repr``.

        Returns:
            An :class:`Event` handle that can be cancelled.

        Raises:
            SimulationError: if ``delay`` is negative or not finite.
        """
        if not delay >= 0.0:
            raise SimulationError(
                "cannot schedule in the past: delay=%r at t=%r"
                % (delay, self._now)
            )
        return self.schedule_at(self._now + delay, callback, *args, name=name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        Raises:
            SimulationError: if ``time`` precedes the current clock or is
                not finite.  (The ``not >=`` form catches NaN, which every
                ordinary comparison would silently wave through and which
                would then poison the queue order.)
        """
        if not (time >= self._now) or not math.isfinite(time):
            raise SimulationError(
                "cannot schedule at t=%r, clock at t=%r (need a finite "
                "time >= the clock)" % (time, self._now)
            )
        event = Event(float(time), next(self._seq), callback, args, name)
        event._owner = self
        self._pending += 1
        queue = self._queue
        heapq.heappush(queue, (event.time, event.seq, event))
        if len(queue) > self._max_queue_depth:
            self._max_queue_depth = len(queue)
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Process events in timestamp order.

        Args:
            until: if given, stop once the clock would pass this time and
                leave later events pending; the clock is advanced exactly to
                ``until``.  If omitted, run until the queue drains.

        Raises:
            SimulationError: if the simulator is re-entered from a callback,
                or if ``until`` precedes the current clock.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                "cannot run until t=%r, clock already at t=%r"
                % (until, self._now)
            )
        self._running = True
        queue = self._queue
        try:
            while queue:
                entry = queue[0]
                event = entry[2]
                if event._cancelled:
                    heapq.heappop(queue)
                    self._events_cancelled += 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heapq.heappop(queue)
                self._pending -= 1
                event._owner = None
                self._now = entry[0]
                self._events_processed += 1
                event.callback(*event.args)
            if until is not None:
                self._now = max(self._now, float(until))
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one pending event.

        Returns:
            True if an event was processed, False if the queue was empty.
        """
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            event = entry[2]
            if event._cancelled:
                self._events_cancelled += 1
                continue
            self._pending -= 1
            event._owner = None
            self._now = entry[0]
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def clear(self) -> None:
        """Drop all pending events without running them.

        Every dropped event is marked cancelled (so held handles report
        ``cancelled`` and a later ``cancel()`` stays a no-op), the live
        pending counter resets to zero, and — matching the historical
        semantics — nothing is added to :attr:`events_cancelled`, which
        only counts lazy discards at pop time.
        """
        for _, _, event in self._queue:
            event._cancelled = True
        self._queue.clear()
        self._pending = 0

    def __repr__(self) -> str:
        return "Simulator(now=%.6f, pending=%d)" % (
            self._now,
            self.pending_count,
        )
