"""The energy-efficient coordination layer (§2.3).

Time is divided into beacon periods ``T``; a transmit window ``t`` opens at
the start of each.  Every robot follows the schedule on its *own drifting
clock*:

- it wakes its radio a guard interval before its local window start (the
  guard covers worst-case relative clock drift — this is what makes the
  synchronization requirement "coarse-grained"),
- anchors transmit their ``k`` beacons inside the window and unknowns run
  the localization algorithm,
- the designated Sync robot refreshes the MRMM mesh and multicasts a SYNC
  message carrying the current ``T`` and ``t`` ("This allows a human
  operator to dynamically adjust these values"),
- after the window (plus a short slack for SYNC traffic) every radio goes
  to sleep until the next period.

With coordination disabled (the paper's §4.3.1 energy baseline) the same
schedule runs but radios stay idle instead of sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.clock import DriftingClock
from repro.net.interface import NetworkInterface
from repro.sim.engine import Simulator
from repro.telemetry.spans import Span, SpanTracer

#: SYNC body: T (8) + t (8) + seq (4) + reference timestamp (8).
SYNC_BODY_BYTES = 28
SYNC_KIND = "sync"
#: The team's wake guard as a fraction of the beacon period.  Two clocks
#: drift apart at up to twice
#: :data:`~repro.core.clock.MAX_CLOCK_DRIFT_RATE`, and the guard covers
#: that, or beacon windows would be missed.
GUARD_FRACTION = 0.04


@dataclass(frozen=True)
class SyncPayload:
    """Contents of a SYNC message.

    Attributes:
        period_s: the beacon period ``T`` every robot should follow.
        window_s: the transmit window ``t``.
        seq: monotonically increasing per Sync robot.
        reference_local_time: the Sync robot's clock reading at send time;
            receivers re-anchor their clocks to it (the residual error is
            the mesh propagation delay — hence *coarse* synchronization).
        source_id: the sending Sync robot's node id; the failover
            extension uses it to resolve contention between would-be Sync
            robots (lowest id wins).
    """

    period_s: float
    window_s: float
    seq: int
    reference_local_time: float
    source_id: int = -1


class Coordinator:
    """One robot's wake/sleep and window schedule.

    The coordinator runs three lists of hooks, each in registration order:

    - window-open hooks at radio wake-up (the localization filter resets
      here so that early beacons from fast-clocked anchors still count),
    - window-start hooks at the nominal local window start (anchors begin
      beaconing; the Sync robot refreshes the mesh and sends SYNC),
    - window-close hooks at window start + ``t`` (unknowns finalize their
      fix).

    The team registers its own duties first, so extensions that hook in
    afterwards run after them.

    Args:
        sim: simulation engine.
        clock: this robot's local clock.
        interface: the robot's network attachment (radio control).
        period_s: initial beacon period ``T``.
        window_s: initial transmit window ``t``.
        guard_s: how early (local time) to wake before the window.
        sync_slack_s: how long after window close the radio stays awake.
        coordination: sleep between windows (True) or stay idle (False).
        resync_after_silent_periods: if set, a node that has not heard a
            SYNC for this many consecutive periods stops sleeping and
            keeps its radio on until one arrives.  Without this, a node
            whose clock drifts past the guard during a SYNC outage (e.g.
            a dead Sync robot) can desynchronize *permanently* — its wake
            windows never overlap the team's again.  Costs idle energy
            only while desynchronized.
    """

    def __init__(
        self,
        sim: Simulator,
        clock: DriftingClock,
        interface: NetworkInterface,
        period_s: float,
        window_s: float,
        guard_s: float,
        sync_slack_s: float = 0.5,
        coordination: bool = True,
        resync_after_silent_periods: Optional[int] = None,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        if window_s <= 0 or period_s <= window_s:
            raise ValueError(
                "need 0 < window_s < period_s, got %r / %r"
                % (window_s, period_s)
            )
        if guard_s < 0 or sync_slack_s < 0:
            raise ValueError("guard/slack must be non-negative")
        self._sim = sim
        self._clock = clock
        self._interface = interface
        self._period_s = period_s
        self._window_s = window_s
        self._guard_s = guard_s
        self._sync_slack_s = sync_slack_s
        self._coordination = coordination
        if (
            resync_after_silent_periods is not None
            and resync_after_silent_periods < 1
        ):
            raise ValueError(
                "resync_after_silent_periods must be >= 1 or None, got %r"
                % resync_after_silent_periods
            )
        self._resync_after = resync_after_silent_periods
        self._window_open_hooks: List[Callable[[], None]] = []
        self._window_start_hooks: List[Callable[[], None]] = []
        self._window_close_hooks: List[Callable[[], None]] = []
        self._silent_periods = 0
        self._syncs_at_last_period = 0
        #: Set by a node that *is* the Sync source: its own silence is not
        #: desynchronization.
        self.suppress_resync = False
        self.resync_periods = 0
        self.windows_run = 0
        self.syncs_received = 0
        self._started = False
        self._stopped = False
        #: Optional rich-telemetry tracer; when set, each beacon period is
        #: recorded as a "beacon_round" span (wake to sleep, sim time) that
        #: per-node receive events parent to via :attr:`window_span`.
        self._tracer = tracer
        self.window_span: Optional[Span] = None

    @property
    def period_s(self) -> float:
        return self._period_s

    @property
    def window_s(self) -> float:
        return self._window_s

    @property
    def coordination(self) -> bool:
        return self._coordination

    @property
    def clock(self) -> DriftingClock:
        return self._clock

    @property
    def resync_after(self) -> Optional[int]:
        """Silent periods before the radio stops sleeping to re-acquire
        SYNC (``None`` disables resync mode)."""
        return self._resync_after

    @resync_after.setter
    def resync_after(self, periods: Optional[int]) -> None:
        if periods is not None and periods < 1:
            raise ValueError(
                "resync_after must be >= 1 or None, got %r" % periods
            )
        self._resync_after = periods

    def add_window_open_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at every radio wake-up, after the hooks already
        registered."""
        self._window_open_hooks.append(hook)

    def add_window_start_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at every window start, after the hooks already
        registered.

        This is the public extension point the team and its extensions
        (failover, beacon promotion, application traffic) attach to;
        hooks survive parameter changes via SYNC.
        """
        self._window_start_hooks.append(hook)

    def add_window_close_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at every window close, after the hooks already
        registered."""
        self._window_close_hooks.append(hook)

    def start(self) -> None:
        """Begin the schedule; the first window opens immediately.

        Raises:
            RuntimeError: if already started.
        """
        if self._started:
            raise RuntimeError("coordinator already started")
        self._started = True
        self._sim.schedule(0.0, self._window_open_phase, name="coord-start")

    def stop(self) -> None:
        """Halt the schedule permanently (robot failure).  Idempotent."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        return self._stopped

    def on_sync(self, payload: SyncPayload) -> None:
        """Handle a received SYNC message: re-synchronize and adopt T/t.

        Parameter changes take effect from the next period; the current
        period finishes on the old schedule.
        """
        self.syncs_received += 1
        self._clock.synchronize(self._sim.now, payload.reference_local_time)
        if payload.period_s > payload.window_s > 0:
            self._period_s = payload.period_s
            self._window_s = payload.window_s

    # -- schedule chain ------------------------------------------------------

    def _schedule_at_local(self, local_time: float, callback, name: str) -> None:
        true_time = self._clock.true_time_of(local_time)
        self._sim.schedule_at(max(true_time, self._sim.now), callback, name=name)

    def _current_window_start_local(self) -> float:
        """Local time of the window the robot is currently handling."""
        local_now = self._clock.local_time(self._sim.now)
        # Guard wake-ups land just before the boundary; round to nearest.
        index = round(local_now / self._period_s)
        return index * self._period_s

    def _window_open_phase(self) -> None:
        if self._stopped:
            return
        self._interface.wake()
        self.windows_run += 1
        if self._tracer is not None:
            self.window_span = self._tracer.start_span(
                self._sim.now,
                "beacon_round",
                node=self._interface.node_id,
                attrs={"window": self.windows_run},
            )
        for hook in self._window_open_hooks:
            hook()
        start_local = self._current_window_start_local()
        self._schedule_at_local(
            start_local, self._window_start_phase, "coord-window-start"
        )

    def _window_start_phase(self) -> None:
        if self._stopped:
            return
        for hook in self._window_start_hooks:
            hook()
        start_local = self._current_window_start_local()
        self._schedule_at_local(
            start_local + self._window_s,
            self._window_close_phase,
            "coord-window-close",
        )

    def _window_close_phase(self) -> None:
        if self._stopped:
            return
        for hook in self._window_close_hooks:
            hook()
        local_now = self._clock.local_time(self._sim.now)
        self._schedule_at_local(
            local_now + self._sync_slack_s,
            self._period_end_phase,
            "coord-period-end",
        )

    def _in_resync_mode(self) -> bool:
        """True when the node should skip sleeping to re-acquire SYNC."""
        if self._resync_after is None or self.suppress_resync:
            return False
        if self.syncs_received > self._syncs_at_last_period:
            self._silent_periods = 0
        else:
            self._silent_periods += 1
        self._syncs_at_last_period = self.syncs_received
        return self._silent_periods >= self._resync_after

    def _period_end_phase(self) -> None:
        if self._stopped:
            return
        if self._tracer is not None and self.window_span is not None:
            self._tracer.end_span(self.window_span, self._sim.now)
            self.window_span = None
        resyncing = self._in_resync_mode()
        if resyncing:
            self.resync_periods += 1
        if self._coordination and not resyncing:
            self._interface.sleep()
        local_now = self._clock.local_time(self._sim.now)
        next_start_local = (
            int(local_now / self._period_s) + 1
        ) * self._period_s
        wake_local = next_start_local - self._guard_s
        self._schedule_at_local(
            max(wake_local, local_now),
            self._window_open_phase,
            "coord-wake",
        )
