"""Radio state machine with integrated energy accounting.

A :class:`Radio` owns the interface's power state.  Time spent in each state
is charged to the node's :class:`~repro.energy.meter.EnergyMeter` lazily: on
every state change the elapsed interval is billed to the *previous* state,
and :meth:`finalize` bills the tail at the end of a run.

State semantics follow the coordination design of §2.3:

- ``SLEEP`` — the CoCoA sleep mode (50 mW); the node can neither send nor
  receive, and waking charges a fixed transition cost.
- ``IDLE`` — awake, carrier-sensing but not transferring (900 mW); this is
  what the "CoCoA without coordination" baseline pays all period long.
- ``TX``/``RX`` — actively transferring; entered by the MAC/channel for the
  frame's airtime.
- ``OFF`` — not powered; used before deployment starts.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.energy.meter import EnergyMeter
from repro.energy.model import RadioState
from repro.sim.engine import Event, Simulator


class RadioError(RuntimeError):
    """Raised on invalid radio operations (e.g. transmitting while asleep)."""


#: States in which the radio can participate in communication.  A module
#: constant so the hot awake checks don't rebuild the tuple per call.
_AWAKE_STATES = (RadioState.IDLE, RadioState.TX, RadioState.RX)

#: The two states the per-reception methods test, as module aliases: on
#: Python 3.11 each ``RadioState.X`` lookup is a descriptor call costing
#: about as much as the rest of :meth:`Radio.finish_receive`.
_IDLE = RadioState.IDLE
_RX = RadioState.RX


class Radio:
    """One node's wireless interface power state; it starts in IDLE
    (deployed and awake).

    Args:
        sim: the simulation engine (for the clock and TX end events).
        meter: the node's energy meter.

    Attributes:
        receive_fault: the reception-fault gate (brownout injection), or
            ``None``.  ``receive_fault(now)`` returning True means the
            receive chain is deaf at that instant.  The node is not told:
            it keeps its schedule, keeps transmitting, and keeps paying
            energy for whatever state it is in — only decoding is
            suppressed (by the channel, which consults the gate at offer
            and delivery time).
    """

    def __init__(self, sim: Simulator, meter: EnergyMeter) -> None:
        self._sim = sim
        self._meter = meter
        self._state = RadioState.IDLE
        self._state_since = sim.now
        self._busy_until = sim.now
        self._end_event: Optional[Event] = None
        self.receive_fault: Optional[Callable[[float], bool]] = None
        # SoA mirror (see repro.sim.world); None when unbound.
        self._world = None
        self._world_row = 0

    @property
    def state(self) -> RadioState:
        return self._state

    @property
    def meter(self) -> EnergyMeter:
        return self._meter

    @property
    def is_awake(self) -> bool:
        """True when the radio can participate in communication."""
        return self._state in _AWAKE_STATES

    def bind_world(self, world, row: int) -> None:
        """Mirror this radio's power state into a shared SoA block.

        After binding, every state transition updates the world's
        ``awake``/``transmitting`` masks so the channel can filter
        receivers in bulk.

        Raises:
            ValueError: if the radio is already bound to a world (the
                first world's masks would silently go stale).
        """
        if self._world is not None:
            raise ValueError("radio is already bound to a world")
        self._world = world
        self._world_row = row
        world.awake[row] = self.is_awake
        world.transmitting[row] = self._state is RadioState.TX

    @property
    def is_transmitting(self) -> bool:
        return self._state is RadioState.TX

    @property
    def is_receiving(self) -> bool:
        return self._state is RadioState.RX

    def _bill_elapsed(self) -> None:
        now = self._sim.now
        elapsed = now - self._state_since
        if elapsed > 0.0:
            self._meter.charge_state(self._state, elapsed)
        self._state_since = now

    def _enter(self, state: RadioState) -> None:
        self._bill_elapsed()
        self._state = state
        world = self._world
        if world is not None:
            row = self._world_row
            world.awake[row] = state in _AWAKE_STATES
            world.transmitting[row] = state is RadioState.TX

    def sleep(self) -> None:
        """Enter sleep mode.  No-op if already asleep or off.

        An in-progress transmission or reception is abandoned: the schedule
        says sleep, so the radio sleeps (the coordinator only sleeps outside
        transmit windows, making this a corner case rather than the norm).
        """
        if self._state in (RadioState.SLEEP, RadioState.OFF):
            return
        self._cancel_busy()
        self._enter(RadioState.SLEEP)
        self._meter.charge_sleep_transition()

    def wake(self) -> None:
        """Leave sleep/off for IDLE, charging the wake transition cost.

        The model charges the fixed transition energy immediately; the
        transition *latency* is handled by the coordinator waking nodes a
        guard interval before they are needed.
        """
        if self.is_awake:
            return
        self._enter(RadioState.IDLE)
        self._meter.charge_wake_transition()

    def power_off(self) -> None:
        """Turn the interface off entirely."""
        if self._state is RadioState.OFF:
            return
        self._cancel_busy()
        self._enter(RadioState.OFF)

    def _cancel_busy(self) -> None:
        if self._end_event is not None:
            self._end_event.cancel()
            self._end_event = None
        self._busy_until = self._sim.now

    def begin_transmit(self, airtime_s: float) -> None:
        """Enter TX for ``airtime_s`` seconds, returning to IDLE after.

        Raises:
            RadioError: if the radio is asleep/off or already transmitting.
        """
        if not self.is_awake:
            raise RadioError("cannot transmit: radio is %s" % self._state.value)
        if self._state is RadioState.TX:
            raise RadioError("already transmitting")
        if airtime_s <= 0:
            raise ValueError("airtime_s must be positive, got %r" % airtime_s)
        self._cancel_busy()
        self._enter(RadioState.TX)
        self._busy_until = self._sim.now + airtime_s
        self._end_event = self._sim.schedule(
            airtime_s, self._end_transmit, name="tx-end"
        )

    def begin_receive(self, airtime_s: float) -> None:
        """Enter RX for ``airtime_s`` seconds (extends an ongoing RX).

        No end event is scheduled: the caller ends the reception with
        :meth:`finish_receive` once the busy window is over (the channel
        does so from each frame's single delivery event).  Half duplex:
        receiving while transmitting, asleep or off is ignored — the
        channel separately rules the frame undecodable for this node.

        An IDLE<->RX flip changes neither the awake nor the transmitting
        SoA mask, so both receive methods skip :meth:`_enter`'s mirror
        writes and bill the elapsed interval straight to the meter.
        """
        state = self._state
        if state is not _IDLE and state is not _RX:
            # TX (half duplex), SLEEP, or OFF: not receiving.
            return
        if airtime_s <= 0:
            raise ValueError("airtime_s must be positive, got %r" % airtime_s)
        now = self._sim.now
        end = now + airtime_s
        if state is _RX:
            if end > self._busy_until:
                self._busy_until = end
            return
        elapsed = now - self._state_since
        if elapsed > 0.0:
            self._meter.charge_idle(elapsed)
        self._state_since = now
        self._state = _RX
        self._busy_until = end

    def finish_receive(self) -> None:
        """End a reception whose busy window has elapsed.

        No-op unless the radio is in RX with its busy window over — a
        later overlapping frame may have extended the window (that
        frame's delivery will finish it), or the node may have slept or
        started transmitting in the meantime.
        """
        if self._state is _RX:
            now = self._sim.now
            if now >= self._busy_until:
                elapsed = now - self._state_since
                if elapsed > 0.0:
                    self._meter.charge_rx(elapsed)
                self._state_since = now
                self._state = _IDLE

    def _end_transmit(self) -> None:
        self._end_event = None
        if self._state is RadioState.TX:
            self._enter(RadioState.IDLE)

    def finalize(self) -> None:
        """Bill the time since the last state change (call at run end)."""
        self._bill_elapsed()
