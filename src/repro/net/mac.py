"""A CSMA/CA broadcast MAC.

Broadcast frames in 802.11 are sent without RTS/CTS or acknowledgements —
the sender carrier-senses, waits DIFS plus a random backoff, and transmits
once.  That is exactly the service CoCoA's beacons and MRMM's control
packets use (§2.3: "The RF beacon is sent via UDP broadcast"), and the
reason the paper sends ``k`` copies of each beacon: reliability comes from
repetition, not from MAC-level retransmission.

Simplifications relative to a full 802.11 DCF, documented here:

- the backoff counter is not frozen/resumed while the medium is busy; a
  busy medium defers the whole attempt by a fresh backoff,
- there is no exponential CW growth (broadcast frames never learn about
  collisions anyway — real DCF behaves the same for broadcast).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.net.channel import BroadcastChannel
from repro.net.packet import Packet
from repro.net.radio import Radio
from repro.sim.engine import Event, Simulator


#: 802.11b DCF timing (2 Mbps DSSS PHY): DCF inter-frame space, backoff
#: slot time and the broadcast contention window (CWmin, in slots).
DIFS_S = 50e-6
SLOT_S = 20e-6
CW_SLOTS = 31

#: Consecutive busy-medium deferrals before a frame is dropped (guards
#: against pathological congestion).
MAX_DEFERS = 50


class CsmaMac:
    """Per-node broadcast MAC: one outgoing queue, carrier sense, backoff.

    Args:
        sim: simulation engine.
        node_id: owning node.
        channel: the shared medium.
        radio: the node's radio (frames are dropped while it sleeps).
        rng: random stream for backoff draws.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        channel: BroadcastChannel,
        radio: Radio,
        rng: np.random.Generator,
    ) -> None:
        self._sim = sim
        self._node_id = node_id
        self._channel = channel
        self._radio = radio
        self._rng = rng
        self._queue: Deque[Packet] = deque()
        self._pending: Optional[Event] = None
        self._defers = 0
        self.frames_queued = 0
        self.frames_sent = 0
        self.frames_dropped = 0

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def send_broadcast(self, packet: Packet) -> None:
        """Queue a frame for broadcast transmission.

        Frames queued while the radio is asleep are dropped immediately —
        the coordination layer owns the schedule, and a protocol handing
        the MAC a frame outside its window has already lost the slot.
        """
        if not self._radio.is_awake:
            self.frames_dropped += 1
            return
        self._queue.append(packet)
        self.frames_queued += 1
        if self._pending is None:
            self._arm(initial=True)

    def flush(self) -> None:
        """Drop any queued frames and cancel the pending attempt."""
        self._queue.clear()
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._defers = 0

    def _backoff_s(self) -> float:
        slots = int(self._rng.integers(0, CW_SLOTS + 1))
        return DIFS_S + slots * SLOT_S

    def _arm(self, initial: bool) -> None:
        """Schedule the next transmission attempt after DIFS + backoff."""
        self._pending = self._sim.schedule(
            self._backoff_s(), self._attempt, name="mac-attempt"
        )
        if initial:
            self._defers = 0

    def _attempt(self) -> None:
        self._pending = None
        if not self._queue:
            return
        if not self._radio.is_awake:
            # Slept while a frame was queued: the window is gone.
            self.frames_dropped += len(self._queue)
            self._queue.clear()
            return
        if (
            self._radio.is_transmitting
            or self._radio.is_receiving
            or self._channel.medium_busy(self._node_id)
        ):
            self._defers += 1
            if self._defers >= MAX_DEFERS:
                self._queue.popleft()
                self.frames_dropped += 1
                self._defers = 0
                if self._queue:
                    self._arm(initial=True)
                return
            self._arm(initial=False)
            return
        packet = self._queue.popleft()
        airtime = self._channel.transmit(self._node_id, packet)
        self.frames_sent += 1
        self._defers = 0
        if self._queue:
            # Start contending for the next frame once this one is done.
            self._pending = self._sim.schedule(
                airtime + self._backoff_s(), self._attempt, name="mac-attempt"
            )
