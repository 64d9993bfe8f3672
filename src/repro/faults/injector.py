"""The fault injector: wires fault models into the net stack.

One :class:`FaultInjector` per team interprets a
:class:`~repro.faults.spec.FaultPlan`.  The
:class:`~repro.net.channel.BroadcastChannel` consults it at its two
decision points (frame offer and frame delivery) and the team attaches
its per-radio brownout gates at build time.  When the plan is a no-op
the team never constructs an injector at all, so the unfaulted code path
is untouched.

RNG discipline: the channel-wide burst process draws from the
``fault-burst`` stream; every node-scoped model draws from its own
``fault-*/<node_id>`` stream, created lazily on first touch.  All of
these are new named streams, so enabling faults never perturbs mobility,
PHY, MAC or odometry draws — and disabling them reproduces the baseline
bit-identically.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.models import (
    BrownoutGenerator,
    GilbertElliottChannel,
    PayloadCorrupter,
    RadioCalibrationFault,
)
from repro.faults.spec import FaultPlan
from repro.net.packet import BEACON_KIND, Packet
from repro.net.radio import Radio
from repro.sim.rng import RandomStreams


class FaultInjector:
    """Runtime interpreter of a :class:`FaultPlan`.

    Args:
        plan: the fault configuration.
        streams: the team's named RNG streams (fault models spawn their
            own sub-streams from it).
        crc_check: the CRC defense toggle — with it on, corrupted frames
            are dropped at the channel instead of delivered.
    """

    def __init__(
        self,
        plan: FaultPlan,
        streams: RandomStreams,
        crc_check: bool = False,
    ) -> None:
        self.plan = plan
        self.crc_check = crc_check
        self._streams = streams
        self._burst: Optional[GilbertElliottChannel] = None
        if plan.burst.enabled:
            self._burst = GilbertElliottChannel(
                plan.burst, streams.get("fault-burst")
            )
        self._calibrations: Dict[int, RadioCalibrationFault] = {}
        self._corrupters: Dict[int, PayloadCorrupter] = {}
        self._brownouts: Dict[int, BrownoutGenerator] = {}

    # -- per-node model factories (lazy, order-independent seeding) ---------

    def _calibration_for(self, node_id: int) -> RadioCalibrationFault:
        fault = self._calibrations.get(node_id)
        if fault is None:
            fault = RadioCalibrationFault(
                self.plan.rssi_bias,
                self._streams.spawn("fault-bias", node_id),
            )
            self._calibrations[node_id] = fault
        return fault

    def _corrupter_for(self, node_id: int) -> PayloadCorrupter:
        corrupter = self._corrupters.get(node_id)
        if corrupter is None:
            corrupter = PayloadCorrupter(
                self.plan.corruption.corrupt_prob,
                self._streams.spawn("fault-corrupt", node_id),
            )
            self._corrupters[node_id] = corrupter
        return corrupter

    # -- wiring -------------------------------------------------------------

    def attach_radio(self, node_id: int, radio: Radio) -> None:
        """Install this node's brownout gate on its radio (if targeted)."""
        if not (self.plan.brownout.enabled and self.plan.targets(node_id)):
            return
        generator = BrownoutGenerator(
            self.plan.brownout, self._streams.spawn("fault-brownout", node_id)
        )
        self._brownouts[node_id] = generator
        radio.receive_fault = generator.is_deaf

    # -- channel hooks ------------------------------------------------------

    def offer_rssi(
        self, now: float, src_id: int, dst_id: int, rssi_dbm: float
    ) -> Optional[float]:
        """Burst interference verdict for one offered frame.

        Returns the *effective* RSSI the receiver decodes against
        (``rssi`` minus any noise-floor elevation), or ``None`` when the
        frame is jammed outright.
        """
        if self._burst is None:
            return rssi_dbm
        penalty_db = self._burst.offer(now)
        if penalty_db is None:
            return None
        return rssi_dbm - penalty_db

    def reported_rssi(
        self, now: float, src_id: int, rssi_dbm: float
    ) -> float:
        """The RSSI a receiver measures for a frame from a (possibly
        miscalibrated) transmitter.

        The fault is transmit-side — a power amplifier whose output
        drifted from the value the offline calibration assumed — so it
        is keyed by the *sender*: every receiver in the team sees the
        same systematic offset on that sender's frames, which is exactly
        the signature the estimator's residual quarantine looks for.
        """
        if not (
            self.plan.rssi_bias.enabled and self.plan.targets(src_id)
        ):
            return rssi_dbm
        return self._calibration_for(src_id).reported_rssi(now, rssi_dbm)

    def _corruptible(self, dst_id: int, packet: Packet) -> bool:
        return (
            self.plan.corruption.enabled
            and self.plan.targets(dst_id)
            and packet.kind == BEACON_KIND
        )

    def maybe_corrupt(
        self, now: float, dst_id: int, packet: Packet
    ) -> Optional[Packet]:
        """Return a payload-damaged copy of ``packet``, or ``None``.

        Only beacon packets are eligible: the modelled fault is silent
        corruption of the localization-critical payload in the receive
        path, not channel-wide bit errors (the PHY loss models cover
        those).  The damaged copy records the sent payload's checksum, so
        ``crc_ok`` is False on it — exactly what a real CRC over a
        damaged payload looks like.
        """
        if not self._corruptible(dst_id, packet):
            return None
        damaged = self._corrupter_for(dst_id).maybe_corrupt(packet.payload)
        if damaged is None:
            return None
        return packet.damaged_copy(damaged)

    def corrupts(self, now: float, dst_id: int, packet: Packet) -> bool:
        """The verdict of :meth:`maybe_corrupt` without the damaged copy.

        With ``crc_check`` on, the channel drops every damaged frame at
        once, so it only needs to know whether the frame was damaged.
        This makes the same draws from the receiver's ``fault-corrupt``
        stream as :meth:`maybe_corrupt`, so either call leaves the stream
        in the same state.
        """
        return self._corruptible(dst_id, packet) and self._corrupter_for(
            dst_id
        ).corrupts(packet.payload)
