"""The shared broadcast medium.

:class:`BroadcastChannel` connects every node's radio through the
:class:`~repro.net.phy.PathLossModel`.  A transmission is delivered
independently to each receiver that

1. is awake for the frame's whole airtime,
2. samples an RSSI at or above its sensitivity,
3. is not itself transmitting during the frame (half duplex), and
4. survives capture: its sampled RSSI must exceed the summed power of all
   overlapping foreign transmissions by the capture threshold.

Each (transmitter, receiver, frame) triple samples the RSSI noise once; the
delivered value is exactly what the localization algorithm later looks up in
the PDF Table, so ranging error in the localization results comes from the
same channel realization that decided reception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.mobility.base import MobilityModel
from repro.net.packet import Packet, ReceivedPacket
from repro.net.phy import PathLossModel, ReceiverModel
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.world import WorldState
from repro.telemetry.spans import SpanTracer
from repro.util.geometry import Vec2
from repro.util.units import dbm_to_mw, mw_to_dbm

ReceiveCallback = Callable[[ReceivedPacket], None]

#: 802.11b long preamble + PLCP header airtime in seconds.
PREAMBLE_S = 192e-6


@dataclass
class Transmission:
    """One frame on the air."""

    src: int
    packet: Packet
    start: float
    end: float
    src_position: Vec2


@dataclass
class _NodeEntry:
    node_id: int
    mobility: MobilityModel
    radio: Radio
    receiver: ReceiverModel
    on_receive: ReceiveCallback
    #: Carrier-sense distance guard band, precomputed at registration by
    #: inverting the (monotone) mean path loss at the CS threshold.  At
    #: distances at or below ``cs_dist_lo`` the medium is certainly busy;
    #: at or beyond ``cs_dist_hi`` it certainly is not; only the narrow
    #: band in between (1e-9 relative — six orders of magnitude wider
    #: than the inversion's float error) falls back to the exact
    #: ``mean_rssi``/``senses_busy`` computation.
    cs_dist_lo: float = 0.0
    cs_dist_hi: float = 0.0


@dataclass
class ChannelStats:
    """Counters the energy/efficiency analyses read after a run.

    The last four counters only move when a
    :class:`~repro.faults.injector.FaultInjector` is installed.
    """

    frames_sent: int = 0
    frames_offered: int = 0
    frames_delivered: int = 0
    frames_below_sensitivity: int = 0
    frames_collided: int = 0
    frames_missed_asleep: int = 0
    frames_missed_half_duplex: int = 0
    frames_jammed: int = 0
    frames_missed_brownout: int = 0
    frames_corrupted: int = 0
    frames_crc_dropped: int = 0
    airtime_s: float = 0.0


class BroadcastChannel:
    """The wireless medium shared by all robots.

    The channel owns the :class:`~repro.sim.world.WorldState` its nodes
    are mirrored into (:attr:`world`): registering node ``i`` adds row
    ``i`` and binds the node's mobility model and radio to it.

    Args:
        sim: simulation engine.
        path_loss: the channel's signal model.
        rng: random stream for RSSI noise.
        bitrate_bps: physical bitrate (paper: 2 Mbps).
        preamble_s: fixed per-frame preamble airtime.
        trace: optional sim tracer (the team's telemetry tracer, or
            ``None``); records the ``channel.tx``, ``channel.rx`` and
            ``channel.collision`` categories it has enabled.
    """

    def __init__(
        self,
        sim: Simulator,
        path_loss: PathLossModel,
        rng: np.random.Generator,
        bitrate_bps: float = 2e6,
        preamble_s: float = PREAMBLE_S,
        trace: Optional[SpanTracer] = None,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError(
                "bitrate_bps must be positive, got %r" % bitrate_bps
            )
        self._sim = sim
        self._path_loss = path_loss
        self._rng = rng
        self._bitrate = bitrate_bps
        self._preamble_s = preamble_s
        #: Registered nodes; node ``i`` is entry ``i`` and world row ``i``.
        self._nodes: List[_NodeEntry] = []
        self._transmissions: List[Transmission] = []
        self._trace = trace
        self._faults = None
        self.world = WorldState()
        self.stats = ChannelStats()

    def install_faults(self, injector) -> None:
        """Attach a :class:`~repro.faults.injector.FaultInjector`.

        The channel consults it at its two decision points: frame offer
        (burst jamming / noise-floor elevation before the decode check)
        and frame delivery (payload corruption, CRC verdict, and the
        receiver's reported RSSI).  Without an injector none of these
        paths execute.
        """
        self._faults = injector

    @property
    def path_loss(self) -> PathLossModel:
        return self._path_loss

    @property
    def node_ids(self) -> List[int]:
        return list(range(len(self._nodes)))

    def register(
        self,
        node_id: int,
        mobility: MobilityModel,
        radio: Radio,
        receiver: ReceiverModel,
        on_receive: ReceiveCallback,
    ) -> None:
        """Attach a node to the medium, as row ``node_id`` of :attr:`world`.

        Nodes register in id order: ``node_id`` must be the number of
        nodes registered so far.

        Raises:
            ValueError: if the node id is already registered or out of
                order, or if the mobility model or radio is already bound
                to a world.
        """
        if node_id != len(self._nodes):
            raise ValueError(
                "cannot register node %r: nodes register in id order and "
                "the next id is %d" % (node_id, len(self._nodes))
            )
        mobility.bind_world(self.world, node_id)
        radio.bind_world(self.world, node_id)
        cs_dist = self._path_loss.distance_for_mean_rssi(
            receiver.carrier_sense_dbm
        )
        self._nodes.append(_NodeEntry(
            node_id,
            mobility,
            radio,
            receiver,
            on_receive,
            cs_dist_lo=cs_dist * (1.0 - 1e-9),
            cs_dist_hi=cs_dist * (1.0 + 1e-9),
        ))

    def airtime_s(self, size_bytes: int) -> float:
        """Airtime of a frame: preamble plus payload serialization."""
        return self._preamble_s + (size_bytes * 8.0) / self._bitrate

    def medium_busy(self, node_id: int) -> bool:
        """Carrier sense: does ``node_id`` hear energy above its CS threshold?

        Uses mean (noise-free) RSSI — carrier sensing integrates energy over
        time, which averages fast fading out.  Since mean path loss is
        monotone in distance, the threshold comparison happens in distance
        space against the guard band precomputed at registration; only
        distances inside the band pay for the exact ``mean_rssi`` call.
        """
        now = self._sim.now
        self._prune(now)
        if not self._transmissions:
            # Nothing on the air: skip the mobility query entirely (pose
            # queries are pure and lazy, so skipping one is unobservable).
            return False
        entry = self._nodes[node_id]
        position = entry.mobility.position(now)
        for tx in self._transmissions:
            if tx.src == node_id:
                continue
            if tx.start <= now < tx.end:
                distance = max(position.distance_to(tx.src_position), 1.0)
                if distance <= entry.cs_dist_lo:
                    return True
                if distance >= entry.cs_dist_hi:
                    continue
                rssi = self._path_loss.mean_rssi(distance)
                if entry.receiver.senses_busy(rssi):
                    return True
        return False

    def transmit(self, src_id: int, packet: Packet) -> float:
        """Put a frame on the air from ``src_id``.

        Returns the frame airtime.  The source radio must be awake; the MAC
        guarantees this.

        Raises:
            KeyError: if the source is not registered.
        """
        entry = self._nodes[src_id]
        now = self._sim.now
        airtime = self.airtime_s(packet.size_bytes)
        src_position = entry.mobility.position(now)
        tx = Transmission(src_id, packet, now, now + airtime, src_position)
        self._prune(now)
        self._transmissions.append(tx)
        entry.radio.begin_transmit(airtime)
        entry.radio.meter.charge_send(packet.size_bytes)
        self.stats.frames_sent += 1
        self.stats.airtime_s += airtime
        trace = self._trace
        if trace is not None and trace.enabled("channel.tx"):
            trace.event(now, "channel.tx", src_id,
                        attrs={"kind": packet.kind, "uid": packet.uid})

        self._offer(tx, airtime)
        return airtime

    def _offer(self, tx: Transmission, airtime: float) -> None:
        """Offer ``tx`` to every other node and start the receptions.

        Per receiver, in node order, the medium applies the eligibility
        filters (asleep, browned out, half duplex; :meth:`_eligible`
        runs them over the world's arrays), one RSSI draw from
        the channel stream, the fault verdict and the decode threshold.
        The filters never depend on the draw, the draws never depend on
        the filters' side effects (the counters), and fault draws come
        from their own streams, so all filters run first, every
        surviving receiver's RSSI is sampled in one batched draw
        (:meth:`~repro.net.phy.PathLossModel.sample_rssi_batch` replays
        the scalar draw order exactly), and the survivors are then
        walked for the fault/decode step, still in node order.

        Each decoding receiver enters RX through
        :meth:`Radio.begin_receive <repro.net.radio.Radio.begin_receive>`
        (eligibility admits only IDLE or RX radios, and nothing between
        the scan and this walk changes radio state).  There is no
        per-receiver rx-end event: the frame's single delivery event
        (:meth:`_deliver_frame`), at the end of the airtime, releases
        them all.
        """
        now = self._sim.now
        eligible, distances = self._eligible(tx, now)
        if not eligible:
            return
        rssi_batch = self._path_loss.sample_rssi_batch(
            np.asarray(distances), self._rng
        )
        faults = self._faults
        stats = self.stats
        pending: List[Tuple[_NodeEntry, float]] = []
        for receiver, sampled in zip(eligible, rssi_batch):
            rssi = float(sampled)
            effective_rssi = rssi
            if faults is not None:
                offered = faults.offer_rssi(
                    now, tx.src, receiver.node_id, rssi
                )
                if offered is None:
                    stats.frames_jammed += 1
                    continue
                effective_rssi = offered
            # Inlined ReceiverModel.can_decode (rssi >= sensitivity);
            # sampled RSSI is always finite, so the negated comparison
            # is exact.
            if effective_rssi < receiver.receiver.sensitivity_dbm:
                stats.frames_below_sensitivity += 1
                continue
            receiver.radio.begin_receive(airtime)
            pending.append((receiver, rssi))
        if pending:
            self._sim.schedule(
                airtime, self._deliver_frame, tx, pending, name="deliver"
            )

    def _eligible(
        self, tx: Transmission, now: float
    ) -> Tuple[List[_NodeEntry], List[float]]:
        """The receivers of ``tx`` that pass the eligibility filters, in
        node order, with their distances to the source.

        One pass over the world's structure-of-arrays state.  Every
        other node is offered the frame; per receiver the filters run in
        a fixed order — asleep (the ``awake`` mask, a write-through
        mirror of the radio state), browned out (the radio's reception
        fault gate, consulted for awake rows only), then half duplex
        (the ``transmitting`` mask) — and each miss counts once.  The
        world refreshes *every* node's position, eligible or not —
        invisible, because a trajectory's leg draws by time ``t`` do not
        depend on who queries it when.  Distances go through scalar
        ``math.hypot``, matching ``Vec2.distance_to`` bit for bit
        (``np.hypot`` and ``sqrt(dx*dx + dy*dy)`` are not).
        """
        entries = self._nodes
        world = self.world
        awake = world.awake
        stats = self.stats
        stats.frames_offered += world.n - 1
        stats.frames_missed_asleep += world.n - int(awake.sum())
        transmitting = world.transmitting.tolist()
        xs, ys = world.positions_at(now)
        src = tx.src
        src_x = tx.src_position.x
        src_y = tx.src_position.y
        hypot = math.hypot
        eligible = []
        distances = []
        for row in np.flatnonzero(awake).tolist():
            if row == src:
                continue
            receiver = entries[row]
            gate = receiver.radio.receive_fault
            if gate is not None and gate(now):
                stats.frames_missed_brownout += 1
                continue
            if transmitting[row]:
                stats.frames_missed_half_duplex += 1
                continue
            eligible.append(receiver)
            distances.append(max(hypot(xs[row] - src_x, ys[row] - src_y), 1.0))
        return eligible, distances

    def _deliver_frame(
        self, tx: Transmission, pending: List[Tuple[_NodeEntry, float]]
    ) -> None:
        """End one frame's receptions and deliver it, in node order.

        Every pending radio is released first through
        :meth:`Radio.finish_receive <repro.net.radio.Radio.finish_receive>`
        (a radio whose busy window a later overlapping frame extended
        keeps receiving; that frame's own delivery releases it).  Energy
        billing depends only on state-change *times*, which are all this
        instant, and no delivery decision reads another receiver's radio
        state, so releasing all before the first handler runs is
        unobservable.
        Handlers that transmit in response cannot perturb the remaining
        deliveries either: a frame starting at this instant never
        overlaps the just-ended frame's half-open airtime.

        The foreign transmissions overlapping the frame's airtime are
        the same for every receiver, so they are collected once here;
        transmissions appended mid-loop by delivery handlers start
        exactly at the frame end and never satisfy the overlap test.
        """
        for receiver, _ in pending:
            receiver.radio.finish_receive()
        overlapping = [
            other
            for other in self._transmissions
            if other is not tx
            and other.start < tx.end
            and other.end > tx.start
        ]
        deliver = self._deliver
        for receiver, rssi in pending:
            deliver(tx, receiver, rssi, overlapping)

    def _deliver(
        self,
        tx: Transmission,
        receiver: _NodeEntry,
        rssi: float,
        overlapping: List[Transmission],
    ) -> None:
        """One receiver's verdict on ``tx`` at the frame end.

        The receiver must still be awake and not browned out, must not
        have transmitted during the frame, and must survive capture
        against ``overlapping``.  Its meter is then charged for the
        packet (:meth:`~repro.energy.meter.EnergyMeter.charge_recv`); an
        installed fault injector may corrupt the payload (dropped by the
        CRC check if enabled) and skew the reported RSSI.
        """
        stats = self.stats
        radio = receiver.radio
        if not radio.is_awake:
            # Slept mid-frame (coordination closed the window).
            stats.frames_missed_asleep += 1
            return
        now = self._sim.now
        gate = radio.receive_fault
        if gate is not None and gate(now):
            # Browned out mid-frame.
            stats.frames_missed_brownout += 1
            return
        packet = tx.packet
        receiver_id = receiver.node_id
        if overlapping:
            for other in overlapping:
                if other.src == receiver_id:
                    stats.frames_missed_half_duplex += 1
                    return
            interference_mw = self._foreign_power_mw(overlapping, receiver)
            if interference_mw > 0.0:
                sinr_db = rssi - mw_to_dbm(interference_mw)
                if sinr_db < receiver.receiver.capture_threshold_db:
                    stats.frames_collided += 1
                    trace = self._trace
                    if trace is not None and trace.enabled(
                        "channel.collision"
                    ):
                        trace.event(
                            now, "channel.collision", receiver_id,
                            attrs={"kind": packet.kind, "uid": packet.uid},
                        )
                    return
        radio.meter.charge_recv(packet.size_bytes)
        faults = self._faults
        if faults is not None:
            if faults.crc_check:
                if faults.corrupts(now, receiver_id, packet):
                    # The frame was received (and paid for) but fails its
                    # checksum; the link layer drops it silently.
                    stats.frames_crc_dropped += 1
                    return
            else:
                damaged = faults.maybe_corrupt(now, receiver_id, packet)
                if damaged is not None:
                    packet = damaged
                    stats.frames_corrupted += 1
            rssi = faults.reported_rssi(now, tx.src, rssi)
        stats.frames_delivered += 1
        trace = self._trace
        if trace is not None and trace.enabled("channel.rx"):
            trace.event(
                now, "channel.rx", receiver_id,
                attrs={"kind": packet.kind, "uid": packet.uid, "rssi": rssi},
            )
        receiver.on_receive(
            ReceivedPacket(
                packet=packet,
                rssi_dbm=rssi,
                receive_time=now,
                receiver=receiver_id,
            )
        )

    def _foreign_power_mw(
        self, overlapping: List[Transmission], receiver: _NodeEntry
    ) -> float:
        """Summed mean power, in milliwatts, of the overlapping frames at
        the receiver (none of them its own: :meth:`_deliver` has already
        ruled those half duplex).

        Most deliveries see no overlapping frame, so the receiver
        position (a mobility query) is fetched lazily on the first one.
        """
        position = None
        total = 0.0
        for other in overlapping:
            if position is None:
                position = receiver.mobility.position(self._sim.now)
            distance = max(position.distance_to(other.src_position), 1.0)
            total += dbm_to_mw(self._path_loss.mean_rssi(distance))
        return total

    def _prune(self, now: float) -> None:
        """Drop transmissions that can no longer affect any decision.

        A one-second grace period comfortably exceeds any frame airtime
        (a 1500-byte frame at 2 Mbps flies for 6.2 ms).
        """
        if self._transmissions and self._transmissions[0].end < now - 1.0:
            self._transmissions = [
                tx for tx in self._transmissions if tx.end >= now - 1.0
            ]
