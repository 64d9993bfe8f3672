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
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.energy.model import RadioState
from repro.mobility.base import MobilityModel
from repro.net.packet import Packet, ReceivedPacket
from repro.net.phy import PathLossModel, ReceiverModel
from repro.net.radio import Radio
from repro.sim.engine import Simulator
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
        self._nodes: Dict[int, _NodeEntry] = {}
        self._transmissions: List[Transmission] = []
        self._trace = trace
        self._faults = None
        self._world = None
        self._row_entries: Optional[List[_NodeEntry]] = None
        self.stats = ChannelStats()

    def attach_world(self, world) -> None:
        """Use a :class:`~repro.sim.world.WorldState` for bulk eligibility.

        The world's rows must cover exactly the node ids registered on
        this channel (the team binds node ``i`` to row ``i``), with every
        mobility model and radio bound to it — otherwise the masks would
        disagree with the per-object state.
        """
        self._world = world
        self._row_entries = None

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
        return sorted(self._nodes)

    def register(
        self,
        node_id: int,
        mobility: MobilityModel,
        radio: Radio,
        receiver: ReceiverModel,
        on_receive: ReceiveCallback,
    ) -> None:
        """Attach a node to the medium.

        Raises:
            ValueError: if the node id is already registered.
        """
        if node_id in self._nodes:
            raise ValueError("node %d already registered" % node_id)
        cs_dist = self._path_loss.distance_for_mean_rssi(
            receiver.carrier_sense_dbm
        )
        self._nodes[node_id] = _NodeEntry(
            node_id,
            mobility,
            radio,
            receiver,
            on_receive,
            cs_dist_lo=cs_dist * (1.0 - 1e-9),
            cs_dist_hi=cs_dist * (1.0 + 1e-9),
        )
        self._row_entries = None

    def airtime_s(self, size_bytes: int) -> float:
        """Airtime of a frame: preamble plus payload serialization."""
        return self._preamble_s + (size_bytes * 8.0) / self._bitrate

    def position_of(self, node_id: int) -> Vec2:
        """Current true position of a registered node."""
        return self._nodes[node_id].mobility.position(self._sim.now)

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
        filters (asleep, browned out, half duplex), one RSSI draw from
        the channel stream, the fault verdict and the decode threshold.
        The filters never depend on the draw, the draws never depend on
        the filters' side effects (the counters), and fault draws come
        from their own streams, so all filters run first, every
        surviving receiver's RSSI is sampled in one batched draw
        (:meth:`~repro.net.phy.PathLossModel.sample_rssi_batch` replays
        the scalar draw order exactly), and the survivors are then
        walked for the fault/decode step, still in node order.

        Decoding receivers enter RX with no per-receiver rx-end event:
        the frame's single delivery event (:meth:`_deliver_frame`), at
        the end of the airtime, releases them all.
        """
        now = self._sim.now
        world = self._world
        if world is not None:
            eligible, distances = self._eligible_soa(tx, now, world)
        else:
            eligible, distances = self._eligible_scan(tx, now)
        if not eligible:
            return
        rssi_batch = self._path_loss.sample_rssi_batch(
            np.asarray(distances), self._rng
        )
        faults = self._faults
        stats = self.stats
        if airtime <= 0:
            # Hoisted from Radio.begin_receive (whose body is inlined in
            # the survivor loop below): one check per frame instead of
            # one per receiver.
            raise ValueError("airtime_s must be positive, got %r" % airtime)
        rx_end = now + airtime
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
            # Inlined Radio.begin_receive.  Eligibility admits only
            # awake, non-transmitting radios, and nothing between the
            # scan and this walk changes radio state, so the state here
            # is exactly IDLE or RX.
            radio = receiver.radio
            if radio._state is RadioState.IDLE:
                elapsed = now - radio._state_since
                if elapsed > 0.0:
                    meter = radio._meter
                    meter._dur_idle += elapsed
                    meter._breakdown.idle_j += meter._w_idle * elapsed
                radio._state_since = now
                radio._state = RadioState.RX
                radio._busy_until = rx_end
            elif rx_end > radio._busy_until:
                radio._busy_until = rx_end
            pending.append((receiver, rssi))
        if pending:
            self._sim.schedule(
                airtime, self._deliver_frame, tx, pending, name="deliver"
            )

    def _eligible_scan(
        self, tx: Transmission, now: float
    ) -> Tuple[List[_NodeEntry], List[float]]:
        """Per-object eligibility scan, for channels with no world.

        Unit-test channels over :class:`~repro.mobility.base.StationaryMobility`
        or scripted mobility cannot mirror into a
        :class:`~repro.sim.world.WorldState`; this walks their nodes
        one by one with the same checks, in the same order, as
        :meth:`_eligible_soa`.
        """
        stats = self.stats
        eligible = []
        distances = []
        for receiver in self._nodes.values():
            if receiver.node_id == tx.src:
                continue
            stats.frames_offered += 1
            if not receiver.radio.is_awake:
                stats.frames_missed_asleep += 1
                continue
            if receiver.radio.reception_impaired:
                stats.frames_missed_brownout += 1
                continue
            if receiver.radio.is_transmitting:
                stats.frames_missed_half_duplex += 1
                continue
            position = receiver.mobility.position(now)
            eligible.append(receiver)
            # Vec2.distance_to (math.hypot) — NOT a vectorized hypot:
            # np.hypot and sqrt(dx*dx + dy*dy) are not bit-identical
            # to it.
            distances.append(max(position.distance_to(tx.src_position), 1.0))
        return eligible, distances

    def _eligible_soa(
        self, tx: Transmission, now: float, world
    ) -> Tuple[List[_NodeEntry], List[float]]:
        """The eligibility scan over the world's structure-of-arrays state.

        Equivalent to :meth:`_eligible_scan` bit for bit: rows ascend
        like the node-order walk; the awake/transmitting masks are
        write-through mirrors of the exact radio predicates; each awake
        row's brownout gate is consulted, before the half-duplex check,
        exactly as the per-object walk consults it; and the world
        refreshes *every* node's position where the walk queries only
        eligible ones — invisible, because a trajectory's leg draws by
        time ``t`` do not depend on who queries it when.  Distances
        still go through scalar ``math.hypot``, matching
        ``Vec2.distance_to`` bit for bit.
        """
        entries = self._row_entries
        if entries is None:
            entries = [self._nodes[row] for row in range(world.n)]
            self._row_entries = entries
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
            gate = receiver.radio._receive_fault
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

        Every pending radio is released first (a radio whose busy window
        a later overlapping frame extended keeps receiving; that frame's
        own delivery releases it).  Energy billing depends only on
        state-change *times*, which are all this instant, and no
        delivery decision reads another receiver's radio state, so
        releasing all before the first handler runs is unobservable.
        Handlers that transmit in response cannot perturb the remaining
        deliveries either: a frame starting at this instant never
        overlaps the just-ended frame's half-open airtime.

        The foreign transmissions overlapping the frame's airtime are
        the same for every receiver, so they are collected once here;
        transmissions appended mid-loop by delivery handlers start
        exactly at the frame end and never satisfy the overlap test.
        """
        now = self._sim.now
        for receiver, _ in pending:
            # Inlined Radio.finish_receive: release the radio iff it is
            # still in RX with its busy window over.
            radio = receiver.radio
            if radio._state is RadioState.RX and now >= radio._busy_until:
                elapsed = now - radio._state_since
                if elapsed > 0.0:
                    meter = radio._meter
                    meter._dur_rx += elapsed
                    meter._breakdown.rx_j += meter._w_rx * elapsed
                radio._state_since = now
                radio._state = RadioState.IDLE
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
        against ``overlapping``.  It is then charged for the packet; an
        installed fault injector may corrupt the payload (dropped by the
        CRC check if enabled) and skew the reported RSSI.
        """
        stats = self.stats
        radio = receiver.radio
        state = radio._state
        if state is RadioState.SLEEP or state is RadioState.OFF:
            # Slept mid-frame (coordination closed the window).
            stats.frames_missed_asleep += 1
            return
        now = self._sim.now
        gate = radio._receive_fault
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
        # Inlined EnergyMeter.charge_recv.
        meter = radio._meter
        size_bytes = packet.size_bytes
        cost = meter._recv_costs.get(size_bytes)
        if cost is None:
            cost = meter._model.recv_cost_j(size_bytes)
            meter._recv_costs[size_bytes] = cost
        meter._breakdown.packet_recv_j += cost
        meter._packets_received += 1
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
