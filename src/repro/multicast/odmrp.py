"""ODMRP — On-Demand Multicast Routing Protocol (Lee et al., WCNC 1999).

The protocol has the two phases the paper describes (§2.3):

**Mesh construction and maintenance.**  The multicast source periodically
floods a JOIN QUERY.  Every node remembers the neighbor it first heard the
query from (its *upstream* toward the source) and rebroadcasts the query
once.  Group members answer with a JOIN REPLY naming their upstream as the
next hop; a node that hears a JOIN REPLY naming *itself* joins the
*forwarding group* (FG) and propagates its own JOIN REPLY toward the
source.  FG membership expires unless refreshed by later rounds.

**Data delivery.**  The source broadcasts data packets; FG nodes rebroadcast
each packet once.  Members deliver the payload up to the application.

This implementation runs on top of the CSMA broadcast MAC; JOIN REPLY
"unicast" follows ODMRP's actual design of broadcasting a packet that names
its intended next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.multicast.flooding import CopyCounter, DuplicateCache
from repro.multicast.lifetime import Kinematics
from repro.net.interface import NetworkInterface
from repro.net.packet import Packet, ReceivedPacket
from repro.sim.engine import Simulator

#: Wire sizes (bytes) of the control payloads: ids are 4 bytes, counters 4,
#: hop counts 1.  The MRMM JOIN QUERY additionally carries the sender's
#: kinematics (position 16 + velocity 16 + horizon info 16) and the running
#: path-lifetime bound (8).
JOIN_QUERY_BYTES = 13
JOIN_QUERY_MRMM_BYTES = JOIN_QUERY_BYTES + 56
JOIN_REPLY_BYTES = 12

JQ_KIND = "odmrp_jq"
JR_KIND = "odmrp_jr"
DATA_KIND = "odmrp_data"

DataHandler = Callable[[Any, ReceivedPacket], None]


@dataclass(frozen=True)
class JoinQueryPayload:
    """JOIN QUERY contents.

    ``kinematics`` and ``min_path_lifetime`` are only populated by MRMM;
    plain ODMRP leaves them at their defaults.
    """

    source: int
    seq: int
    last_hop: int
    hop_count: int
    kinematics: Optional[Kinematics] = None
    min_path_lifetime: float = float("inf")


@dataclass(frozen=True)
class JoinReplyPayload:
    """JOIN REPLY contents: who wants data from ``source`` via ``next_hop``."""

    source: int
    sender: int
    next_hop: int
    seq: int


@dataclass(frozen=True)
class DataPayload:
    """Application data carried over the mesh."""

    source: int
    seq: int
    body: Any
    body_bytes: int


@dataclass
class MulticastStats:
    """Per-node protocol counters; the harness sums them over the team."""

    jq_originated: int = 0
    jq_forwarded: int = 0
    jr_sent: int = 0
    data_originated: int = 0
    data_forwarded: int = 0
    data_delivered: int = 0
    duplicates_dropped: int = 0
    forwards_suppressed: int = 0
    #: Same-round upstream replacements (only MRMM's link-lifetime
    #: preference ever triggers these; plain ODMRP keeps the first copy).
    route_switches: int = 0


@dataclass(frozen=True)
class OdmrpConfig:
    """Protocol parameters.

    Attributes:
        jq_ttl: hop budget of JOIN QUERY floods.
        data_ttl: hop budget of data packets on the mesh.
        fg_timeout_s: forwarding-group flag lifetime; ODMRP convention is
            about three refresh intervals.
        forward_jitter_s: maximum random delay before rebroadcasting a
            flooded packet (desynchronizes the flood).
        jr_delay_s: how long a member waits after the first JOIN QUERY copy
            before sending its JOIN REPLY — the window in which better
            upstream candidates may still arrive.
        assumed_link_range_m: link range used for lifetime prediction
            (MRMM only).
        suppress_threshold: if set, a node cancels its own scheduled
            rebroadcast of a flooded packet once it has overheard this many
            copies — MRMM's redundancy-preserving pruning.  ``None``
            (plain ODMRP) never suppresses.
    """

    jq_ttl: int = 8
    data_ttl: int = 8
    fg_timeout_s: float = 360.0
    forward_jitter_s: float = 0.15
    jr_delay_s: float = 0.4
    assumed_link_range_m: float = 100.0
    suppress_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.jq_ttl < 1 or self.data_ttl < 1:
            raise ValueError("TTLs must be at least 1")
        if self.fg_timeout_s <= 0:
            raise ValueError(
                "fg_timeout_s must be positive, got %r" % self.fg_timeout_s
            )
        if self.forward_jitter_s < 0 or self.jr_delay_s < 0:
            raise ValueError("jitter/delay must be non-negative")
        if self.suppress_threshold is not None and self.suppress_threshold < 1:
            raise ValueError(
                "suppress_threshold must be positive or None, got %r"
                % self.suppress_threshold
            )
        if self.assumed_link_range_m <= 0:
            raise ValueError(
                "assumed_link_range_m must be positive, got %r"
                % self.assumed_link_range_m
            )


@dataclass
class _RouteEntry:
    """Best-known way back toward a source for the current refresh round."""

    seq: int
    upstream: int
    hop_count: int
    path_lifetime: float
    rssi_dbm: float = 0.0
    jr_scheduled: bool = False
    jr_sent_for_seq: int = -1


class OdmrpNode:
    """One node's ODMRP instance.

    Args:
        sim: simulation engine.
        interface: the node's network attachment.
        rng: random stream for jitter.
        config: protocol parameters.
        is_source: whether this node originates JOIN QUERYs and data.
        is_member: whether this node is a multicast group member.
        kinematics_provider: callable returning this node's own
            :class:`Kinematics` (used by MRMM; optional for plain ODMRP).
    """

    def __init__(
        self,
        sim: Simulator,
        interface: NetworkInterface,
        rng: np.random.Generator,
        config: OdmrpConfig = OdmrpConfig(),
        is_source: bool = False,
        is_member: bool = False,
        kinematics_provider: Optional[Callable[[], Kinematics]] = None,
    ) -> None:
        self._sim = sim
        self._interface = interface
        self._rng = rng
        self._config = config
        self.is_source = is_source
        self.is_member = is_member
        self._kinematics_provider = kinematics_provider
        self._node_id = interface.node_id
        self._jq_seq = 0
        self._data_seq = 0
        self._jq_cache = DuplicateCache()
        self._data_cache = DuplicateCache()
        self._copies = CopyCounter()
        self._routes: Dict[int, _RouteEntry] = {}
        self._fg_expiry: Dict[int, float] = {}
        self._data_handlers: list = []
        self.stats = MulticastStats()
        interface.on_receive(JQ_KIND, self._on_join_query)
        interface.on_receive(JR_KIND, self._on_join_reply)
        interface.on_receive(DATA_KIND, self._on_data)

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def config(self) -> OdmrpConfig:
        return self._config

    def on_data(self, handler: DataHandler) -> None:
        """Register an application handler for delivered group data."""
        self._data_handlers.append(handler)

    def promote_to_source(self) -> None:
        """Make this node a multicast source (Sync-robot failover).

        The node keeps its membership; it simply gains the right to
        originate JOIN QUERYs and data.
        """
        self.is_source = True

    def demote_from_source(self) -> None:
        """Stop acting as a multicast source (a better Sync robot spoke)."""
        self.is_source = False

    def is_forwarder_for(self, source: int) -> bool:
        """True if this node currently holds an unexpired FG flag."""
        expiry = self._fg_expiry.get(source)
        return expiry is not None and expiry > self._sim.now

    # -- mesh construction -------------------------------------------------

    def send_join_query(self) -> None:
        """Originate a JOIN QUERY flood (source only).

        CoCoA's Sync robot calls this at the start of each beacon period so
        the mesh is refreshed while every radio is awake.

        Raises:
            RuntimeError: if called on a non-source node.
        """
        if not self.is_source:
            raise RuntimeError(
                "node %d is not a multicast source" % self._node_id
            )
        self._jq_seq += 1
        payload = JoinQueryPayload(
            source=self._node_id,
            seq=self._jq_seq,
            last_hop=self._node_id,
            hop_count=0,
            kinematics=self._own_kinematics(),
            min_path_lifetime=float("inf"),
        )
        packet = Packet(
            src=self._node_id,
            kind=JQ_KIND,
            payload=payload,
            payload_bytes=self._jq_bytes(),
            ttl=self._config.jq_ttl,
        )
        self._jq_cache.seen_before(packet.origin_uid)
        self._interface.send_broadcast(packet)
        self.stats.jq_originated += 1

    def _jq_bytes(self) -> int:
        return JOIN_QUERY_BYTES

    def _own_kinematics(self) -> Optional[Kinematics]:
        """Plain ODMRP does not use mobility knowledge."""
        return None

    def _link_lifetime_to(self, sender: Optional[Kinematics]) -> float:
        """Plain ODMRP treats every link as equally long-lived."""
        return float("inf")

    def _candidate_better(
        self, candidate: _RouteEntry, incumbent: _RouteEntry
    ) -> bool:
        """ODMRP keeps the first-heard upstream: later copies never win."""
        return False

    def _on_join_query(self, received: ReceivedPacket) -> None:
        payload: JoinQueryPayload = received.packet.payload
        if payload.source == self._node_id:
            return
        link_lifetime = self._link_lifetime_to(payload.kinematics)
        path_lifetime = min(payload.min_path_lifetime, link_lifetime)
        candidate = _RouteEntry(
            seq=payload.seq,
            upstream=payload.last_hop,
            hop_count=payload.hop_count + 1,
            path_lifetime=path_lifetime,
            rssi_dbm=received.rssi_dbm,
        )
        entry = self._routes.get(payload.source)
        is_new_round = entry is None or entry.seq < payload.seq
        if is_new_round:
            old = entry
            entry = candidate
            if old is not None:
                entry.jr_sent_for_seq = old.jr_sent_for_seq
            self._routes[payload.source] = entry
        elif entry.seq == payload.seq:
            if self._candidate_better(candidate, entry):
                self.stats.route_switches += 1
                entry.upstream = candidate.upstream
                entry.hop_count = candidate.hop_count
                entry.path_lifetime = candidate.path_lifetime
                entry.rssi_dbm = candidate.rssi_dbm
        else:
            return  # stale round

        self._copies.record(received.packet.origin_uid)
        if self._jq_cache.seen_before(received.packet.origin_uid):
            if not is_new_round:
                self.stats.duplicates_dropped += 1
            return

        if received.packet.ttl > 1:
            forwarded = Packet(
                src=self._node_id,
                kind=JQ_KIND,
                payload=JoinQueryPayload(
                    source=payload.source,
                    seq=payload.seq,
                    last_hop=self._node_id,
                    hop_count=payload.hop_count + 1,
                    kinematics=self._own_kinematics(),
                    min_path_lifetime=path_lifetime,
                ),
                payload_bytes=self._jq_bytes(),
                ttl=received.packet.ttl - 1,
                origin_uid=received.packet.origin_uid,
            )
            self._sim.schedule(
                self._jitter(),
                self._fire_forward,
                forwarded,
                True,
                name="jq-forward",
            )

        if self.is_member:
            self._schedule_join_reply(payload.source)

    def _fire_forward(self, packet: Packet, is_jq: bool) -> None:
        """Send a scheduled rebroadcast unless it was pruned meanwhile.

        With ``suppress_threshold`` set (MRMM), the rebroadcast is
        cancelled if the node has overheard enough copies of the same
        packet while the jitter timer ran — its neighborhood is already
        covered with the configured redundancy.
        """
        threshold = self._config.suppress_threshold
        if (
            threshold is not None
            and self._copies.count(packet.origin_uid) >= threshold + 1
        ):
            self.stats.forwards_suppressed += 1
            return
        self._interface.send_broadcast(packet)
        if is_jq:
            self.stats.jq_forwarded += 1
        else:
            self.stats.data_forwarded += 1

    def _schedule_join_reply(self, source: int) -> None:
        entry = self._routes.get(source)
        if entry is None or entry.jr_scheduled:
            return
        entry.jr_scheduled = True
        self._sim.schedule(
            self._config.jr_delay_s + self._jitter(),
            self._send_join_reply,
            source,
            name="jr-send",
        )

    def _send_join_reply(self, source: int) -> None:
        entry = self._routes.get(source)
        if entry is None:
            return
        entry.jr_scheduled = False
        if entry.jr_sent_for_seq >= entry.seq:
            return
        entry.jr_sent_for_seq = entry.seq
        if entry.upstream == self._node_id:
            return
        payload = JoinReplyPayload(
            source=source,
            sender=self._node_id,
            next_hop=entry.upstream,
            seq=entry.seq,
        )
        packet = Packet(
            src=self._node_id,
            kind=JR_KIND,
            payload=payload,
            payload_bytes=JOIN_REPLY_BYTES,
            ttl=1,
        )
        self._interface.send_broadcast(packet)
        self.stats.jr_sent += 1

    def _on_join_reply(self, received: ReceivedPacket) -> None:
        payload: JoinReplyPayload = received.packet.payload
        if payload.next_hop != self._node_id:
            return
        if payload.source == self._node_id:
            return  # the source itself needs no FG flag
        self._fg_expiry[payload.source] = (
            self._sim.now + self._config.fg_timeout_s
        )
        # Propagate membership interest toward the source.
        entry = self._routes.get(payload.source)
        if entry is not None and entry.jr_sent_for_seq < entry.seq:
            self._schedule_join_reply(payload.source)

    # -- data delivery ------------------------------------------------------

    def send_data(self, body: Any, body_bytes: int) -> None:
        """Multicast application data over the mesh (source only).

        Raises:
            RuntimeError: if called on a non-source node.
        """
        if not self.is_source:
            raise RuntimeError(
                "node %d is not a multicast source" % self._node_id
            )
        self._data_seq += 1
        payload = DataPayload(
            source=self._node_id,
            seq=self._data_seq,
            body=body,
            body_bytes=body_bytes,
        )
        packet = Packet(
            src=self._node_id,
            kind=DATA_KIND,
            payload=payload,
            payload_bytes=body_bytes + 8,
            ttl=self._config.data_ttl,
        )
        self._data_cache.seen_before(packet.origin_uid)
        self._interface.send_broadcast(packet)
        self.stats.data_originated += 1

    def _on_data(self, received: ReceivedPacket) -> None:
        payload: DataPayload = received.packet.payload
        if payload.source == self._node_id:
            return
        self._copies.record(received.packet.origin_uid)
        if self._data_cache.seen_before(received.packet.origin_uid):
            self.stats.duplicates_dropped += 1
            return
        if self.is_member:
            self.stats.data_delivered += 1
            for handler in self._data_handlers:
                handler(payload.body, received)
        if (
            self.is_forwarder_for(payload.source)
            and received.packet.ttl > 1
        ):
            self._sim.schedule(
                self._jitter(),
                self._fire_forward,
                received.packet.forwarded_by(self._node_id),
                False,
                name="data-forward",
            )

    def _jitter(self) -> float:
        if self._config.forward_jitter_s <= 0:
            return 0.0
        return float(self._rng.uniform(0.0, self._config.forward_jitter_s))
