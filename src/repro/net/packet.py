"""Packet and frame definitions.

All CoCoA traffic is UDP broadcast (§2.3): every packet carries an IP header
and a UDP header of 20 bytes each, exactly as the paper counts them, plus a
typed payload whose wire size the payload class declares.
"""

from __future__ import annotations

import dataclasses
import itertools
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

#: IP header size in bytes, as counted by the paper (§2.3).
IP_HEADER_BYTES = 20
#: UDP header size in bytes, as counted by the paper (§2.3).
UDP_HEADER_BYTES = 20
#: ``Packet.kind`` of an anchor's position beacon.
BEACON_KIND = "beacon"

_packet_ids = itertools.count(1)


def payload_checksum(payload: Any) -> int:
    """CRC-32 of a payload's canonical text form.

    Payloads are frozen dataclasses (or other objects with deterministic
    ``repr``), so the checksum is stable across processes.  It stands in
    for the frame check sequence a real link layer computes over the
    serialized bytes.
    """
    return zlib.crc32(repr(payload).encode("utf-8")) & 0xFFFFFFFF


@dataclass(frozen=True)
class Packet:
    """A broadcast datagram.

    Attributes:
        src: sender node id.
        kind: payload discriminator, e.g. ``"beacon"``, ``"sync"``,
            ``"join_query"``; interfaces dispatch receive handlers on it.
        payload: the typed payload object.
        payload_bytes: wire size of the payload.
        ttl: remaining hop budget for flooded packets (broadcast beacons use
            1: they are never forwarded).
        uid: globally unique packet id, assigned automatically; forwarded
            copies of a flooded packet share the originator's ``origin_uid``.
        origin_uid: id of the original packet for duplicate suppression in
            flooding protocols; defaults to ``uid``.
        payload_crc: CRC-32 over the payload, computed at send time; a
            payload damaged in flight no longer matches it (``crc_ok``).
    """

    src: int
    kind: str
    payload: Any
    payload_bytes: int
    ttl: int = 1
    uid: int = field(default_factory=lambda: next(_packet_ids))
    origin_uid: Optional[int] = None
    payload_crc: Optional[int] = None

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError(
                "payload_bytes must be non-negative, got %r"
                % self.payload_bytes
            )
        if self.ttl < 0:
            raise ValueError("ttl must be non-negative, got %r" % self.ttl)
        if self.origin_uid is None:
            object.__setattr__(self, "origin_uid", self.uid)
        if self.payload_crc is None:
            object.__setattr__(
                self, "payload_crc", payload_checksum(self.payload)
            )

    @property
    def crc_ok(self) -> bool:
        """Does the stored checksum still match the payload?"""
        return self.payload_crc == payload_checksum(self.payload)

    def damaged_copy(self, damaged_payload: Any) -> "Packet":
        """A copy carrying ``damaged_payload`` but the *original* CRC —
        what a receiver sees after in-flight corruption."""
        return dataclasses.replace(self, payload=damaged_payload)

    @property
    def size_bytes(self) -> int:
        """Total wire size: IP + UDP headers plus the payload."""
        return IP_HEADER_BYTES + UDP_HEADER_BYTES + self.payload_bytes

    def forwarded_by(self, node_id: int, ttl: Optional[int] = None) -> "Packet":
        """Return a rebroadcast copy of this packet sent by ``node_id``.

        The copy gets a fresh ``uid`` but keeps ``origin_uid`` so duplicate
        suppression keeps working across hops.
        """
        new_ttl = self.ttl - 1 if ttl is None else ttl
        if new_ttl < 0:
            raise ValueError("cannot forward packet with exhausted TTL")
        return Packet(
            src=node_id,
            kind=self.kind,
            payload=self.payload,
            payload_bytes=self.payload_bytes,
            ttl=new_ttl,
            origin_uid=self.origin_uid,
        )


class ReceivedPacket:
    """A packet as seen by a receiver: the frame plus reception metadata.

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    built per successful reception — the densest allocation site after
    ``Vec2`` — and the frozen-dataclass ``__init__`` (object.__setattr__
    per field) costs ~3x a direct slot store.  Treat instances as
    immutable.

    Attributes:
        packet: the delivered packet.
        rssi_dbm: received signal strength sampled by the PHY — the ranging
            input of the localization algorithm.
        receive_time: simulation time of complete reception.
        receiver: receiving node id.
    """

    __slots__ = ("packet", "rssi_dbm", "receive_time", "receiver")

    def __init__(
        self,
        packet: Packet,
        rssi_dbm: float,
        receive_time: float,
        receiver: int,
    ) -> None:
        self.packet = packet
        self.rssi_dbm = rssi_dbm
        self.receive_time = receive_time
        self.receiver = receiver

    def __repr__(self) -> str:
        return (
            "ReceivedPacket(packet=%r, rssi_dbm=%r, receive_time=%r, "
            "receiver=%r)"
            % (self.packet, self.rssi_dbm, self.receive_time, self.receiver)
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ReceivedPacket:
            return (
                self.packet == other.packet
                and self.rssi_dbm == other.rssi_dbm
                and self.receive_time == other.receive_time
                and self.receiver == other.receiver
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (self.packet, self.rssi_dbm, self.receive_time, self.receiver)
        )
