"""Online geographic routing over the live CoCoA network.

The offline study (:mod:`repro.ext.georouting`) routes over frozen
snapshots; this module runs the §6 application *in the event simulator*,
with every real-world complication CoCoA introduces:

- neighbor tables built from HELLO packets that carry each robot's
  *estimated* position (anchors advertise device positions, unknowns their
  CoCoA estimates),
- positions that go stale as robots move between transmit windows,
- forwarding that can only happen while radios are awake, over the real
  CSMA MAC with losses and collisions.

Greedy forwarding names an explicit next hop in each broadcast frame; a
node that cannot find a neighbor strictly closer (by advertised
coordinates) to the destination drops the message — delivery rate is
therefore a direct end-to-end measurement of CoCoA coordinate quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import CoCoAConfig
from repro.core.pdf_table import PdfTable
from repro.core.team import CoCoATeam
from repro.net.interface import NetworkInterface
from repro.net.packet import Packet, ReceivedPacket
from repro.sim.engine import Simulator
from repro.util.geometry import Vec2

HELLO_KIND = "hello"
GEO_KIND = "geo_data"
#: HELLO: node id (4) + x, y (16).
HELLO_BYTES = 20
#: Geo header: destination id (4) + destination coords (16) + next hop (4)
#: + hop count (1).
GEO_HEADER_BYTES = 25


@dataclass(frozen=True)
class HelloPayload:
    """One robot's periodic self-advertisement."""

    node_id: int
    x: float
    y: float

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)


@dataclass(frozen=True)
class GeoPayload:
    """A routed message: where it is going and who should relay it next."""

    dest_id: int
    dest_position: Vec2
    next_hop: int
    hop_count: int
    body: object
    body_bytes: int
    msg_id: int


@dataclass
class RoutingStats:
    """Per-node routing counters."""

    originated: int = 0
    delivered: int = 0
    forwarded: int = 0
    dropped_no_neighbor: int = 0
    dropped_local_minimum: int = 0
    dropped_ttl: int = 0


class NeighborTable:
    """Who is nearby and where they claim to be.

    Entries age out after ``max_age_s`` — with CoCoA's duty cycling a
    sensible age is a couple of beacon periods, so a neighbor heard last
    window still counts but long-gone robots do not.
    """

    def __init__(self, sim: Simulator, max_age_s: float) -> None:
        if max_age_s <= 0:
            raise ValueError("max_age_s must be positive, got %r" % max_age_s)
        self._sim = sim
        self._max_age = max_age_s
        self._entries: Dict[int, Tuple[Vec2, float]] = {}

    def update(self, node_id: int, position: Vec2) -> None:
        """Record/refresh a neighbor's advertised position."""
        self._entries[node_id] = (position, self._sim.now)

    def fresh_entries(self) -> Dict[int, Vec2]:
        """Current (unexpired) neighbors and their advertised positions."""
        horizon = self._sim.now - self._max_age
        stale = [n for n, (_, t) in self._entries.items() if t < horizon]
        for node_id in stale:
            del self._entries[node_id]
        return {n: p for n, (p, _) in self._entries.items()}

    def __len__(self) -> int:
        return len(self.fresh_entries())


class GeoRouter:
    """One node's greedy geographic forwarding agent.

    Args:
        sim: simulation engine.
        interface: the node's network attachment.
        neighbor_table: HELLO-maintained neighbor knowledge.
        own_position: callable returning this node's *believed* position
            (its estimate — never ground truth).
        max_hops: TTL for routed messages.
        on_deliver: callback ``(payload, received)`` when a message for
            this node arrives.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: NetworkInterface,
        neighbor_table: NeighborTable,
        own_position: Callable[[], Vec2],
        max_hops: int = 16,
        on_deliver: Optional[Callable[[GeoPayload, ReceivedPacket], None]] = None,
        redundancy: int = 2,
        reliable_hop_m: float = 70.0,
    ) -> None:
        if max_hops < 1:
            raise ValueError("max_hops must be >= 1, got %r" % max_hops)
        if redundancy < 1:
            raise ValueError("redundancy must be >= 1, got %r" % redundancy)
        if reliable_hop_m <= 0:
            raise ValueError(
                "reliable_hop_m must be positive, got %r" % reliable_hop_m
            )
        self._sim = sim
        self._interface = interface
        self._neighbors = neighbor_table
        self._own_position = own_position
        self._max_hops = max_hops
        self._on_deliver = on_deliver
        #: Frames are sent this many times (CoCoA's k-beacons principle:
        #: broadcast frames get no MAC acknowledgements, so reliability
        #: comes from repetition); duplicates are filtered by message id.
        self._redundancy = redundancy
        #: Hops advertised farther than this are treated as unreliable and
        #: only used when no reliable neighbor makes progress — classic
        #: greedy picks the longest, flakiest link otherwise.
        self._reliable_hop_m = reliable_hop_m
        self._msg_ids = 0
        self._handled: set = set()
        self.stats = RoutingStats()
        interface.on_receive(GEO_KIND, self._on_geo_packet)

    @property
    def node_id(self) -> int:
        return self._interface.node_id

    def send(
        self,
        dest_id: int,
        dest_position: Vec2,
        body: object = None,
        body_bytes: int = 16,
    ) -> bool:
        """Originate a message toward ``dest_position``.

        Returns True if a first hop existed and the frame was handed to
        the MAC; False if the message died at the source (no neighbors or
        immediate local minimum).
        """
        self.stats.originated += 1
        self._msg_ids += 1
        payload = GeoPayload(
            dest_id=dest_id,
            dest_position=dest_position,
            next_hop=-1,
            hop_count=0,
            body=body,
            body_bytes=body_bytes,
            msg_id=self._msg_ids,
        )
        return self._forward(payload)

    def _forward(self, payload: GeoPayload) -> bool:
        if payload.hop_count >= self._max_hops:
            self.stats.dropped_ttl += 1
            return False
        neighbors = self._neighbors.fresh_entries()
        neighbors.pop(self.node_id, None)
        if not neighbors:
            self.stats.dropped_no_neighbor += 1
            return False
        best_id = self._pick_next_hop(neighbors, payload)
        if best_id is None:
            self.stats.dropped_local_minimum += 1
            return False
        relayed = GeoPayload(
            dest_id=payload.dest_id,
            dest_position=payload.dest_position,
            next_hop=best_id,
            hop_count=payload.hop_count + 1,
            body=payload.body,
            body_bytes=payload.body_bytes,
            msg_id=payload.msg_id,
        )
        for _ in range(self._redundancy):
            self._interface.send_broadcast(
                Packet(
                    src=self.node_id,
                    kind=GEO_KIND,
                    payload=relayed,
                    payload_bytes=GEO_HEADER_BYTES + payload.body_bytes,
                )
            )
        return True

    def _pick_next_hop(
        self, neighbors: Dict[int, Vec2], payload: GeoPayload
    ) -> Optional[int]:
        """Greedy with a reliability preference.

        If the destination itself is a neighbor, hand the message over
        directly.  Otherwise pick, among neighbors strictly closer to the
        destination than we believe ourselves to be, the one making the
        most progress over a *reliable* link (advertised hop distance at
        most ``reliable_hop_m``); fall back to the best unreliable one.
        """
        own = self._own_position()
        if payload.dest_id in neighbors:
            hop = own.distance_to(neighbors[payload.dest_id])
            if hop <= self._reliable_hop_m:
                return payload.dest_id
            # The destination is audible but far: relaying through a
            # reliable intermediate beats one flaky long shot.
        target = payload.dest_position
        own_distance = own.distance_to(target)
        best_reliable: Optional[int] = None
        best_reliable_d = own_distance
        best_any: Optional[int] = None
        best_any_d = own_distance
        for node_id, position in neighbors.items():
            d = position.distance_to(target)
            if d >= own_distance:
                continue
            if d < best_any_d:
                best_any, best_any_d = node_id, d
            if own.distance_to(position) <= self._reliable_hop_m:
                if d < best_reliable_d:
                    best_reliable, best_reliable_d = node_id, d
        return best_reliable if best_reliable is not None else best_any

    def _on_geo_packet(self, received: ReceivedPacket) -> None:
        payload: GeoPayload = received.packet.payload
        if payload.next_hop != self.node_id:
            return
        # Redundant copies of the same (message, hop) are handled once.
        key = (received.packet.src, payload.msg_id, payload.hop_count)
        if key in self._handled:
            return
        self._handled.add(key)
        if len(self._handled) > 65536:
            self._handled.clear()
        if payload.dest_id == self.node_id:
            self.stats.delivered += 1
            if self._on_deliver is not None:
                self._on_deliver(payload, received)
            return
        if self._forward(payload):
            self.stats.forwarded += 1


class RoutingTeam(CoCoATeam):
    """A CoCoA team whose robots run HELLO + greedy geographic routing.

    Every robot broadcasts a HELLO (advertising its *estimated* position)
    shortly after each transmit window opens, maintains a neighbor table,
    and participates in forwarding.  Localization, coordination and
    energy accounting are inherited unchanged — routing rides on top,
    inside the awake windows, exactly as an application would deploy it.
    """

    def __init__(
        self,
        config: CoCoAConfig,
        neighbor_max_age_periods: float = 2.5,
        max_hops: int = 16,
        pdf_table: Optional[PdfTable] = None,
    ) -> None:
        self._neighbor_max_age_periods = neighbor_max_age_periods
        self._max_hops = max_hops
        self.routers: Dict[int, GeoRouter] = {}
        self.neighbor_tables: Dict[int, NeighborTable] = {}
        self.delivered_messages: List[Tuple[int, GeoPayload]] = []
        super().__init__(config, pdf_table=pdf_table)
        self._wire_routing()

    def _wire_routing(self) -> None:
        max_age = (
            self._neighbor_max_age_periods * self.config.beacon_period_s
        )
        for node in self.nodes:
            table = NeighborTable(self.sim, max_age)
            self.neighbor_tables[node.node_id] = table

            def believed_position(n=node) -> Vec2:
                return n.estimated_position(self.sim.now)

            router = GeoRouter(
                self.sim,
                node.interface,
                table,
                believed_position,
                max_hops=self._max_hops,
                on_deliver=lambda p, rp: self.delivered_messages.append(
                    (rp.receiver, p)
                ),
            )
            self.routers[node.node_id] = router
            node.interface.on_receive(
                HELLO_KIND,
                lambda rp, t=table: t.update(
                    rp.packet.payload.node_id, rp.packet.payload.position
                ),
            )
            self._hook_hello(node, believed_position)

    def _hook_hello(self, node, believed_position) -> None:
        if node.coordinator is None:
            return
        coordinator = node.coordinator
        rng = self.streams.spawn("hello", node.node_id)

        def start_with_hello() -> None:
            # Jitter the HELLO into the window to dodge the beacon burst.
            self.sim.schedule(
                float(rng.uniform(0.1, coordinator.window_s * 0.9)),
                self._send_hello,
                node,
                believed_position,
                name="hello-tx",
            )

        coordinator.add_window_start_hook(start_with_hello)

    def _send_hello(self, node, believed_position) -> None:
        if not node.interface.is_awake:
            return
        position = believed_position()
        node.interface.send_broadcast(
            Packet(
                src=node.node_id,
                kind=HELLO_KIND,
                payload=HelloPayload(node.node_id, position.x, position.y),
                payload_bytes=HELLO_BYTES,
            )
        )

    def on_window(
        self,
        callback: Callable[[], None],
        delay_s: float = 1.0,
        node_id: Optional[int] = None,
    ) -> None:
        """Run ``callback`` ``delay_s`` into every transmit window.

        Applications must originate traffic while radios are awake; this
        hook rides one robot's window schedule, which the whole team
        tracks to within the wake guard.

        Args:
            callback: invoked once per transmit window.
            delay_s: offset into the window.
            node_id: whose schedule to ride; defaults to the first
                coordinated node (pick a robot you expect to survive).
        """
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative, got %r" % delay_s)
        if node_id is not None:
            anchor_node = self.nodes[node_id]
        else:
            anchor_node = next(
                (n for n in self.nodes if n.coordinator is not None), None
            )
        if anchor_node is None or anchor_node.coordinator is None:
            raise RuntimeError("no coordinated node to ride the schedule of")
        coordinator = anchor_node.coordinator

        def start_with_traffic() -> None:
            self.sim.schedule(delay_s, callback, name="app-traffic")

        coordinator.add_window_start_hook(start_with_traffic)

    def routing_stats(self) -> RoutingStats:
        """Team-summed routing counters."""
        total = RoutingStats()
        for router in self.routers.values():
            s = router.stats
            total.originated += s.originated
            total.delivered += s.delivered
            total.forwarded += s.forwarded
            total.dropped_no_neighbor += s.dropped_no_neighbor
            total.dropped_local_minimum += s.dropped_local_minimum
            total.dropped_ttl += s.dropped_ttl
        return total
