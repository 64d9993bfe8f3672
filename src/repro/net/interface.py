"""Per-node network facade.

A :class:`NetworkInterface` bundles a node's radio, MAC and channel
registration behind the two operations protocols actually need:
``send_broadcast(packet)`` and per-``kind`` receive handlers.  It is the
single place where a node touches the network substrate, which keeps the
CoCoA core and the multicast protocols free of wiring code.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.energy.meter import EnergyMeter
from repro.energy.model import EnergyModel
from repro.mobility.base import MobilityModel
from repro.net.channel import BroadcastChannel
from repro.net.mac import CsmaMac
from repro.net.packet import Packet, ReceivedPacket
from repro.net.phy import ReceiverModel
from repro.net.radio import Radio
from repro.sim.engine import Simulator

ReceiveHandler = Callable[[ReceivedPacket], None]


class NetworkInterface:
    """One robot's complete network attachment.

    The radio starts awake (IDLE): robots are deployed with their radios
    on, and the coordinator puts them to sleep after the first window.

    Args:
        sim: simulation engine.
        node_id: this robot's id.
        mobility: the robot's true mobility model (the channel needs true
            positions to compute propagation — robots, of course, never
            read it for localization).
        channel: the shared medium.
        energy_model: radio energy constants.
        mac_rng: random stream for MAC backoff.
        receiver: receiver thresholds.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        mobility: MobilityModel,
        channel: BroadcastChannel,
        energy_model: EnergyModel,
        mac_rng: np.random.Generator,
        receiver: ReceiverModel = ReceiverModel(),
    ) -> None:
        self._sim = sim
        self._node_id = node_id
        self._mobility = mobility
        self._channel = channel
        self.meter = EnergyMeter(energy_model)
        self.radio = Radio(sim, self.meter)
        self.mac = CsmaMac(sim, node_id, channel, self.radio, mac_rng)
        self._handlers: Dict[str, List[ReceiveHandler]] = {}
        channel.register(node_id, mobility, self.radio, receiver, self._dispatch)

    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def is_awake(self) -> bool:
        return self.radio.is_awake

    def send_broadcast(self, packet: Packet) -> None:
        """Broadcast a packet through the MAC."""
        self.mac.send_broadcast(packet)

    def on_receive(self, kind: str, handler: ReceiveHandler) -> None:
        """Register ``handler`` for received packets of ``kind``."""
        self._handlers.setdefault(kind, []).append(handler)

    def sleep(self) -> None:
        """Put the radio to sleep and drop any queued frames."""
        self.mac.flush()
        self.radio.sleep()

    def wake(self) -> None:
        """Wake the radio (no-op if already awake)."""
        self.radio.wake()

    def finalize(self) -> None:
        """Close out energy accounting at the end of a run."""
        self.radio.finalize()

    def _dispatch(self, received: ReceivedPacket) -> None:
        for handler in self._handlers.get(received.packet.kind, ()):
            handler(received)
