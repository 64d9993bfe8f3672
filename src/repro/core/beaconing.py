"""Anchor beaconing (§2.2-§2.3).

Robots equipped with localization devices broadcast ``k`` RF beacons during
each transmit window.  Every beacon carries the sender's coordinates, as
provided by its localization device (laser ranger + SLAM in the paper's
testbed; here the mobility model's ground truth, optionally perturbed by a
configurable SLAM error).  The ``k`` copies "are used for increasing the
reliability of beacon delivery" — the MAC gives broadcast frames no
acknowledgements, so repetition is the only defence against fading and
collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.mobility.base import MobilityModel
from repro.net.interface import NetworkInterface
from repro.net.packet import BEACON_KIND, Packet
from repro.sim.engine import Simulator
from repro.util.geometry import Vec2
from repro.util.validation import check_non_negative, check_positive

#: x and y coordinates as two 8-byte doubles — "the location (x and y
#: coordinates) of the sending robot" (§2.3); with the 40 header bytes this
#: makes each beacon 56 bytes on the wire.
BEACON_PAYLOAD_BYTES = 16


@dataclass(frozen=True)
class BeaconPayload:
    """A beacon's contents: where the sending anchor believes it is."""

    x: float
    y: float
    anchor_id: int

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)


class AnchorBeaconer:
    """Sends ``k`` beacons spread across each transmit window.

    Args:
        sim: simulation engine.
        interface: the anchor's network attachment.
        mobility: the anchor's true mobility (its SLAM reading source).
        rng: random stream for transmit-time jitter and SLAM error.
        k: beacons per window (paper: 3).
        window_s: transmit window length ``t`` (paper: 3 s).
        slam_error_std_m: σ of the Gaussian error on the advertised
            coordinates (0 = the paper's assumption of exact SLAM).
        position_fn: optional override for the advertised position; the
            beacon-promotion extension passes a localized unknown's own
            estimate here instead of a localization device's output.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: NetworkInterface,
        mobility: MobilityModel,
        rng: np.random.Generator,
        k: int = 3,
        window_s: float = 3.0,
        slam_error_std_m: float = 0.0,
        position_fn: Optional[Callable[[], Vec2]] = None,
    ) -> None:
        check_positive("k", k)
        check_positive("window_s", window_s)
        check_non_negative("slam_error_std_m", slam_error_std_m)
        self._sim = sim
        self._interface = interface
        self._mobility = mobility
        self._rng = rng
        self._k = k
        self._window_s = window_s
        self._slam_error_std_m = slam_error_std_m
        self._position_fn = position_fn
        self.beacons_sent = 0

    @property
    def k(self) -> int:
        return self._k

    def set_window(self, window_s: float) -> None:
        """Adopt a new transmit window length (from a SYNC update)."""
        check_positive("window_s", window_s)
        self._window_s = window_s

    def start_window(self) -> None:
        """Schedule this window's ``k`` beacons.

        Each beacon is placed in its own ``window/k`` slice at a uniformly
        random offset, which desynchronizes the anchors and spreads channel
        load across the window.
        """
        slice_s = self._window_s / self._k
        for i in range(self._k):
            offset = (i + float(self._rng.uniform(0.05, 0.95))) * slice_s
            self._sim.schedule(offset, self._send_beacon, name="beacon-tx")

    def _send_beacon(self) -> None:
        if not self._interface.is_awake:
            return
        position = self._slam_position()
        payload = BeaconPayload(
            x=position.x, y=position.y, anchor_id=self._interface.node_id
        )
        self._interface.send_broadcast(
            Packet(
                src=self._interface.node_id,
                kind=BEACON_KIND,
                payload=payload,
                payload_bytes=BEACON_PAYLOAD_BYTES,
            )
        )
        self.beacons_sent += 1

    def _slam_position(self) -> Vec2:
        """The advertised position: the localization device's output, or
        the configured override (promotion extension)."""
        if self._position_fn is not None:
            return self._position_fn()
        true = self._mobility.position(self._sim.now)
        if self._slam_error_std_m <= 0.0:
            return true
        return Vec2(
            true.x + float(self._rng.normal(0.0, self._slam_error_std_m)),
            true.y + float(self._rng.normal(0.0, self._slam_error_std_m)),
        )
