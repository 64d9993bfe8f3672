"""A complete CoCoA robot node.

:class:`RobotNode` wires one robot's components together: mobility, network
interface, local clock, coordinator, and — depending on its role — either
an :class:`~repro.core.beaconing.AnchorBeaconer` (robots with localization
devices) or a :class:`~repro.core.estimator.PositionEstimator` (robots
without).  One anchor additionally acts as the Sync robot, sourcing the
MRMM mesh and the SYNC messages.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.beaconing import AnchorBeaconer, BeaconPayload
from repro.core.coordinator import Coordinator
from repro.core.estimator import BeaconObservation, PositionEstimator
from repro.mobility.base import MobilityModel
from repro.multicast.odmrp import OdmrpNode
from repro.net.interface import NetworkInterface
from repro.net.packet import ReceivedPacket
from repro.util.geometry import Vec2


class RobotRole(enum.Enum):
    """Whether the robot carries a localization device."""

    ANCHOR = "anchor"
    UNKNOWN = "unknown"


class RobotNode:
    """One robot: identity, role and its wired-together components.

    Construction is handled by :class:`~repro.core.team.CoCoATeam`; the
    class itself only exposes the queries the harness and applications
    need.
    """

    def __init__(
        self,
        node_id: int,
        role: RobotRole,
        mobility: MobilityModel,
        interface: NetworkInterface,
        coordinator: Optional[Coordinator] = None,
        multicast: Optional[OdmrpNode] = None,
        beaconer: Optional[AnchorBeaconer] = None,
        estimator: Optional[PositionEstimator] = None,
        is_sync_robot: bool = False,
    ) -> None:
        if role is RobotRole.ANCHOR and beaconer is None:
            raise ValueError("anchor robots need a beaconer")
        if role is RobotRole.UNKNOWN and estimator is None:
            raise ValueError("unknown robots need an estimator")
        self.node_id = node_id
        self.role = role
        self.mobility = mobility
        self.interface = interface
        self.coordinator = coordinator
        self.multicast = multicast
        self.beaconer = beaconer
        self.estimator = estimator
        self.is_sync_robot = is_sync_robot

    @property
    def is_anchor(self) -> bool:
        return self.role is RobotRole.ANCHOR

    def true_position(self, t: float) -> Vec2:
        """Ground-truth position (simulation-side only)."""
        return self.mobility.position(t)

    def estimated_position(self, t: float) -> Vec2:
        """Where the robot believes it is.

        Anchors report their localization device's output (ground truth in
        the default configuration); unknowns report their estimator state.
        """
        if self.estimator is not None:
            return self.estimator.estimate
        return self.mobility.position(t)

    def handle_beacon(self, received: ReceivedPacket) -> None:
        """Feed a received beacon to the estimator (unknown robots)."""
        if self.estimator is None:
            return
        payload: BeaconPayload = received.packet.payload
        self.estimator.ingest_observation(
            BeaconObservation(
                x=payload.x,
                y=payload.y,
                rssi_dbm=received.rssi_dbm,
                anchor_id=payload.anchor_id,
                t=received.receive_time,
            )
        )
