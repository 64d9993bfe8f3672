"""Beacon promotion: localized unknowns help localize others (§6).

    "One area is to use the robots that do not have localization devices
    but are already localized to also initiate beaconing.  This could
    potentially reduce the need for robots equipped with localization
    devices and lower costs.  On the other hand, it is hard to ascertain
    the goodness of the location a particular node has and using such
    techniques could potentially increase localization errors."

:class:`PromotionTeam` extends the standard team: an unknown robot whose
latest Bayesian fix is *confident enough* (posterior spread at or below
``max_fix_std_m``) transmits beacons in subsequent transmit windows,
advertising its *estimated* position.  The confidence gate is exactly the
"goodness" question the paper raises; the promotion ablation benchmark
sweeps it to show both regimes — extra beacons helping sparse-anchor teams
and error feedback hurting when the gate is too loose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.beaconing import AnchorBeaconer
from repro.core.clock import DriftingClock
from repro.core.config import CoCoAConfig
from repro.core.coordinator import Coordinator
from repro.core.estimator import PositionEstimator
from repro.core.pdf_table import PdfTable
from repro.core.team import CoCoATeam
from repro.mobility.waypoint import WaypointMobility
from repro.multicast.odmrp import OdmrpNode
from repro.net.interface import NetworkInterface


@dataclass(frozen=True)
class PromotionConfig:
    """Gate parameters for promoting a localized unknown to a beacon source.

    Attributes:
        max_fix_std_m: maximum posterior spread of the robot's latest fix
            for it to trust its own location enough to advertise it.
        k: beacons a promoted robot sends per window (the paper's anchors
            use 3; promoted robots default to fewer to limit the damage a
            badly localized robot can do).
    """

    max_fix_std_m: float = 6.0
    k: int = 2

    def __post_init__(self) -> None:
        if self.max_fix_std_m <= 0:
            raise ValueError(
                "max_fix_std_m must be positive, got %r" % self.max_fix_std_m
            )
        if self.k < 1:
            raise ValueError("k must be at least 1, got %r" % self.k)


class PromotionTeam(CoCoATeam):
    """A CoCoA team in which confident unknowns also beacon.

    Args:
        config: the base scenario.
        promotion: the promotion gate.
        pdf_table: optional pre-built calibration table.
    """

    def __init__(
        self,
        config: CoCoAConfig,
        promotion: PromotionConfig = PromotionConfig(),
        pdf_table: Optional[PdfTable] = None,
    ) -> None:
        self.promotion = promotion
        self._promoted_beaconers: Dict[int, AnchorBeaconer] = {}
        self.promotions = 0
        super().__init__(config, pdf_table=pdf_table)

    def _build_coordinator(
        self,
        node_id: int,
        mobility: WaypointMobility,
        clock: DriftingClock,
        interface: NetworkInterface,
        beaconer: Optional[AnchorBeaconer],
        estimator: Optional[PositionEstimator],
        multicast: Optional[OdmrpNode],
        is_sync: bool,
    ) -> Coordinator:
        coordinator = super()._build_coordinator(
            node_id, mobility, clock, interface, beaconer, estimator,
            multicast, is_sync,
        )
        if estimator is None:
            return coordinator
        # Give this unknown a beaconer that advertises its own estimate,
        # plus a window-start hook that fires it only when the latest fix
        # clears the confidence gate.
        promoted = AnchorBeaconer(
            self.sim,
            interface,
            mobility,
            self.streams.spawn("promotion", node_id),
            k=self.promotion.k,
            window_s=self.config.transmit_window_s,
            position_fn=lambda est=estimator: est.estimate,
        )
        self._promoted_beaconers[node_id] = promoted

        def window_start_with_promotion() -> None:
            if self._gate_open(estimator):
                self.promotions += 1
                promoted.start_window()

        coordinator.add_window_start_hook(window_start_with_promotion)
        return coordinator

    def _gate_open(self, estimator: PositionEstimator) -> bool:
        return (
            estimator.has_fix
            and estimator.last_fix_std_m is not None
            and estimator.last_fix_std_m <= self.promotion.max_fix_std_m
        )

    @property
    def promoted_beacons_sent(self) -> int:
        """Total beacons transmitted by promoted unknowns."""
        return sum(b.beacons_sent for b in self._promoted_beaconers.values())
