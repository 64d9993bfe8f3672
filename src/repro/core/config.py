"""Configuration for a CoCoA deployment / simulation scenario.

:class:`CoCoAConfig` holds what a scenario varies: the paper's §4
scenario (team size, anchors, ``T``, ``t``, ``k``, speed, localization
mode, coordination, multicast) plus the channel, energy, calibration,
fault and defense models that the extension studies vary, and the two
estimator settings a serve hello mirrors.  The defaults are the headline
scenario: 50 robots in a 40000 m² (200 m × 200 m) area, half of them
anchors, beacon period ``T = 100 s``, transmit window ``t = 3 s``,
``k = 3`` beacons, 30 simulated minutes.

Everything else a run needs is a default of the component that uses it
(the waypoint model's minimum speed, the particle count, the odometry
noise, the receiver thresholds, the SYNC slack) or a named constant
where it is read: :data:`~repro.core.clock.MAX_CLOCK_DRIFT_RATE`,
:data:`~repro.core.coordinator.GUARD_FRACTION` and
:data:`~repro.core.team.METRIC_INTERVAL_S`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.bayes import GRID_RESOLUTION_M
from repro.core.calibration import CALIBRATION_SAMPLES
from repro.energy.model import EnergyModel
from repro.faults.spec import DefenseConfig, FaultPlan
from repro.mobility.waypoint import MIN_SPEED_M_S
from repro.net.phy import PathLossModel
from repro.util.geometry import Rect
from repro.util.validation import check_in_range, check_positive

#: Beacons a window must deliver before the estimator trusts its fix
#: (paper: 3).  The estimator and the serve hello default to it.
MIN_BEACONS_FOR_FIX = 3


class LocalizationMode(enum.Enum):
    """Which localization strategy the non-anchor robots run.

    The paper evaluates three (§4.1-§4.3):

    - ``ODOMETRY_ONLY``: dead reckoning from a known initial position.
    - ``RF_ONLY``: the Bayesian beacon algorithm alone; the position
      estimate is frozen between beacon rounds.
    - ``COCOA``: RF fixes at every beacon round, odometry dead reckoning
      in between — the full system.
    """

    ODOMETRY_ONLY = "odometry_only"
    RF_ONLY = "rf_only"
    COCOA = "cocoa"


class MulticastProtocol(enum.Enum):
    """Which mesh multicast carries SYNC messages."""

    ODMRP = "odmrp"
    MRMM = "mrmm"


class LocalizationFilter(enum.Enum):
    """Which Bayesian representation the localization component uses.

    The paper implements the grid technique but stresses that "other
    approaches could be integrated in CoCoA as well" (§5); the particle
    filter is exactly such an alternative.
    """

    GRID = "grid"
    PARTICLE = "particle"


@dataclass(frozen=True)
class CoCoAConfig:
    """Complete scenario description.

    Attributes:
        area: deployment rectangle (paper: 200 m x 200 m = 40000 m²).
        n_robots: total team size (paper: 50).
        n_anchors: robots equipped with localization devices (paper
            default: half the team).
        beacon_period_s: the period ``T`` between beacon rounds.
        transmit_window_s: the window ``t`` at the start of each period in
            which anchors beacon and everyone is awake (paper: 3 s).
        beacons_per_window: ``k``, beacon copies per anchor per window
            (paper: 3).
        v_max: maximum robot speed in m/s (paper: 0.5 or 2.0); speeds
            are drawn from ``[MIN_SPEED_M_S, v_max]``.
        duration_s: simulated time (paper: 30 minutes).
        master_seed: seed of every random stream in the run.
        localization_mode: which estimator the unknown robots run.
        coordination: True puts radios to sleep between windows (CoCoA's
            coordination); False leaves them idle — the paper's
            "without coordination" energy baseline.
        multicast: protocol carrying SYNC messages.
        grid_resolution_m: Bayesian grid cell size (a serve hello
            carries the same setting).
        localization_filter: grid (the paper's technique) or particle
            (Monte Carlo localization, the pluggable alternative).
        min_beacons_for_fix: beacons required before the filter output is
            trusted (paper: 3; a serve hello carries the same setting).
        energy_model: radio energy constants.
        path_loss: RF channel model.
        calibration_samples: Monte-Carlo samples for the offline PDF-Table
            calibration phase.
        faults: injected RF/sensor faults (default: none — a provable
            no-op that reproduces the unfaulted simulation bit-identically).
        defenses: graceful-degradation defenses (default: all off).
    """

    area: Rect = field(default_factory=lambda: Rect.square(200.0))
    n_robots: int = 50
    n_anchors: int = 25
    beacon_period_s: float = 100.0
    transmit_window_s: float = 3.0
    beacons_per_window: int = 3
    v_max: float = 2.0
    duration_s: float = 1800.0
    master_seed: int = 1
    localization_mode: LocalizationMode = LocalizationMode.COCOA
    coordination: bool = True
    multicast: MulticastProtocol = MulticastProtocol.MRMM
    grid_resolution_m: float = GRID_RESOLUTION_M
    localization_filter: LocalizationFilter = LocalizationFilter.GRID
    min_beacons_for_fix: int = MIN_BEACONS_FOR_FIX
    energy_model: EnergyModel = field(
        default_factory=EnergyModel.wavelan_2mbps
    )
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    calibration_samples: int = CALIBRATION_SAMPLES
    faults: FaultPlan = field(default_factory=FaultPlan)
    defenses: DefenseConfig = field(default_factory=DefenseConfig)

    def __post_init__(self) -> None:
        check_positive("n_robots", self.n_robots)
        check_in_range("n_anchors", self.n_anchors, 0, self.n_robots)
        check_positive("beacon_period_s", self.beacon_period_s)
        check_positive("transmit_window_s", self.transmit_window_s)
        if self.transmit_window_s >= self.beacon_period_s:
            raise ValueError(
                "transmit_window_s (%r) must be smaller than "
                "beacon_period_s (%r)"
                % (self.transmit_window_s, self.beacon_period_s)
            )
        check_positive("beacons_per_window", self.beacons_per_window)
        if self.v_max < MIN_SPEED_M_S:
            raise ValueError(
                "v_max (%r) is below the %r m/s speed floor"
                % (self.v_max, MIN_SPEED_M_S)
            )
        check_positive("duration_s", self.duration_s)
        check_positive("grid_resolution_m", self.grid_resolution_m)
        check_positive("min_beacons_for_fix", self.min_beacons_for_fix)
        check_positive("calibration_samples", self.calibration_samples)
        if (
            self.area.width < self.grid_resolution_m
            or self.area.height < self.grid_resolution_m
        ):
            raise ValueError("grid resolution exceeds the deployment area")
