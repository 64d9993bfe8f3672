"""Configuration for a CoCoA deployment / simulation scenario.

:class:`CoCoAConfig` gathers every knob of the reproduction in one
validated, immutable object.  The defaults are the paper's §4 headline
scenario: 50 robots in a 40000 m² (200 m × 200 m) area, half of them
anchors, beacon period ``T = 100 s``, transmit window ``t = 3 s``, ``k = 3``
beacons, 30 simulated minutes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.energy.model import EnergyModel
from repro.faults.spec import DefenseConfig, FaultPlan
from repro.mobility.odometry import OdometryNoise
from repro.net.phy import PathLossModel, ReceiverModel
from repro.util.geometry import Rect
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)


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
        v_max: maximum robot speed in m/s (paper: 0.5 or 2.0).
        v_min: minimum robot speed in m/s (paper: 0.1).
        duration_s: simulated time (paper: 30 minutes).
        master_seed: seed of every random stream in the run.
        localization_mode: which estimator the unknown robots run.
        coordination: True puts radios to sleep between windows (CoCoA's
            coordination); False leaves them idle — the paper's
            "without coordination" energy baseline.
        multicast: protocol carrying SYNC messages.
        grid_resolution_m: Bayesian grid cell size.
        localization_filter: grid (the paper's technique) or particle
            (Monte Carlo localization, the pluggable alternative).
        n_particles: sample count for the particle filter.
        min_beacons_for_fix: beacons required before the filter output is
            trusted (paper: 3).
        clock_drift_rate: maximum magnitude of a robot's local clock drift
            (fraction of elapsed time); clocks re-synchronize on SYNC.
        guard_fraction: nodes wake this fraction of the beacon period early
            to tolerate clock drift (the coarse-synchronization guard).
        sync_slack_s: how long after the transmit window nodes stay awake
            to finish SYNC / mesh traffic.
        energy_model: radio energy constants.
        path_loss: RF channel model.
        receiver: receiver thresholds.
        odometry_noise: odometry error model.
        rest_time_max_s: maximum task/rest time at each waypoint.
        calibration_samples: Monte-Carlo samples for the offline PDF-Table
            calibration phase.
        slam_error_std_m: σ of the anchors' own (SLAM-provided) position
            error; the paper treats SLAM output as exact (0.0).
        metric_interval_s: how often localization error is sampled.
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
    v_min: float = 0.1
    duration_s: float = 1800.0
    master_seed: int = 1
    localization_mode: LocalizationMode = LocalizationMode.COCOA
    coordination: bool = True
    multicast: MulticastProtocol = MulticastProtocol.MRMM
    grid_resolution_m: float = 2.0
    localization_filter: LocalizationFilter = LocalizationFilter.GRID
    n_particles: int = 1500
    min_beacons_for_fix: int = 3
    clock_drift_rate: float = 0.02
    guard_fraction: float = 0.04
    sync_slack_s: float = 0.5
    energy_model: EnergyModel = field(
        default_factory=EnergyModel.wavelan_2mbps
    )
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    receiver: ReceiverModel = field(default_factory=ReceiverModel)
    odometry_noise: OdometryNoise = field(default_factory=OdometryNoise)
    rest_time_max_s: float = 0.0
    calibration_samples: int = 120_000
    slam_error_std_m: float = 0.0
    metric_interval_s: float = 1.0
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
        check_positive("v_min", self.v_min)
        if self.v_min > self.v_max:
            raise ValueError(
                "need v_min <= v_max, got %r / %r"
                % (self.v_min, self.v_max)
            )
        check_positive("duration_s", self.duration_s)
        check_positive("grid_resolution_m", self.grid_resolution_m)
        check_in_range("n_particles", self.n_particles, 10, 1_000_000)
        check_positive("min_beacons_for_fix", self.min_beacons_for_fix)
        check_in_range("clock_drift_rate", self.clock_drift_rate, 0.0, 0.2)
        check_in_range("guard_fraction", self.guard_fraction, 0.0, 0.5)
        if self.clock_drift_rate * 2.0 > self.guard_fraction and (
            self.coordination
        ):
            raise ValueError(
                "guard_fraction (%r) must cover twice the clock drift rate "
                "(%r) or beacon windows will be missed"
                % (self.guard_fraction, self.clock_drift_rate)
            )
        check_non_negative("sync_slack_s", self.sync_slack_s)
        check_non_negative("rest_time_max_s", self.rest_time_max_s)
        check_positive("calibration_samples", self.calibration_samples)
        check_non_negative("slam_error_std_m", self.slam_error_std_m)
        check_positive("metric_interval_s", self.metric_interval_s)
        if (
            self.area.width < self.grid_resolution_m
            or self.area.height < self.grid_resolution_m
        ):
            raise ValueError("grid resolution exceeds the deployment area")

    @property
    def guard_s(self) -> float:
        """Early-wake guard interval in seconds."""
        return self.guard_fraction * self.beacon_period_s

    def paper_scenario(self, **overrides) -> "CoCoAConfig":
        """Return a copy with selected fields overridden."""
        from dataclasses import replace

        return replace(self, **overrides)
