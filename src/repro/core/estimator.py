"""Per-robot position estimation: the three strategies of §4.

:class:`PositionEstimator` implements all three localization modes the
paper compares, behind one interface driven by the coordinator:

- **ODOMETRY_ONLY** (§4.1): dead reckoning from a provided initial pose;
  beacons are ignored.
- **RF_ONLY** (§4.2): the Bayesian filter produces a fix each beacon round;
  the estimate stays frozen between rounds ("update their position
  estimates, which remain the same, until the T-second period expires").
- **COCOA** (§4.3): the fix re-anchors a dead reckoner that tracks the
  robot through the sleep phase; at the next round the dead-reckoned
  estimate is thrown away and replaced by the fresh fix ("the robots throw
  away their currently estimated positions and find a new position using
  the beacons").

Heading re-anchoring: an RF fix provides position, not orientation.  The
estimator recovers heading by comparing the displacement the dead reckoner
*measured* over the beacon period against the displacement the two RF
fixes *observed*, rotating the heading estimate by the discrepancy.  The
correction quality scales with how far the robot travelled between fixes,
which is precisely why very short beacon periods hurt CoCoA (the paper's
surprising T = 10 s result, §4.3.1) — each correction is derived from a
displacement comparable to the fix noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.bayes import GRID_RESOLUTION_M, GridBayesFilter
from repro.core.config import MIN_BEACONS_FOR_FIX, LocalizationMode
from repro.core.pdf_table import PdfTable
from repro.mobility.dead_reckoning import DeadReckoning, ReckonerRow
from repro.mobility.odometry import OdometrySensor
from repro.util.geometry import Rect, Vec2, normalize_angle

#: A CoCoA fix corrects the dead reckoner's heading only when both the
#: measured and the reckoned displacement since the last fix reach this
#: length (m); below it the angle would be pure noise.
MIN_HEADING_FIX_DISPLACEMENT_M = 1.0


@dataclass(frozen=True)
class BeaconObservation:
    """One beacon measurement, as the estimator ingests it.

    This is the unit of the estimator's *ingestion surface*: both the
    batch coordinator (via :meth:`RobotNode.handle_beacon
    <repro.core.node.RobotNode.handle_beacon>`) and the streaming
    service (:mod:`repro.serve`) feed estimators through
    :meth:`PositionEstimator.ingest_observation` with these records, so
    a recorded observation stream replays bit-identically through
    either path.

    Attributes:
        x: the claiming anchor's advertised x coordinate (metres).
        y: the claiming anchor's advertised y coordinate (metres).
        rssi_dbm: the measured signal strength.
        anchor_id: the claiming anchor's node id (``None`` when the
            source is anonymous).
        t: receive time in simulated seconds.
    """

    x: float
    y: float
    rssi_dbm: float
    anchor_id: Optional[int] = None
    t: float = 0.0

    @property
    def position(self) -> Vec2:
        return Vec2(self.x, self.y)


class PositionEstimator:
    """One robot's localization state machine.

    Args:
        mode: which of the paper's three strategies to run.
        area: deployment rectangle (grid support).
        pdf_table: the calibrated PDF Table (unused in ODOMETRY_ONLY).
        odometry: the robot's odometry sensor (None in RF_ONLY — that
            baseline deliberately ignores odometry).  A one-row sensor
            for a standalone estimator, which :meth:`tick` advances; or
            a team's block, whose owner advances it.
        grid_resolution_m: Bayesian grid cell size.
        min_beacons_for_fix: beacons required before a fix is trusted
            (paper: 3).
        initial_position: starting estimate.  ODOMETRY_ONLY requires the
            true deployment position ("the robots are provided with their
            initial coordinates"); the RF modes default to the area's
            center, the mean of their uniform prior.
        initial_heading: starting heading estimate (radians); only
            meaningful when the initial position is trusted.
        position_filter: optional pre-built Bayesian filter implementing
            the ``reset_uniform`` / ``apply_beacon`` / ``estimate`` /
            ``position_std_m`` / ``beacons_applied`` protocol (e.g. a
            :class:`~repro.core.particle.ParticleFilter`); defaults to the
            paper's :class:`~repro.core.bayes.GridBayesFilter`.
            ``position_std_m`` must accept the mean ``estimate`` returned,
            so a window close computes each moment once.
        beacon_gate_sigma: if > 0, reject beacons whose implied range
            (PDF-table mean for the measured RSSI) disagrees with the
            distance to the current estimate by more than this many
            table sigmas plus the last fix spread plus
            ``beacon_gate_slack_m`` — Mahalanobis-style gating against
            corrupted coordinates and grossly miscalibrated anchors.
            The gate only arms after a window that produced a fix: with
            no trusted estimate every beacon must count, and a window
            the gate starved of beacons disarms it — the robot's own
            estimate, not the beacons, is then the likely outlier, so
            re-arming only after the next fix makes a gate-induced
            death spiral (bad estimate gates good beacons, which keeps
            the estimate bad) structurally impossible.
        beacon_gate_slack_m: additive gate slack covering robot motion
            between fixes.
        watchdog: enable the posterior-health watchdog — a degenerate
            filter (see ``is_degenerate`` on the filter) is reset to the
            prior at window close instead of producing a junk fix.
        constraint_cache: optional team- or session-shared
            :class:`~repro.core.constraint_cache.ConstraintFieldCache`.
            Attached to the position filter when the filter supports it
            (the grid filter does; the particle filter, whose particles
            are per-robot, ignores it).  Without one a grid filter uses
            its own private memo; the fields are bit-identical either
            way.
        reckoner: this robot's row of a team's
            :class:`~repro.mobility.dead_reckoning.DeadReckoning` block,
            which the team advances together with ``odometry`` (the
            same rows).  The estimator places the row at its start pose.
            Without one, an odometry-carrying estimator integrates into
            a reckoner of its own.
        anchor_expiry_s: if > 0, keep a per-anchor suspicion score that
            decays with this time constant; anchors above the quarantine
            threshold are ignored until their suspicion expires
            (stale/drifted-anchor expiry).  Suspicion rises on gated
            beacons and, more sharply, on *fix residuals*: after each
            successful fix, an anchor whose RSSI-implied range disagrees
            with the fix by more than ``RESIDUAL_SIGMA`` table sigmas is
            suspected.  The residual test is what actually catches
            slowly drifting calibration — per-beacon gating must
            tolerate raw RSSI noise, while a multi-beacon fix averages
            that noise away and exposes the systematic offset.
    """

    #: Suspicion score at which an anchor is quarantined.
    QUARANTINE_THRESHOLD = 3.0
    #: Fix-residual z-score beyond which an anchor draws suspicion.
    #: Calibrated against the shipped PDF table: honest beacons exceed
    #: it ~3% of the time (suspicion decays faster than that trickle
    #: accumulates), beacons from a 6 dB-drifted radio ~50%.
    RESIDUAL_SIGMA = 2.0
    #: Posterior spread above which a fix is too uncertain to judge
    #: anchors; residual suspicion is skipped for that window.
    RESIDUAL_MAX_FIX_STD_M = 5.0

    def __init__(
        self,
        mode: LocalizationMode,
        area: Rect,
        pdf_table: Optional[PdfTable] = None,
        odometry: Optional[OdometrySensor] = None,
        grid_resolution_m: float = GRID_RESOLUTION_M,
        min_beacons_for_fix: int = MIN_BEACONS_FOR_FIX,
        initial_position: Optional[Vec2] = None,
        initial_heading: float = 0.0,
        position_filter=None,
        beacon_gate_sigma: float = 0.0,
        beacon_gate_slack_m: float = 10.0,
        watchdog: bool = False,
        anchor_expiry_s: float = 0.0,
        constraint_cache=None,
        reckoner: Optional[ReckonerRow] = None,
    ) -> None:
        self._mode = mode
        self._area = area
        self._table = pdf_table
        self._odometry = odometry
        self._min_beacons = min_beacons_for_fix
        self._gate_sigma = beacon_gate_sigma
        self._gate_slack_m = beacon_gate_slack_m
        self._watchdog = watchdog
        self._anchor_expiry_s = anchor_expiry_s
        #: anchor_id -> (suspicion score, time of last update)
        self._suspicion: Dict[int, tuple] = {}
        #: (anchor_id, claimed position, rssi) applied this window.
        self._window_beacons: list = []
        self._last_beacon_t = 0.0

        if mode is LocalizationMode.ODOMETRY_ONLY:
            if initial_position is None:
                raise ValueError(
                    "ODOMETRY_ONLY requires the true initial position"
                )
            if odometry is None:
                raise ValueError("ODOMETRY_ONLY requires an odometry sensor")
        if mode is not LocalizationMode.ODOMETRY_ONLY and pdf_table is None:
            raise ValueError("%s requires a PDF table" % mode.value)
        if mode is LocalizationMode.COCOA and odometry is None:
            raise ValueError("COCOA requires an odometry sensor")

        start = (
            initial_position if initial_position is not None else area.center
        )
        self._estimate = start
        self._filter = None
        if mode is not LocalizationMode.ODOMETRY_ONLY:
            if position_filter is not None:
                self._filter = position_filter
            else:
                self._filter = GridBayesFilter(area, grid_resolution_m)
            if constraint_cache is not None:
                attach = getattr(
                    self._filter, "attach_constraint_cache", None
                )
                if attach is not None:
                    attach(constraint_cache)
        # In the odometry modes the reckoner row IS the estimate (see
        # the estimate property); _estimate serves RF_ONLY alone.
        self._dead_reckoner: Optional[ReckonerRow] = None
        self._owns_motion = False
        if odometry is not None and mode is not LocalizationMode.RF_ONLY:
            if reckoner is None:
                reckoner = DeadReckoning(start, initial_heading).row(0)
                self._owns_motion = True
            else:
                reckoner.reset(start, initial_heading)
            self._dead_reckoner = reckoner
        self._last_fix: Optional[Vec2] = None
        self._gate_armed = False
        self._window_open = False
        self.fixes = 0
        self.beacons_heard = 0
        self.windows_without_fix = 0
        #: Beacons rejected by the geometric consistency gate.
        self.beacons_gated = 0
        #: Beacons ignored because their anchor is quarantined.
        self.beacons_quarantined = 0
        #: Posterior-health watchdog resets.
        self.watchdog_resets = 0
        #: Anchors suspected on fix residuals (telemetry; counts events,
        #: not distinct anchors).
        self.residual_suspicions = 0
        #: Posterior spread of the most recent fix — the "goodness of the
        #: location" measure the beacon-promotion extension gates on.
        self.last_fix_std_m: Optional[float] = None
        #: Optional observer of the ingestion surface (see
        #: :meth:`set_ingest_tap`).  Pure observation: never consulted
        #: when unset, never allowed to change estimator behaviour.
        self._ingest_tap: Optional[
            Callable[[str, Optional[BeaconObservation]], None]
        ] = None

    @property
    def mode(self) -> LocalizationMode:
        return self._mode

    @property
    def estimate(self) -> Vec2:
        """The robot's current position estimate."""
        if self._dead_reckoner is not None:
            return self._dead_reckoner.position
        return self._estimate

    @property
    def has_fix(self) -> bool:
        """True once at least one RF fix has been produced."""
        return self._last_fix is not None

    @property
    def filter(self):
        return self._filter

    def tick(self, t: float) -> None:
        """Advance odometry by one integration step (called every second).

        The odometer runs continuously — robots keep moving and measuring
        while their *radio* sleeps.  An estimator on a team's reckoner
        block is advanced by the team, all rows at once.

        Raises:
            RuntimeError: the estimator's reckoner row belongs to a team.
        """
        if self._dead_reckoner is None:
            return
        if not self._owns_motion:
            raise RuntimeError(
                "this estimator's odometry is advanced by its team"
            )
        self._dead_reckoner.block.advance(self._odometry.read(t))

    # -- ingestion surface ----------------------------------------------------
    #
    # The explicit API every observation source drives: the batch
    # coordinator (RobotNode.handle_beacon, CoCoATeam's metric sampler)
    # and the streaming service (repro.serve) call exactly these three
    # methods, so the estimator cannot tell a live simulation from a
    # replayed observation log.

    def ingest_observation(self, observation: BeaconObservation) -> None:
        """Incorporate one beacon observation (the streaming entry point).

        Equivalent to :meth:`on_beacon` with the observation's fields;
        the tap (if any) sees the observation before it is applied.
        """
        if self._ingest_tap is not None:
            self._ingest_tap("beacon", observation)
        self.on_beacon(
            observation.position,
            observation.rssi_dbm,
            anchor_id=observation.anchor_id,
            t=observation.t,
        )

    def set_ingest_tap(
        self,
        tap: Optional[Callable[[str, Optional[BeaconObservation]], None]],
    ) -> None:
        """Install (or with ``None`` remove) an ingestion observer.

        The tap is called with ``("open", None)`` as a beacon round
        begins (before the filter resets), ``("beacon", observation)``
        for every observation entering :meth:`ingest_observation`
        (before it is applied, gated or not), and ``("close", None)``
        after a round closes (fix state is final when it fires).  Taps
        observe; they must not call back into the estimator.
        """
        self._ingest_tap = tap

    def on_window_open(self) -> None:
        """A new beacon round begins: restart the filter from uniform."""
        if self._ingest_tap is not None:
            self._ingest_tap("open", None)
        if self._filter is None:
            return
        self._filter.reset_uniform()
        self._window_beacons.clear()
        self._window_open = True

    def on_beacon(
        self,
        beacon_position: Vec2,
        rssi_dbm: float,
        anchor_id: Optional[int] = None,
        t: float = 0.0,
    ) -> None:
        """Incorporate a received beacon into the current round's filter.

        Beacons heard while no round is open (e.g. after this node closed
        its window but before it slept) still count — they seed the filter
        that the *next* window close will read, matching a real
        implementation that never throws a measurement away.

        Args:
            beacon_position: the anchor's claimed coordinates.
            rssi_dbm: the measured signal strength.
            anchor_id: the claiming anchor.  Quarantine and suspicion
                key on it; a beacon without one still meets the gate but
                is never quarantined or suspected.
            t: receive time (drives the suspicion decay).
        """
        if self._filter is None or self._table is None:
            return
        if not (
            math.isfinite(beacon_position.x)
            and math.isfinite(beacon_position.y)
            and math.isfinite(rssi_dbm)
        ):
            # Non-finite measurements are garbage regardless of any
            # defense configuration; the healthy pipeline never produces
            # them, so dropping them cannot perturb a baseline run.
            return
        if self._is_quarantined(anchor_id, t):
            self.beacons_quarantined += 1
            return
        if self._gate_rejects(beacon_position, rssi_dbm):
            self.beacons_gated += 1
            self._raise_suspicion(anchor_id, t)
            return
        self._filter.apply_beacon(beacon_position, rssi_dbm, self._table)
        self.beacons_heard += 1
        self._last_beacon_t = max(self._last_beacon_t, t)
        if self._anchor_expiry_s > 0.0 and anchor_id is not None:
            self._window_beacons.append(
                (anchor_id, beacon_position, rssi_dbm)
            )

    # -- graceful-degradation defenses ---------------------------------------

    def _gate_rejects(self, beacon_position: Vec2, rssi_dbm: float) -> bool:
        """The beacon gate: is the claimed position geometrically
        inconsistent with the current estimate and the measured RSSI?"""
        if (
            self._gate_sigma <= 0.0
            or self._last_fix is None
            or not self._gate_armed
        ):
            return False
        implied = self._table.bin_for(rssi_dbm)
        separation = self.estimate.distance_to(beacon_position)
        tolerance = (
            self._gate_sigma * max(implied.std_m, 1.0)
            + (self.last_fix_std_m or 0.0)
            + self._gate_slack_m
        )
        return abs(separation - implied.mean_m) > tolerance

    def _suspicion_of(self, anchor_id: int, t: float) -> float:
        score, since = self._suspicion.get(anchor_id, (0.0, t))
        if self._anchor_expiry_s <= 0.0:
            return score
        return score * math.exp(-max(t - since, 0.0) / self._anchor_expiry_s)

    def _is_quarantined(self, anchor_id: Optional[int], t: float) -> bool:
        if self._anchor_expiry_s <= 0.0 or anchor_id is None:
            return False
        return (
            self._suspicion_of(anchor_id, t) >= self.QUARANTINE_THRESHOLD
        )

    def _suspect_residual_anchors(self, fix: Vec2, fix_std_m: float) -> None:
        """Raise suspicion for anchors inconsistent with a fresh fix.

        A successful fix averages the window's beacons, so an anchor
        whose RSSI-implied range still disagrees with it by several
        table sigmas is systematically wrong (drifted calibration,
        stale coordinates) rather than unlucky.  Only *confident* fixes
        (posterior spread ``fix_std_m`` below ``RESIDUAL_MAX_FIX_STD_M``)
        may judge anchors: when the posterior is wide the fix itself is
        the least trustworthy quantity in the residual, and feeding it
        into quarantine blames honest anchors for the robot's own
        confusion.
        """
        if self._anchor_expiry_s <= 0.0 or not self._window_beacons:
            return
        if fix_std_m > self.RESIDUAL_MAX_FIX_STD_M:
            self._window_beacons.clear()
            return
        t = self._last_beacon_t
        for anchor_id, position, rssi_dbm in self._window_beacons:
            implied = self._table.bin_for(rssi_dbm)
            z = abs(
                fix.distance_to(position) - implied.mean_m
            ) / max(implied.std_m, 1.0)
            if z > self.RESIDUAL_SIGMA:
                # Scale suspicion with how wrong the anchor is, so a
                # grossly drifted radio is quarantined within a window
                # or two while borderline ones need repeat offenses.
                self.residual_suspicions += 1
                self._raise_suspicion(
                    anchor_id, t, amount=1.0 + (z - self.RESIDUAL_SIGMA)
                )
        self._window_beacons.clear()

    def _raise_suspicion(
        self, anchor_id: Optional[int], t: float, amount: float = 1.0
    ) -> None:
        if self._anchor_expiry_s <= 0.0 or anchor_id is None:
            return
        self._suspicion[anchor_id] = (
            self._suspicion_of(anchor_id, t) + amount,
            t,
        )

    def on_window_close(self) -> None:
        """The transmit window ended: produce a fix if enough beacons came.

        With fewer than the minimum beacons the robot "continues with its
        old estimated position from the previous beacon period" (§2.3).
        """
        self._close_window()
        if self._ingest_tap is not None:
            self._ingest_tap("close", None)

    def _close_window(self) -> None:
        self._window_open = False
        if self._filter is None:
            return
        # The fix's moments are computed once here and handed to every
        # consumer: the watchdog, the fix, the residual test and
        # last_fix_std_m.
        fix = None
        if self._filter.beacons_applied >= self._min_beacons:
            fix = self._filter.estimate()
        if self._watchdog and self._posterior_degenerate(fix):
            # The round's evidence broke the posterior: reset to the
            # prior and keep the previous estimate rather than adopting
            # a confidently wrong fix.
            self._filter.reset_uniform()
            self.watchdog_resets += 1
            self.windows_without_fix += 1
            self._gate_armed = False
            return
        if fix is None:
            self.windows_without_fix += 1
            self._gate_armed = False
            return
        fix_std_m = self._filter.position_std_m(fix)
        self._gate_armed = True
        self._suspect_residual_anchors(fix, fix_std_m)
        self.last_fix_std_m = fix_std_m
        self.fixes += 1
        if self._mode is LocalizationMode.RF_ONLY:
            self._estimate = fix
        else:
            self._apply_cocoa_fix(fix)
        self._last_fix = fix

    def _posterior_degenerate(self, fix: Optional[Vec2]) -> bool:
        """Watchdog check, filter-agnostic: a filter without an
        ``is_degenerate`` probe (e.g. the particle filter) only trips on
        a non-finite point estimate.  ``fix`` is the window's posterior
        mean, or ``None`` when too few beacons came for a fix."""
        probe = getattr(self._filter, "is_degenerate", None)
        if probe is not None and probe():
            return True
        if fix is not None:
            return not (math.isfinite(fix.x) and math.isfinite(fix.y))
        return False

    # -- checkpointing --------------------------------------------------------
    #
    # snapshot()/restore() serialize every piece of evolving state the
    # ingestion surface can touch, so that restore → continue replays
    # bit-identically to never pausing.  This is what lets the streaming
    # service (repro.serve) checkpoint tenant sessions through the
    # orchestrator cache and survive crashes without drifting from the
    # batch recording (tests/test_serve_durability.py).  The filter's
    # share is its evidence (the beacons applied since the last reset),
    # not its posterior: restore replays that evidence through the
    # estimator's own PDF table.  Construction state (mode, grid
    # geometry, PDF table, gate/defense knobs) is deliberately NOT
    # captured: the restoring side must rebuild an identically-configured
    # estimator first, and the filter's geometry guard refuses a mismatch
    # instead of silently resampling.  Only
    # estimators without odometry take snapshots: serve is RF-only, and
    # nothing else pauses an estimator.  The mapping keeps its
    # ``"dead_reckoner": None`` entry so serve's checkpoints are unchanged.

    def snapshot(self) -> Dict[str, object]:
        """The estimator's evolving state as a picklable mapping.

        Raises:
            ValueError: the position filter does not support snapshots,
                or the estimator carries odometry (a dead reckoner).
        """
        if self._dead_reckoner is not None:
            raise ValueError(
                "an estimator with a dead reckoner does not support snapshots"
            )
        filter_state = None
        if self._filter is not None:
            probe = getattr(self._filter, "snapshot_state", None)
            if probe is None:
                raise ValueError(
                    "position filter %s does not support snapshots"
                    % type(self._filter).__name__
                )
            filter_state = probe()
        estimate = self.estimate
        return {
            "mode": self._mode.value,
            "estimate": (estimate.x, estimate.y),
            "last_fix": (
                None if self._last_fix is None
                else (self._last_fix.x, self._last_fix.y)
            ),
            "gate_armed": self._gate_armed,
            "window_open": self._window_open,
            "fixes": self.fixes,
            "beacons_heard": self.beacons_heard,
            "windows_without_fix": self.windows_without_fix,
            "beacons_gated": self.beacons_gated,
            "beacons_quarantined": self.beacons_quarantined,
            "watchdog_resets": self.watchdog_resets,
            "residual_suspicions": self.residual_suspicions,
            "last_fix_std_m": self.last_fix_std_m,
            "last_beacon_t": self._last_beacon_t,
            "suspicion": dict(self._suspicion),
            "window_beacons": [
                (anchor_id, position.x, position.y, rssi_dbm)
                for anchor_id, position, rssi_dbm in self._window_beacons
            ],
            "filter": filter_state,
            "dead_reckoner": None,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`snapshot` mapping (bit-exact resume).

        Raises:
            ValueError: the snapshot came from a different localization
                mode, the filter/grid shapes do not match, or the filter
                state carries no evidence.
        """
        if state.get("mode") != self._mode.value:
            raise ValueError(
                "snapshot mode %r does not match estimator mode %r"
                % (state.get("mode"), self._mode.value)
            )
        if self._filter is not None:
            if state.get("filter") is None:
                raise ValueError("snapshot carries no filter state")
            self._filter.restore_state(state["filter"], self._table)
        x, y = state["estimate"]
        self._estimate = Vec2(x, y)
        last_fix = state["last_fix"]
        self._last_fix = None if last_fix is None else Vec2(*last_fix)
        self._gate_armed = bool(state["gate_armed"])
        self._window_open = bool(state["window_open"])
        self.fixes = int(state["fixes"])
        self.beacons_heard = int(state["beacons_heard"])
        self.windows_without_fix = int(state["windows_without_fix"])
        self.beacons_gated = int(state["beacons_gated"])
        self.beacons_quarantined = int(state["beacons_quarantined"])
        self.watchdog_resets = int(state["watchdog_resets"])
        self.residual_suspicions = int(state["residual_suspicions"])
        self.last_fix_std_m = state["last_fix_std_m"]
        self._last_beacon_t = state["last_beacon_t"]
        self._suspicion = dict(state["suspicion"])
        self._window_beacons = [
            (anchor_id, Vec2(bx, by), rssi_dbm)
            for anchor_id, bx, by, rssi_dbm in state["window_beacons"]
        ]

    def _apply_cocoa_fix(self, fix: Vec2) -> None:
        """Re-anchor the dead reckoner on a fresh RF fix."""
        reckoner = self._dead_reckoner
        assert reckoner is not None
        if self._last_fix is not None:
            measured = fix - self._last_fix
            reckoned = reckoner.position - self._last_fix
            if (
                measured.norm() >= MIN_HEADING_FIX_DISPLACEMENT_M
                and reckoned.norm() >= MIN_HEADING_FIX_DISPLACEMENT_M
            ):
                correction = normalize_angle(
                    Vec2.zero().heading_to(measured)
                    - Vec2.zero().heading_to(reckoned)
                )
                reckoner.reset(
                    fix, normalize_angle(reckoner.heading + correction)
                )
                return
        reckoner.reset(fix)
