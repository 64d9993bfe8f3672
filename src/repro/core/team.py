"""Team orchestration: build and run a complete CoCoA scenario.

:class:`CoCoATeam` assembles the full simulated system from a
:class:`~repro.core.config.CoCoAConfig` — channel, robots, clocks,
coordinators, multicast, beaconers, estimators and metric sampling — and
:meth:`CoCoATeam.run` executes it, returning a :class:`TeamResult` with
everything the paper's evaluation plots need: the per-second localization
error of every measured robot, the team energy breakdown, and protocol
counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.beaconing import BEACON_KIND, AnchorBeaconer
from repro.core.calibration import build_pdf_table
from repro.core.constraint_cache import ConstraintFieldCache
from repro.core.clock import DriftingClock
from repro.core.config import (
    CoCoAConfig,
    LocalizationFilter,
    LocalizationMode,
    MulticastProtocol,
)
from repro.core.coordinator import (
    SYNC_BODY_BYTES,
    Coordinator,
    SyncPayload,
)
from repro.core.estimator import PositionEstimator
from repro.core.node import RobotNode, RobotRole
from repro.core.pdf_table import PdfTable
from repro.energy.report import TeamEnergyReport, aggregate_meters
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan
from repro.kernels import KernelConfig, resolve_kernels
from repro.mobility.odometry import OdometrySensor
from repro.mobility.waypoint import WaypointMobility
from repro.multicast.lifetime import kinematics_of
from repro.multicast.mrmm import MrmmConfig, MrmmNode
from repro.multicast.odmrp import MulticastStats, OdmrpConfig, OdmrpNode
from repro.net.channel import BroadcastChannel, ChannelStats
from repro.net.interface import NetworkInterface
from repro.net.packet import ReceivedPacket
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.timers import PeriodicTimer
from repro.sim.world import WorldState
from repro.telemetry.collect import Telemetry, collect_team_snapshot
from repro.telemetry.registry import COUNT_EDGES, DISTANCE_EDGES_M
from repro.telemetry.snapshot import TelemetrySnapshot


@dataclass
class TeamResult:
    """Everything a run produced.

    Attributes:
        config: the scenario that was run.
        times: sample timestamps (seconds), shape ``(n_samples,)``.
        errors: localization error of each measured robot at each sample,
            shape ``(n_measured, n_samples)``.
        measured_ids: node ids of the measured (non-anchor) robots.
        energy: team-wide energy aggregation.
        per_node_energy_j: node id -> total joules.
        channel_stats: medium-level delivery counters.
        multicast_stats: team-summed mesh protocol counters.
        beacons_sent: total beacons transmitted by anchors.
        fixes: total RF fixes produced across measured robots.
        windows_without_fix: beacon rounds that ended with too few beacons.
        syncs_received: SYNC messages delivered across the team.
        beacons_gated: beacons rejected by the geometric consistency gate.
        beacons_quarantined: beacons ignored from quarantined anchors.
        watchdog_resets: posterior-health watchdog resets across robots.
        telemetry: the run's metric snapshot (always populated by
            :meth:`CoCoATeam.run`; rich-mode keys appear only when the
            team was built with a :class:`~repro.telemetry.collect.Telemetry`
            handle).  Rides in the result cache, so reports over cached
            sweeps need no re-simulation.
    """

    config: CoCoAConfig
    times: np.ndarray
    errors: np.ndarray
    measured_ids: List[int]
    energy: TeamEnergyReport
    per_node_energy_j: Dict[int, float]
    channel_stats: ChannelStats
    multicast_stats: MulticastStats
    beacons_sent: int = 0
    fixes: int = 0
    windows_without_fix: int = 0
    syncs_received: int = 0
    beacons_gated: int = 0
    beacons_quarantined: int = 0
    watchdog_resets: int = 0
    telemetry: Optional[TelemetrySnapshot] = None

    def mean_error_series(self) -> np.ndarray:
        """Average error over robots at each sample time (the paper's
        error-over-time curves).

        NaN-aware: failed robots (failure-injection runs) record NaN and
        simply stop counting toward the average.
        """
        return np.nanmean(self.errors, axis=0)

    def time_average_error(self) -> float:
        """The scalar the paper quotes: error averaged over robots and
        time (NaN-aware, see :meth:`mean_error_series`)."""
        return float(np.nanmean(self.errors))

    def max_mean_error(self) -> float:
        """Peak of the robot-averaged error curve."""
        return float(self.mean_error_series().max())

    def final_mean_error(self) -> float:
        """Robot-averaged error at the last sample."""
        return float(self.mean_error_series()[-1])

    def error_snapshot(self, at_time: float) -> np.ndarray:
        """Per-robot errors at the sample nearest ``at_time`` (CDF input)."""
        idx = int(np.argmin(np.abs(self.times - at_time)))
        return self.errors[:, idx].copy()

    def total_energy_j(self) -> float:
        """Team-wide total energy in joules."""
        return self.energy.total_j


class CoCoATeam:
    """Builds and runs one scenario.

    Args:
        config: the scenario description.
        pdf_table: optionally reuse an already calibrated PDF Table (the
            calibration is a property of the hardware, not the scenario,
            so parameter sweeps share it — and save the calibration cost).
        faults: optional :class:`~repro.faults.spec.FaultPlan` overriding
            ``config.faults`` (the config field is what sweeps and the
            result cache see; the argument is an escape hatch for direct
            programmatic use).
        telemetry: optional rich-instrumentation handle.  When given, the
            coordinators record beacon-round spans, beacon receptions
            become child events, and fix quality lands in registry
            histograms.  Deliberately *not* part of the config: telemetry
            never changes simulation behaviour, so it must not change
            cache fingerprints either.
        kernels: optional :class:`~repro.kernels.KernelConfig` selecting
            LUT or exact densities.  Defaults through
            :func:`~repro.kernels.default_kernels` (process override,
            then the ``REPRO_KERNELS`` environment variable, then LUT
            on).  Like telemetry, it is
            not part of the config: the LUT stays within figure
            tolerance, so it must not change cache fingerprints.
    """

    def __init__(
        self,
        config: CoCoAConfig,
        pdf_table: Optional[PdfTable] = None,
        faults: Optional[FaultPlan] = None,
        telemetry: Optional[Telemetry] = None,
        kernels: Optional[KernelConfig] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.kernels = resolve_kernels(kernels)
        self.streams = RandomStreams(config.master_seed)
        self.sim = Simulator()
        self.channel = BroadcastChannel(
            self.sim, config.path_loss, self.streams.get("phy")
        )
        self.world = WorldState(config.n_robots)
        self.channel.attach_world(self.world)
        plan = faults if faults is not None else config.faults
        self.fault_plan = plan
        self.faults: Optional[FaultInjector] = None
        if not plan.is_noop():
            # A no-op plan never constructs an injector: the unfaulted
            # code path runs untouched and stays bit-identical.
            self.faults = FaultInjector(
                plan, self.streams, crc_check=config.defenses.crc_check
            )
            self.channel.install_faults(self.faults)
        if pdf_table is None and self._needs_rf():
            calibration = build_pdf_table(
                config.path_loss,
                self.streams.get("calibration"),
                n_samples=config.calibration_samples,
                receiver=config.receiver,
            )
            pdf_table = calibration.table
        self.pdf_table = pdf_table
        if self.pdf_table is not None:
            # Per-run LUT selection.  Tables are shared across runs via
            # SharedCalibration, so this must be (and is) idempotent:
            # flipping the flag keeps any already-built LUT arrays
            # around for the next LUT run.
            self.pdf_table.set_lut(self.kernels.lut_pdf)
        self.constraint_cache: Optional[ConstraintFieldCache] = None
        if self._needs_rf():
            self.constraint_cache = ConstraintFieldCache()
        self.nodes: List[RobotNode] = []
        self._sync_seq = 0
        self._build_team()
        self._sample_times: List[float] = []
        self._sample_errors: List[List[float]] = []

    def _needs_rf(self) -> bool:
        return (
            self.config.localization_mode is not LocalizationMode.ODOMETRY_ONLY
            and self.config.n_anchors > 0
        )

    # -- construction --------------------------------------------------------

    def _build_team(self) -> None:
        config = self.config
        rf_active = self._needs_rf()
        sync_robot_id = 0 if rf_active else None
        for node_id in range(config.n_robots):
            is_anchor = node_id < config.n_anchors
            mobility = WaypointMobility(
                config.area,
                self.streams.spawn("mobility", node_id),
                v_min=config.v_min,
                v_max=config.v_max,
                rest_time_max=config.rest_time_max_s,
            )
            interface = NetworkInterface(
                self.sim,
                node_id,
                mobility,
                self.channel,
                config.energy_model,
                self.streams.spawn("mac", node_id),
                receiver=config.receiver,
            )
            mobility.bind_world(self.world, node_id)
            interface.radio.bind_world(self.world, node_id)
            clock = DriftingClock.random(
                self.streams.spawn("clock", node_id), config.clock_drift_rate
            )
            if self.faults is not None:
                self.faults.attach_radio(node_id, interface.radio)
            multicast = (
                self._build_multicast(node_id, interface, mobility, sync_robot_id)
                if rf_active
                else None
            )
            beaconer = None
            estimator = None
            if is_anchor and rf_active:
                beaconer = AnchorBeaconer(
                    self.sim,
                    interface,
                    mobility,
                    self.streams.spawn("beacon", node_id),
                    k=config.beacons_per_window,
                    window_s=config.transmit_window_s,
                    slam_error_std_m=config.slam_error_std_m,
                )
            measured = self._is_measured(node_id, is_anchor)
            if measured:
                estimator = self._build_estimator(node_id, mobility)
            role = (
                RobotRole.ANCHOR
                if is_anchor and rf_active
                else RobotRole.UNKNOWN
            )
            coordinator = None
            if rf_active:
                coordinator = self._build_coordinator(
                    node_id,
                    clock,
                    interface,
                    beaconer,
                    estimator,
                    multicast,
                    is_sync=node_id == sync_robot_id,
                )
            node = RobotNode(
                node_id=node_id,
                role=role,
                mobility=mobility,
                interface=interface,
                coordinator=coordinator,
                multicast=multicast,
                beaconer=beaconer,
                estimator=estimator,
                is_sync_robot=node_id == sync_robot_id,
            )
            if estimator is not None and rf_active:
                handler = node.handle_beacon
                if self.telemetry is not None and coordinator is not None:
                    handler = self._traced_beacon_handler(node, coordinator)
                interface.on_receive(BEACON_KIND, handler)
            if multicast is not None and coordinator is not None:
                multicast.on_data(
                    lambda body, rp, c=coordinator, b=beaconer: (
                        self._handle_sync(body, c, b)
                    )
                )
            self.nodes.append(node)

    def _traced_beacon_handler(
        self, node: RobotNode, coordinator: Coordinator
    ):
        """Wrap beacon delivery with a point event parented to the node's
        current beacon-round span.  Pure observation: the wrapped handler
        runs unchanged and the tracer touches neither RNG nor the queue."""
        tracer = self.telemetry.tracer

        def handle(received: ReceivedPacket) -> None:
            tracer.event(
                self.sim.now,
                "beacon_rx",
                node=node.node_id,
                parent=coordinator.window_span,
                anchor=received.packet.src,
                rssi=received.rssi_dbm,
            )
            node.handle_beacon(received)

        return handle

    def _is_measured(self, node_id: int, is_anchor: bool) -> bool:
        """Whose localization error the experiment reports."""
        if self.config.localization_mode is LocalizationMode.ODOMETRY_ONLY:
            return True  # §4.1 averages over all 50 robots
        return not is_anchor

    def _build_multicast(
        self,
        node_id: int,
        interface: NetworkInterface,
        mobility: WaypointMobility,
        sync_robot_id: Optional[int],
    ) -> OdmrpNode:
        provider = lambda m=mobility: kinematics_of(m, self.sim.now)  # noqa: E731
        rng = self.streams.spawn("multicast", node_id)
        is_source = node_id == sync_robot_id
        is_member = not is_source
        if self.config.multicast is MulticastProtocol.MRMM:
            return MrmmNode(
                self.sim,
                interface,
                rng,
                MrmmConfig(),
                is_source=is_source,
                is_member=is_member,
                kinematics_provider=provider,
            )
        return OdmrpNode(
            self.sim,
            interface,
            rng,
            OdmrpConfig(),
            is_source=is_source,
            is_member=is_member,
            kinematics_provider=provider,
        )

    def _build_estimator(
        self, node_id: int, mobility: WaypointMobility
    ) -> PositionEstimator:
        config = self.config
        mode = config.localization_mode
        odometry = None
        if mode is not LocalizationMode.RF_ONLY:
            odometry = OdometrySensor(
                mobility,
                self.streams.spawn("odometry", node_id),
                noise=config.odometry_noise,
            )
        initial_position = None
        initial_heading = 0.0
        if mode is LocalizationMode.ODOMETRY_ONLY:
            pose = mobility.pose(0.0)
            initial_position = pose.position
            initial_heading = pose.heading
        position_filter = None
        if (
            mode is not LocalizationMode.ODOMETRY_ONLY
            and config.localization_filter is LocalizationFilter.PARTICLE
        ):
            from repro.core.particle import ParticleFilter

            position_filter = ParticleFilter(
                config.area,
                self.streams.spawn("filter", node_id),
                n_particles=config.n_particles,
            )
        defenses = config.defenses
        return PositionEstimator(
            mode=mode,
            area=config.area,
            pdf_table=self.pdf_table,
            odometry=odometry,
            grid_resolution_m=config.grid_resolution_m,
            min_beacons_for_fix=config.min_beacons_for_fix,
            initial_position=initial_position,
            initial_heading=initial_heading,
            position_filter=position_filter,
            beacon_gate_sigma=defenses.beacon_gate_sigma,
            beacon_gate_slack_m=defenses.beacon_gate_slack_m,
            watchdog=defenses.watchdog,
            anchor_expiry_s=defenses.anchor_expiry_s,
            constraint_cache=self.constraint_cache,
        )

    def _build_coordinator(
        self,
        node_id: int,
        clock: DriftingClock,
        interface: NetworkInterface,
        beaconer: Optional[AnchorBeaconer],
        estimator: Optional[PositionEstimator],
        multicast: Optional[OdmrpNode],
        is_sync: bool,
    ) -> Coordinator:
        config = self.config

        def window_open() -> None:
            if estimator is not None:
                estimator.on_window_open()

        def window_start() -> None:
            if beaconer is not None:
                beaconer.start_window()
            if is_sync and multicast is not None:
                self._sync_round(multicast, clock)

        telemetry = self.telemetry
        window_state = {"heard": 0}

        def window_close() -> None:
            if estimator is None:
                return
            fixes_before = estimator.fixes
            estimator.on_window_close()
            if telemetry is None:
                return
            registry = telemetry.registry
            heard = estimator.beacons_heard
            registry.histogram(
                "estimator_beacons_per_window", COUNT_EDGES
            ).observe(heard - window_state["heard"])
            window_state["heard"] = heard
            if (
                estimator.fixes > fixes_before
                and estimator.last_fix_std_m is not None
            ):
                registry.histogram(
                    "estimator_fix_std_m", DISTANCE_EDGES_M
                ).observe(estimator.last_fix_std_m)

        return Coordinator(
            self.sim,
            clock,
            interface,
            period_s=config.beacon_period_s,
            window_s=config.transmit_window_s,
            guard_s=config.guard_s,
            sync_slack_s=config.sync_slack_s,
            coordination=config.coordination,
            on_window_open=window_open,
            on_window_start=window_start,
            on_window_close=window_close,
            tracer=telemetry.tracer if telemetry is not None else None,
        )

    def _sync_round(self, source: OdmrpNode, clock: DriftingClock) -> None:
        """The Sync robot's per-period duties: refresh the mesh, send SYNC.

        The JOIN QUERY is flooded twice and the SYNC data sent twice, the
        same repetition-for-reliability principle as the ``k`` beacons.
        """
        source.send_join_query()
        self.sim.schedule(0.3, self._safe_jq, source, name="sync-jq-repeat")
        self.sim.schedule(0.8, self._send_sync, source, clock, name="sync-tx")
        self.sim.schedule(1.6, self._send_sync, source, clock, name="sync-tx")

    def _safe_jq(self, source: OdmrpNode) -> None:
        if source.is_source:
            source.send_join_query()

    def _send_sync(self, source: OdmrpNode, clock: DriftingClock) -> None:
        if not source.is_source:
            return  # demoted between scheduling and firing (failover)
        self._sync_seq += 1
        payload = SyncPayload(
            period_s=self.config.beacon_period_s,
            window_s=self.config.transmit_window_s,
            seq=self._sync_seq,
            reference_local_time=clock.local_time(self.sim.now),
            source_id=source.node_id,
        )
        source.send_data(payload, SYNC_BODY_BYTES)

    def _handle_sync(
        self,
        body: object,
        coordinator: Coordinator,
        beaconer: Optional[AnchorBeaconer],
    ) -> None:
        if not isinstance(body, SyncPayload):
            return
        coordinator.on_sync(body)
        if beaconer is not None:
            beaconer.set_window(body.window_s)

    # -- execution ------------------------------------------------------------

    def _measured_nodes(self) -> List[RobotNode]:
        return [n for n in self.nodes if n.estimator is not None]

    def _sample_metrics(self, _count: int) -> None:
        t = self.sim.now
        # Advance every estimator first (each draws only from its own
        # streams, so the order against the position pass is free), then
        # evaluate all true positions in one vectorized pass.
        measured = self._measured_nodes()
        for node in measured:
            node.estimator.advance_to(t)
        xs, ys = self.world.positions_at(t)
        self._sample_times.append(t)
        self._sample_errors.append(
            [
                node.localization_error_from(
                    xs[node.node_id], ys[node.node_id]
                )
                for node in measured
            ]
        )

    def run(self) -> TeamResult:
        """Execute the scenario and collect the results."""
        config = self.config
        for node in self.nodes:
            if node.coordinator is not None:
                node.coordinator.start()
        PeriodicTimer(
            self.sim,
            config.metric_interval_s,
            self._sample_metrics,
            start_delay=config.metric_interval_s,
            name="metrics",
        )
        self.sim.run(until=config.duration_s)
        for node in self.nodes:
            node.interface.finalize()

        meters = [node.interface.meter for node in self.nodes]
        measured = self._measured_nodes()
        mc_stats = MulticastStats()
        syncs = 0
        for node in self.nodes:
            if node.multicast is not None:
                s = node.multicast.stats
                mc_stats.jq_originated += s.jq_originated
                mc_stats.jq_forwarded += s.jq_forwarded
                mc_stats.jr_sent += s.jr_sent
                mc_stats.data_originated += s.data_originated
                mc_stats.data_forwarded += s.data_forwarded
                mc_stats.data_delivered += s.data_delivered
                mc_stats.duplicates_dropped += s.duplicates_dropped
                mc_stats.forwards_suppressed += s.forwards_suppressed
            if node.coordinator is not None:
                syncs += node.coordinator.syncs_received
        errors = np.array(self._sample_errors, dtype=float).T
        if errors.size == 0:
            errors = np.zeros((len(measured), 0))
        result = TeamResult(
            config=config,
            times=np.array(self._sample_times, dtype=float),
            errors=errors,
            measured_ids=[n.node_id for n in measured],
            energy=aggregate_meters(
                meters,
                registry=(
                    self.telemetry.registry
                    if self.telemetry is not None
                    else None
                ),
            ),
            per_node_energy_j={
                node.node_id: node.interface.meter.total_j
                for node in self.nodes
            },
            channel_stats=self.channel.stats,
            multicast_stats=mc_stats,
            beacons_sent=sum(
                n.beaconer.beacons_sent
                for n in self.nodes
                if n.beaconer is not None
            ),
            fixes=sum(n.estimator.fixes for n in measured),
            windows_without_fix=sum(
                n.estimator.windows_without_fix for n in measured
            ),
            syncs_received=syncs,
            beacons_gated=sum(n.estimator.beacons_gated for n in measured),
            beacons_quarantined=sum(
                n.estimator.beacons_quarantined for n in measured
            ),
            watchdog_resets=sum(
                n.estimator.watchdog_resets for n in measured
            ),
        )
        result.telemetry = collect_team_snapshot(self, result)
        return result
