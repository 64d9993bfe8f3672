"""Turning a finished run into a :class:`TelemetrySnapshot`.

Two layers feed the snapshot:

1. **Always-on counters.**  Every subsystem keeps plain integer/float
   counters on its own objects (the channel's :class:`ChannelStats`, the
   estimator's fix/gate tallies, the energy meter's per-state durations,
   the simulator's event counts).  They cost an attribute increment in
   the hot path — unmeasurable against the work they count — and
   :func:`collect_team_snapshot` reads them *once, after the run*, so the
   baseline snapshot is free of any per-event telemetry machinery.

2. **Opt-in rich instrumentation.**  A :class:`Telemetry` handle (a
   registry plus a span tracer) can be passed into a run; the team wires
   it to window spans, per-fix histograms and receive events.  Its
   registry flattens into the same snapshot under extra keys.  Rich mode
   never touches RNG or the event queue, so results stay bit-identical —
   the regression suite compares enabled vs. disabled runs byte for byte.

This module is deliberately duck-typed (no imports from ``repro.core``)
so the telemetry package sits below every instrumented layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanTracer

__all__ = ["Telemetry", "collect_team_snapshot"]

#: Default ring-buffer size for rich-mode tracers: large enough for the
#: paper's longest scenario, bounded so soak runs cannot exhaust memory.
DEFAULT_MAX_SPANS = 200_000


@dataclass
class Telemetry:
    """The opt-in rich instrumentation handle for one run."""

    registry: MetricsRegistry = dataclass_field(default_factory=MetricsRegistry)
    tracer: SpanTracer = dataclass_field(
        default_factory=lambda: SpanTracer(max_records=DEFAULT_MAX_SPANS)
    )

    @classmethod
    def enabled(cls, max_spans: Optional[int] = DEFAULT_MAX_SPANS) -> "Telemetry":
        """A fresh registry + bounded tracer pair."""
        return cls(MetricsRegistry(), SpanTracer(max_records=max_spans))


def _channel_metrics(stats) -> Dict[str, float]:
    return {
        "net_frames_sent": float(stats.frames_sent),
        "net_frames_offered": float(stats.frames_offered),
        "net_frames_delivered": float(stats.frames_delivered),
        "net_drops_below_sensitivity": float(stats.frames_below_sensitivity),
        "net_drops_collided": float(stats.frames_collided),
        "net_drops_asleep": float(stats.frames_missed_asleep),
        "net_drops_half_duplex": float(stats.frames_missed_half_duplex),
        "net_drops_jammed": float(stats.frames_jammed),
        "net_drops_brownout": float(stats.frames_missed_brownout),
        "net_drops_crc": float(stats.frames_crc_dropped),
        "net_frames_corrupted": float(stats.frames_corrupted),
        "net_airtime_s": float(stats.airtime_s),
    }


def _multicast_metrics(stats) -> Dict[str, float]:
    return {
        "multicast_mesh_rebuilds": float(stats.jq_originated),
        "multicast_jq_forwarded": float(stats.jq_forwarded),
        "multicast_jr_sent": float(stats.jr_sent),
        "multicast_data_originated": float(stats.data_originated),
        "multicast_data_forwarded": float(stats.data_forwarded),
        "multicast_data_delivered": float(stats.data_delivered),
        "multicast_duplicates_dropped": float(stats.duplicates_dropped),
        "multicast_forwards_suppressed": float(stats.forwards_suppressed),
        "multicast_route_switches": float(
            getattr(stats, "route_switches", 0)
        ),
    }


def collect_team_snapshot(team, result) -> TelemetrySnapshot:
    """Build the end-of-run snapshot for one scenario.

    Args:
        team: the finished :class:`~repro.core.team.CoCoATeam` (its
            simulator, nodes and channel are read, never mutated).
        result: the run's :class:`~repro.core.team.TeamResult`.
    """
    config = team.config
    metrics: Dict[str, float] = {
        "run_duration_s": float(config.duration_s),
        "run_n_robots": float(config.n_robots),
        "run_n_anchors": float(config.n_anchors),
        # -- simulation engine ---------------------------------------------
        "sim_events_processed": float(team.sim.events_processed),
        "sim_events_cancelled": float(team.sim.events_cancelled),
        "sim_max_queue_depth": float(team.sim.max_queue_depth),
    }
    metrics.update(_channel_metrics(result.channel_stats))
    metrics.update(_multicast_metrics(result.multicast_stats))

    # -- estimator / coordinator ------------------------------------------
    metrics.update({
        "estimator_beacons_heard": 0.0,
        "estimator_beacons_gated": float(result.beacons_gated),
        "estimator_beacons_quarantined": float(result.beacons_quarantined),
        "estimator_fixes": float(result.fixes),
        "estimator_windows_without_fix": float(result.windows_without_fix),
        "estimator_watchdog_resets": float(result.watchdog_resets),
        "estimator_residual_suspicions": 0.0,
        "coordinator_windows_run": 0.0,
        "coordinator_syncs_received": float(result.syncs_received),
        "coordinator_resync_periods": 0.0,
        "beacons_sent": float(result.beacons_sent),
    })
    for node in team.nodes:
        estimator = getattr(node, "estimator", None)
        if estimator is not None:
            metrics["estimator_beacons_heard"] += float(
                estimator.beacons_heard
            )
            metrics["estimator_residual_suspicions"] += float(
                getattr(estimator, "residual_suspicions", 0)
            )
        coordinator = getattr(node, "coordinator", None)
        if coordinator is not None:
            metrics["coordinator_windows_run"] += float(
                coordinator.windows_run
            )
            metrics["coordinator_resync_periods"] += float(
                coordinator.resync_periods
            )

    # -- radio / energy ----------------------------------------------------
    for key in ("sleep", "idle", "tx", "rx", "off"):
        metrics["radio_%s_s" % key] = 0.0
    metrics["radio_transitions"] = 0.0
    metrics["radio_packets_sent"] = 0.0
    metrics["radio_packets_received"] = 0.0
    for node in team.nodes:
        meter = node.interface.meter
        for state, duration_s in meter.state_durations_s.items():
            metrics["radio_%s_s" % state.value] += duration_s
        metrics["radio_transitions"] += float(meter.transitions)
        metrics["radio_packets_sent"] += float(meter.packets_sent)
        metrics["radio_packets_received"] += float(meter.packets_received)
    for key, value in result.energy.breakdown.as_dict().items():
        metrics["energy_%s" % key] = float(value)

    # -- constraint-field cache --------------------------------------------
    # Only RF runs build one; odometry-only runs export no cache keys.
    cache = getattr(team, "constraint_cache", None)
    if cache is not None:
        for key, value in cache.counters().items():
            metrics[key] = float(value)

    snapshot = TelemetrySnapshot(metrics=metrics)

    # -- rich-mode extras --------------------------------------------------
    telemetry = getattr(team, "telemetry", None)
    if telemetry is not None:
        for name, value in telemetry.registry.metrics().items():
            snapshot.metrics[name] = value
        snapshot.metrics["trace_spans_recorded"] = float(
            len(telemetry.tracer)
        )
        snapshot.metrics["trace_spans_dropped"] = float(
            telemetry.tracer.dropped_count
        )
    return snapshot
