"""The human-readable end-of-run / end-of-sweep telemetry report.

:func:`render_report` turns a (possibly merged) snapshot plus optional
orchestrator-level records into the per-subsystem text summary the
``repro report`` subcommand prints.  Derived ratios (delivery rate,
sleep fraction, cache hit rate, forwarding ratio) are computed here from
the raw sums, never stored in snapshots — see
:mod:`repro.telemetry.snapshot` for why.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = ["render_report"]


def _fmt(value: float) -> str:
    """Integers without decimals, everything else compactly."""
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return "%.3g" % value


def _pct(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "n/a"
    return "%.1f%%" % (100.0 * numerator / denominator)


def _section(title: str, rows: Sequence[str]) -> List[str]:
    lines = [title]
    lines.extend("  " + row for row in rows)
    return lines


def _drops_row(snapshot: TelemetrySnapshot) -> str:
    causes = (
        ("below-sensitivity", "net_drops_below_sensitivity"),
        ("collided", "net_drops_collided"),
        ("asleep", "net_drops_asleep"),
        ("half-duplex", "net_drops_half_duplex"),
        ("jammed", "net_drops_jammed"),
        ("brownout", "net_drops_brownout"),
        ("crc", "net_drops_crc"),
    )
    return "drops by cause: " + ", ".join(
        "%s %s" % (label, _fmt(snapshot.get(key))) for label, key in causes
    )


def render_report(
    snapshot: TelemetrySnapshot,
    sweep: Optional[Mapping[str, object]] = None,
    title: str = "telemetry report",
) -> str:
    """Render the per-subsystem summary.

    Args:
        snapshot: merged run metrics (``snapshot.n_runs`` runs).
        sweep: optional orchestrator-level record — the mapping written
            by :meth:`~repro.orchestrator.cache.ResultCache.record_sweep`
            (``jobs``, ``cache_hits``, ``cache_misses``, ``retried``,
            ``wall_s``, ``n_workers``, ``job_wall_p50_s``,
            ``job_wall_p90_s``).
        title: report heading.
    """
    g = snapshot.get
    lines: List[str] = [
        "%s — %d run%s aggregated"
        % (title, snapshot.n_runs, "" if snapshot.n_runs == 1 else "s"),
        "",
    ]

    sent = g("net_frames_sent")
    offered = g("net_frames_offered")
    delivered = g("net_frames_delivered")
    lines += _section("network", [
        "frames sent %s, offered %s, delivered %s (%s of offers)"
        % (_fmt(sent), _fmt(offered), _fmt(delivered),
           _pct(delivered, offered)),
        _drops_row(snapshot),
        "corrupted-but-accepted %s, airtime %.3f s"
        % (_fmt(g("net_frames_corrupted")), g("net_airtime_s")),
    ])

    heard = g("estimator_beacons_heard")
    lines += _section("estimator", [
        "beacons heard %s, gated %s, quarantined %s"
        % (_fmt(heard), _fmt(g("estimator_beacons_gated")),
           _fmt(g("estimator_beacons_quarantined"))),
        "fixes %s, windows without fix %s"
        % (_fmt(g("estimator_fixes")),
           _fmt(g("estimator_windows_without_fix"))),
        "watchdog resets %s, residual suspicions %s"
        % (_fmt(g("estimator_watchdog_resets")),
           _fmt(g("estimator_residual_suspicions"))),
    ])

    state_s = {
        key: g("radio_%s_s" % key) for key in ("sleep", "idle", "tx", "rx")
    }
    total_s = sum(state_s.values()) + g("radio_off_s")
    lines += _section("radio", [
        "sleep fraction %s (sleep %.0f s / awake %.0f s node-seconds)"
        % (_pct(state_s["sleep"], total_s), state_s["sleep"],
           state_s["idle"] + state_s["tx"] + state_s["rx"]),
        "idle %s, tx %s, rx %s, transitions %s"
        % (_pct(state_s["idle"], total_s), _pct(state_s["tx"], total_s),
           _pct(state_s["rx"], total_s), _fmt(g("radio_transitions"))),
    ])

    lines += _section("energy", [
        "total %.2f J (tx %.2f, rx %.2f, idle %.2f, sleep %.2f, "
        "packets %.2f, transitions %.2f)"
        % (g("energy_total_j"), g("energy_tx_j"), g("energy_rx_j"),
           g("energy_idle_j"), g("energy_sleep_j"),
           g("energy_packet_send_j") + g("energy_packet_recv_j"),
           g("energy_transition_j")),
    ])

    rebuilds = g("multicast_mesh_rebuilds")
    forwarded = g("multicast_data_forwarded")
    delivered_mc = g("multicast_data_delivered")
    lines += _section("multicast", [
        "mesh rebuilds %s, route switches %s, jr sent %s"
        % (_fmt(rebuilds), _fmt(g("multicast_route_switches")),
           _fmt(g("multicast_jr_sent"))),
        "data forwarded %s, delivered %s (%.2f forwards per delivery), "
        "suppressed %s"
        % (_fmt(forwarded), _fmt(delivered_mc),
           forwarded / delivered_mc if delivered_mc else 0.0,
           _fmt(g("multicast_forwards_suppressed"))),
        "syncs received %s" % _fmt(g("coordinator_syncs_received")),
    ])

    lines += _section("simulation", [
        "events processed %s, cancelled %s, max queue depth %s"
        % (_fmt(g("sim_events_processed")), _fmt(g("sim_events_cancelled")),
           _fmt(g("sim_max_queue_depth"))),
        "windows run %s, beacons sent %s"
        % (_fmt(g("coordinator_windows_run")), _fmt(g("beacons_sent"))),
    ])

    constraint_hits = snapshot.metrics.get("kernel_cache_constraint_hits")
    if constraint_hits is not None:
        ch = float(constraint_hits)
        cm = g("kernel_cache_constraint_misses")
        dh = g("kernel_cache_distance_hits")
        dm = g("kernel_cache_distance_misses")
        lines += _section("kernel cache", [
            "constraint fields: hits %s, misses %s (hit rate %s)"
            % (_fmt(ch), _fmt(cm), _pct(ch, ch + cm)),
            "distance fields: hits %s, misses %s (hit rate %s)"
            % (_fmt(dh), _fmt(dm), _pct(dh, dh + dm)),
            "positions dropped %s" % _fmt(g("kernel_cache_evictions")),
        ])

    if sweep is not None:
        hits = float(sweep.get("cache_hits", 0) or 0)
        misses = float(sweep.get("cache_misses", 0) or 0)
        rows = [
            "jobs %s, cache hits %s, misses %s (hit rate %s)"
            % (_fmt(float(sweep.get("jobs", 0) or 0)), _fmt(hits),
               _fmt(misses), _pct(hits, hits + misses)),
            "retried %s, workers %s, wall %.1f s"
            % (_fmt(float(sweep.get("retried", 0) or 0)),
               _fmt(float(sweep.get("n_workers", 1) or 1)),
               float(sweep.get("wall_s", 0.0) or 0.0)),
        ]
        p50 = sweep.get("job_wall_p50_s")
        p90 = sweep.get("job_wall_p90_s")
        if p50 is not None and p90 is not None:
            rows.append(
                "job wall p50 %.2f s, p90 %.2f s" % (float(p50), float(p90))
            )
        cpu = snapshot.metrics.get("orchestrator_job_cpu_s")
        if cpu is not None:
            rows.append("job cpu total %.2f s" % cpu)
        lines += _section("orchestrator", rows)

    tracer_spans = snapshot.metrics.get("trace_spans_recorded")
    if tracer_spans is not None:
        lines += _section("tracing", [
            "spans recorded %s, dropped %s"
            % (_fmt(tracer_spans), _fmt(g("trace_spans_dropped"))),
        ])
    return "\n".join(lines) + "\n"
