"""Unified telemetry: metrics registry, spans, exporters, run reports.

The package sits below every instrumented layer (sim, net, core, energy,
multicast, orchestrator) and imports none of them — subsystems hand it
plain values and duck-typed stats objects.
"""

from repro.telemetry.collect import Telemetry, collect_team_snapshot
from repro.telemetry.export import (
    perfetto_trace_events,
    prometheus_text,
    read_jsonl,
    read_trace_jsonl,
    write_jsonl,
    write_perfetto_json,
)
from repro.telemetry.registry import (
    COUNT_EDGES,
    DISTANCE_EDGES_M,
    DURATION_EDGES_S,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.telemetry.report import render_report
from repro.telemetry.snapshot import (
    LAST_METRICS,
    MAX_METRICS,
    TelemetrySnapshot,
    merge_snapshots,
)
from repro.telemetry.spans import DEFAULT_MAX_SPANS, Ring, Span, SpanTracer

__all__ = [
    "Telemetry",
    "collect_team_snapshot",
    "DEFAULT_MAX_SPANS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DURATION_EDGES_S",
    "DISTANCE_EDGES_M",
    "COUNT_EDGES",
    "Ring",
    "Span",
    "SpanTracer",
    "TelemetrySnapshot",
    "merge_snapshots",
    "MAX_METRICS",
    "LAST_METRICS",
    "write_jsonl",
    "read_jsonl",
    "read_trace_jsonl",
    "prometheus_text",
    "perfetto_trace_events",
    "write_perfetto_json",
    "render_report",
]
