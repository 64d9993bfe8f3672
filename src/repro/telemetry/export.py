"""Exporters: one JSONL writer, Prometheus text and Perfetto JSON.

- :func:`write_jsonl` — the one line-per-record writer: sweep telemetry
  (job snapshots and the sweep summary), trace dumps and the serve ops
  log.  Keys are sorted so diffs are stable.  Two readers take it back:
  :func:`read_jsonl` skips corrupt lines (a half-written tail must not
  take ``repro report`` down); :func:`read_trace_jsonl` raises on them
  (``repro trace`` says the file is not trace JSONL).
- :func:`prometheus_text` — the ``# TYPE``-annotated exposition format,
  for scraping a dump into existing dashboards.
- :func:`perfetto_trace_events` / :func:`write_perfetto_json` — span
  records (:meth:`~repro.telemetry.spans.Span.as_record`) of either
  clock as a Chrome/Perfetto ``trace_event`` document, loadable in
  ``ui.perfetto.dev``.
- the human-readable run report lives in
  :mod:`repro.telemetry.report` (it needs rendering policy, not just
  serialization).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Union

from repro.telemetry.registry import Histogram, MetricsRegistry
from repro.telemetry.snapshot import TelemetrySnapshot

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "read_trace_jsonl",
    "prometheus_text",
    "perfetto_trace_events",
    "write_perfetto_json",
]

_INVALID_PROM_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Namespace of every exported Prometheus metric name.
PROM_PREFIX = "repro_"


def write_jsonl(path, records: Iterable[Mapping], mode: str = "w") -> int:
    """Write (or with ``mode='a'`` append) records as JSON lines to
    ``path``; returns the line count."""
    count = 0
    with open(path, mode, encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            count += 1
    return count


def read_jsonl(path: str) -> List[dict]:
    """Parse a JSONL file, skipping blank/corrupt lines (best effort —
    a half-written tail line must not take the report down with it)."""
    out: List[dict] = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except ValueError:
                continue
            if isinstance(record, dict):
                out.append(record)
    return out


def read_trace_jsonl(path) -> List[Dict[str, Any]]:
    """Read span records back (blank lines tolerated; a corrupt line
    raises ``ValueError``)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _prom_name(name: str) -> str:
    return _INVALID_PROM_CHARS.sub("_", PROM_PREFIX + name)


def _prom_type(name: str) -> str:
    """Classify a flattened metric name for the ``# TYPE`` annotation."""
    if name.endswith(("_p50", "_p90", "_fraction", "_depth", "_rate")):
        return "gauge"
    if name.startswith(("run_", "sim_max")):
        return "gauge"
    return "counter"


def prometheus_text(
    source: Union[TelemetrySnapshot, MetricsRegistry, Mapping[str, float]],
) -> str:
    """Render metrics in the Prometheus exposition format, each name
    prefixed with :data:`PROM_PREFIX`.

    Accepts a snapshot, a registry (whose histograms keep their bucket
    counts and are rendered with ``le`` labels) or any flat mapping.
    """
    lines: List[str] = []
    histograms: List[Histogram] = []
    if isinstance(source, MetricsRegistry):
        metrics = source.metrics()
        histograms = list(source._histograms.values())
        hist_flat_suffixes = ("_count", "_sum", "_p50", "_p90")
        hist_names = {h.name for h in histograms}
        metrics = {
            name: value
            for name, value in metrics.items()
            if not (
                name.endswith(hist_flat_suffixes)
                and name.rsplit("_", 1)[0] in hist_names
            )
        }
    elif isinstance(source, TelemetrySnapshot):
        metrics = dict(source.sorted_items())
    else:
        metrics = dict(sorted(source.items()))

    for name, value in metrics.items():
        prom = _prom_name(name)
        lines.append("# TYPE %s %s" % (prom, _prom_type(name)))
        lines.append("%s %s" % (prom, repr(float(value))))
    for histogram in sorted(histograms, key=lambda h: h.name):
        prom = _prom_name(histogram.name)
        lines.append("# TYPE %s histogram" % prom)
        cumulative = 0
        for edge, count in zip(histogram.edges, histogram.bucket_counts):
            cumulative += count
            lines.append('%s_bucket{le="%s"} %d' % (prom, edge, cumulative))
        lines.append('%s_bucket{le="+Inf"} %d' % (prom, histogram.count))
        lines.append("%s_sum %s" % (prom, repr(histogram.sum)))
        lines.append("%s_count %d" % (prom, histogram.count))
    return "\n".join(lines) + ("\n" if lines else "")


def perfetto_trace_events(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Span records → a Chrome/Perfetto ``trace_event`` document.

    Each closed span becomes one complete event (``"ph": "X"``, times in
    microseconds of its own clock) whose category is its ``clock`` tag.
    Each trace key gets its own ``tid`` track: one per request for wall
    spans, one per robot for sim spans.  Spans still open when recorded
    are skipped.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[Any, int] = {}
    for record in records:
        end_s = record.get("end_s")
        if end_s is None:
            continue
        # Recordings made before spans carried a clock tag are serve's.
        clock = record.get("clock", "wall")
        key = record["trace"]
        tid = tids.setdefault((clock, key), len(tids) + 1)
        start_us = record["start_s"] * 1e6
        args = dict(record.get("attrs") or {})
        args["trace"] = key
        args["span"] = record["span"]
        if record.get("parent") is not None:
            args["parent"] = record["parent"]
        events.append({
            "name": record["name"],
            "ph": "X",
            "ts": start_us,
            "dur": max(0.0, end_s * 1e6 - start_us),
            "pid": 1,
            "tid": tid,
            "cat": clock,
            "args": args,
        })
    # Metadata events label each track.
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": "%s %s" % (
                "node" if clock == "sim" else "trace", key
            )},
        }
        for (clock, key), tid in tids.items()
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_perfetto_json(path, records: Iterable[Dict[str, Any]]) -> int:
    """Write the Perfetto document; returns the non-metadata event count."""
    document = perfetto_trace_events(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return sum(1 for event in document["traceEvents"] if event["ph"] == "X")
