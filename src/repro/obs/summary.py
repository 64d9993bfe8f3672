"""Per-hop latency attribution over recorded trace spans.

Turns a flat list of span records into the two views the ``repro
trace`` CLI prints:

- :func:`hop_table` / :func:`render_summary` — per-hop count, total,
  mean, p50/p99 and share-of-request-time, answering "where does the
  latency go?" across a whole recording.
- :func:`slowest_traces` / :func:`render_slowest` — the N slowest
  requests with their per-hop breakdown, answering "what happened to
  *that* request?".

Span records are the dicts produced by
:meth:`~repro.telemetry.spans.Span.as_record` (or read back from trace
JSONL) — this module never touches live tracer state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

__all__ = [
    "hop_table",
    "slowest_traces",
    "render_summary",
    "render_slowest",
]

#: Root span name — everything else is a hop beneath it.
ROOT = "request"


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    frac = pos - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


def _durations_by_name(
    records: Iterable[Dict[str, Any]],
) -> Dict[str, List[float]]:
    byname: Dict[str, List[float]] = {}
    for record in records:
        end_s = record.get("end_s")
        if end_s is None:
            continue
        byname.setdefault(record["name"], []).append(
            max(0.0, end_s - record["start_s"])
        )
    return byname


def hop_table(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-hop aggregate rows, root first then hops by total time.

    Each row: ``name, count, total_ms, mean_ms, p50_ms, p99_ms,
    share`` — ``share`` being the hop's total as a fraction of the
    total root-span time (the root's own share is 1.0).
    """
    byname = _durations_by_name(records)
    root_total = sum(byname.get(ROOT, []))
    rows: List[Dict[str, Any]] = []
    for name, durations in byname.items():
        durations.sort()
        total = sum(durations)
        rows.append({
            "name": name,
            "count": len(durations),
            "total_ms": total * 1e3,
            "mean_ms": total / len(durations) * 1e3,
            "p50_ms": _percentile(durations, 0.50) * 1e3,
            "p99_ms": _percentile(durations, 0.99) * 1e3,
            "share": (total / root_total) if root_total > 0 else 0.0,
        })
    rows.sort(key=lambda row: (row["name"] != ROOT, -row["total_ms"]))
    return rows


def slowest_traces(
    records: Iterable[Dict[str, Any]],
    n: int = 10,
) -> List[Dict[str, Any]]:
    """The ``n`` slowest requests, each with a per-hop breakdown.

    Each entry: ``trace, duration_ms, attrs`` (the root span's attrs —
    op/tenant/rid/error) and ``hops`` mapping hop name → total ms
    inside that trace.
    """
    roots: Dict[str, Dict[str, Any]] = {}
    hops: Dict[str, Dict[str, float]] = {}
    for record in records:
        end_s = record.get("end_s")
        if end_s is None:
            continue
        trace_id = record["trace"]
        duration_ms = max(0.0, end_s - record["start_s"]) * 1e3
        if record["name"] == ROOT:
            roots[trace_id] = {
                "trace": trace_id,
                "duration_ms": duration_ms,
                "attrs": dict(record.get("attrs") or {}),
            }
        else:
            bucket = hops.setdefault(trace_id, {})
            bucket[record["name"]] = (
                bucket.get(record["name"], 0.0) + duration_ms
            )
    entries = sorted(
        roots.values(), key=lambda entry: -entry["duration_ms"]
    )[:n]
    for entry in entries:
        entry["hops"] = hops.get(entry["trace"], {})
    return entries


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_summary(records: List[Dict[str, Any]]) -> str:
    """The ``repro trace summarize`` view."""
    rows = hop_table(records)
    if not rows:
        return "no closed spans recorded"
    n_traces = len({record["trace"] for record in records})
    body = _format_table(
        ["hop", "count", "total ms", "mean ms", "p50 ms", "p99 ms", "share"],
        [
            [
                row["name"],
                str(row["count"]),
                "%.2f" % row["total_ms"],
                "%.3f" % row["mean_ms"],
                "%.3f" % row["p50_ms"],
                "%.3f" % row["p99_ms"],
                "%.1f%%" % (row["share"] * 100.0),
            ]
            for row in rows
        ],
    )
    return "%d spans across %d traces\n\n%s" % (len(records), n_traces, body)


def render_slowest(records: List[Dict[str, Any]], n: int = 10) -> str:
    """The ``repro trace slowest`` view."""
    entries = slowest_traces(records, n=n)
    if not entries:
        return "no closed spans recorded"
    lines: List[str] = []
    for rank, entry in enumerate(entries, start=1):
        attrs = entry["attrs"]
        descriptor = " ".join(
            "%s=%s" % (key, attrs[key])
            for key in ("op", "tenant", "rid", "error")
            if key in attrs
        )
        lines.append(
            "%2d. %s  %.3f ms  %s"
            % (rank, entry["trace"], entry["duration_ms"], descriptor)
        )
        for hop, hop_ms in sorted(
            entry["hops"].items(), key=lambda item: -item[1]
        ):
            lines.append("      %-18s %8.3f ms" % (hop, hop_ms))
    return "\n".join(lines)
