"""Structured ops event log.

Operational state changes — supervisor restarts, session rehydrations,
idle evictions, shed decisions — are invisible to per-request spans:
they happen *between* requests or *to* many requests at once.  The
:class:`OpsLog` records them as flat, JSON-serializable events stamped
with whatever correlation ids are known at the emit site (``trace``,
``rid``, ``tenant``, ``shard``), so an operator can pivot from a slow
trace to the restart that explains it.

Timestamps reuse the tracer's relative clock, putting ops events and
spans on one timeline.  Events keep their own flat record shape but are
stored in the same bounded, loop-confined
:class:`~repro.telemetry.spans.Ring` as spans, and are dumped by the
shared :func:`~repro.telemetry.export.write_jsonl`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.telemetry.spans import Ring

__all__ = ["OpsEvent", "OpsLog"]

#: Events an ops log keeps; older ones are dropped (and counted).
MAX_EVENTS = 10_000


class OpsEvent:
    """One operational event: a kind, a relative timestamp, and fields."""

    __slots__ = ("kind", "at_s", "fields")

    def __init__(self, kind: str, at_s: float, fields: Dict[str, Any]) -> None:
        self.kind = kind
        self.at_s = at_s
        self.fields = fields

    def as_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {"kind": self.kind, "at_s": self.at_s}
        record.update(self.fields)
        return record

    def __repr__(self) -> str:
        return "OpsEvent(%s @%.6fs %r)" % (self.kind, self.at_s, self.fields)


class OpsLog:
    """Bounded structured event log sharing the tracer's clock."""

    __slots__ = ("ring", "_clock")

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.ring = Ring(MAX_EVENTS)
        self._clock = clock if clock is not None else time.perf_counter

    def emit(self, kind: str, **fields: Any) -> OpsEvent:
        """Record one event; ``None``-valued fields are dropped so emit
        sites can pass correlation ids unconditionally."""
        event = OpsEvent(
            kind,
            self._clock(),
            {key: value for key, value in fields.items() if value is not None},
        )
        self.ring.append(event)
        return event

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self) -> Iterator[OpsEvent]:
        return iter(self.ring)

    def records(self) -> List[Dict[str, Any]]:
        return [event.as_record() for event in self.ring]
