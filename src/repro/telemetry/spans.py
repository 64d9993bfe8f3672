"""One span record and one bounded ring, for both clocks.

A :class:`Span` is a named interval with a parent link.  Its ``clock``
tag says which time-line it lives on:

- ``"sim"`` — simulation seconds.  :class:`SpanTracer` records these:
  beacon rounds, the receive events hanging off them and the channel's
  ``channel.*`` events, keyed by node.
- ``"wall"`` — relative wall-clock seconds.  :mod:`repro.obs` records
  these for serve requests, keyed by trace id.

This module never reads a clock: every timestamp is passed in by the
caller.  Sim callers pass the engine's time and :mod:`repro.obs` passes
its ``perf_counter`` reading, so REP002/ASY005 hold by where the clock
is read, not by separate span types.  Recording never schedules events
or draws randomness, so tracing a run cannot change it.

Every store is a :class:`Ring`: a ``deque(maxlen)`` plus a count of the
records it evicted, so a long run or a long-lived service keeps the
most recent window instead of exhausting memory.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional

__all__ = ["DEFAULT_MAX_SPANS", "Ring", "Span", "SpanTracer"]

#: Default sim-tracer capacity: large enough for the paper's longest
#: scenario, bounded so soak runs cannot exhaust memory.
DEFAULT_MAX_SPANS = 200_000


class Span:
    """One named interval (or point event) on the ``sim`` or ``wall``
    time-line.  ``trace`` groups spans into one track: the node id for
    sim spans, the request's trace id for wall spans."""

    __slots__ = ("trace", "span_id", "parent_id", "name", "clock",
                 "start_s", "end_s", "attrs")

    def __init__(
        self,
        trace: Any,
        span_id: int,
        name: str,
        clock: str,
        start_s: float,
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.clock = clock
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration_s(self) -> float:
        """Length on the span's clock (0.0 for point events and open
        spans)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def as_record(self) -> Dict[str, Any]:
        """The JSON-serializable trace-JSONL line."""
        return {
            "trace": self.trace,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "clock": self.clock,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return "Span(%s %s#%d %s [%.6f, %s])" % (
            self.clock, self.trace, self.span_id, self.name, self.start_s,
            "open" if self.end_s is None else "%.6f" % self.end_s,
        )


class Ring:
    """Bounded FIFO: the oldest record is evicted first and counted in
    :attr:`dropped`.  Eviction can split a trace (its earliest spans go
    first); readers treat a trace without its root as truncated.

    Every writer is confined to one thread (the simulation loop or the
    serve event loop), so the ring needs no lock."""

    __slots__ = ("_items", "dropped")

    def __init__(self, maxlen: int) -> None:
        if maxlen is None or maxlen < 1:
            raise ValueError("ring capacity must be >= 1, got %r" % maxlen)
        self._items: deque = deque(maxlen=maxlen)
        self.dropped = 0

    @property
    def maxlen(self) -> int:
        return self._items.maxlen

    def append(self, item: Any) -> None:
        items = self._items
        if len(items) == items.maxlen:
            self.dropped += 1
        items.append(item)

    def extend(self, items: Iterable[Any]) -> None:
        for item in items:
            self.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class SpanTracer:
    """Records ``sim`` spans into a :class:`Ring`.

    Args:
        max_records: ring capacity; evictions count in ``ring.dropped``.
        categories: point-event categories enabled from the start.  Hot
            paths that emit per frame (the channel's ``channel.*``
            events) check :meth:`enabled` before building a record, so a
            disabled category costs one set lookup.
    """

    def __init__(
        self,
        max_records: int = DEFAULT_MAX_SPANS,
        categories: Iterable[str] = (),
    ) -> None:
        self.ring = Ring(max_records)
        self._ids = itertools.count(1)
        self._enabled = set(categories)

    # -- category filter -----------------------------------------------------

    def enable(self, category: str) -> None:
        self._enabled.add(category)

    def disable(self, category: str) -> None:
        self._enabled.discard(category)

    def enabled(self, category: str) -> bool:
        return category in self._enabled

    # -- recording -----------------------------------------------------------

    def start_span(
        self,
        t: float,
        name: str,
        node: Optional[int] = None,
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Open a span at simulation time ``t``; close it with
        :meth:`end_span`.  ``attrs`` is a dict, so its keys may be any
        name, ``node`` and ``parent`` included."""
        span = Span(
            node, next(self._ids), name, "sim", float(t),
            parent.span_id if parent is not None else None, attrs,
        )
        self.ring.append(span)
        return span

    def end_span(self, span: Span, t: float) -> None:
        """Close ``span`` at simulation time ``t``.

        Raises:
            ValueError: if ``t`` precedes the span's start (the
                simulation clock is monotonic).
        """
        if t < span.start_s:
            raise ValueError(
                "span %r cannot end at t=%r before its start" % (span, t)
            )
        span.end_s = float(t)

    def event(
        self,
        t: float,
        name: str,
        node: Optional[int] = None,
        parent: Optional[Span] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a point event: a span closed at its own start."""
        span = self.start_span(t, name, node, parent, attrs)
        span.end_s = span.start_s
        return span

    # -- reading -------------------------------------------------------------

    def records(self, name: Optional[str] = None) -> List[Span]:
        """Recorded spans in order, optionally only those named ``name``."""
        if name is None:
            return list(self.ring)
        return [span for span in self.ring if span.name == name]

    def count(self, name: str) -> int:
        return sum(1 for span in self.ring if span.name == name)

    def __len__(self) -> int:
        return len(self.ring)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.ring)
