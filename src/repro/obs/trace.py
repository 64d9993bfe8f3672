"""Wall-clock request tracing: ids, spans, head/tail sampling.

A **trace** is one request's journey through the serving stack.  The
trace id is minted at the client (or at the server's TCP edge for raw
peers that did not stamp one), travels in the optional ``trace`` field
of the NDJSON protocol, and is echoed on the reply line so a client can
correlate the retries of a request whose first reply was lost.

Inside the server each traced request accumulates parent-linked
``wall``-clock :class:`~repro.telemetry.spans.Span` records —
``request`` (the root, submit to reply), ``queue`` (shard queue wait),
``shard_service`` (the worker's handling slot), ``estimator_ingest``
(applying a window's observations) and ``checkpoint`` (the durability
write) — giving queue-wait vs. service-time attribution per hop.
Timestamps come from an injectable *relative* clock
(``time.perf_counter`` by default): REP002 bans absolute wall
timestamps everywhere, and bans even relative timers in the sim
packages, which is exactly why the clock is read here, in
``repro.obs``, and threaded only through the serve layer.  The span
record and its ring are shared with the simulator's tracer and read no
clock themselves.

Sampling keeps the always-on cost bounded:

- ``mode="always"`` keeps every trace (benchmarks, chaos forensics);
- ``mode="sampled"`` (the serving default) head-samples one request in
  ``sample_every`` *and* tail-keeps any request slower than
  ``slow_ms`` — the slow outliers are precisely the traces worth
  keeping, and the head sample keeps the baseline shape visible;
- ``mode="off"`` makes every hook a cheap ``None`` check.

The server passes :class:`~repro.serve.server.ServeConfig`'s
``trace_mode``, ``trace_sample_every`` and ``trace_slow_ms``, which it
checks; the tracer's ring keeps the newest :data:`MAX_SPANS` spans.

The tracer is loop-confined like everything else in the serve stack
(one asyncio loop owns it), so its :class:`~repro.telemetry.spans.Ring`
needs no locks.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.registry import NULL_REGISTRY
from repro.telemetry.spans import Ring, Span

__all__ = ["ActiveTrace", "RequestTracer", "TRACE_MODES", "MAX_SPANS"]

TRACE_MODES = ("off", "sampled", "always")

#: Spans a tracer keeps; the oldest are dropped (and counted).
MAX_SPANS = 50_000


class ActiveTrace:
    """One in-flight request's span accumulation.

    Spans collect in a small private list first; only
    :meth:`RequestTracer.finish` — where the sampling decision is made
    — moves them into the tracer's ring.  A sampled-out request
    therefore costs a handful of small allocations and nothing else.
    Span ids count from 1 within each trace; timestamps are offsets on
    the injected relative clock, never absolute times.
    """

    __slots__ = ("trace_id", "keep_head", "root", "queue_span",
                 "_spans", "_ids", "_clock")

    def __init__(
        self,
        trace_id: str,
        clock: Callable[[], float],
        keep_head: bool,
        op: str,
        tenant: str,
        rid: Optional[int],
    ) -> None:
        self.trace_id = trace_id
        self._clock = clock
        self.keep_head = keep_head
        self._ids = itertools.count(1)
        self._spans: List[Span] = []
        attrs: Dict[str, Any] = {"op": op, "tenant": tenant}
        if rid is not None:
            attrs["rid"] = rid
        self.root = self._open("request", parent_id=None, attrs=attrs)
        self.queue_span: Optional[Span] = self._open(
            "queue", parent_id=self.root.span_id, attrs=None
        )

    def _open(self, name, parent_id, attrs) -> Span:
        span = Span(
            self.trace_id, next(self._ids), name, "wall", self._clock(),
            parent_id, attrs,
        )
        self._spans.append(span)
        return span

    # -- hop recording -------------------------------------------------------

    def open_span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of the request root at *now*."""
        return self._open(name, parent_id=self.root.span_id,
                          attrs=attrs or None)

    def close_span(self, span: Optional[Span]) -> None:
        """Close ``span`` at *now* (no-op for ``None`` / already closed)."""
        if span is not None and span.end_s is None:
            span.end_s = self._clock()

    def dequeued(self) -> Optional[Span]:
        """Mark the shard worker picking this request up: the queue span
        closes and the ``shard_service`` span opens.  Returns the
        service span (the worker closes it after handling)."""
        self.close_span(self.queue_span)
        return self.open_span("shard_service")

    class _Hop:
        __slots__ = ("_trace", "_span")

        def __init__(self, trace: "ActiveTrace", span: Span) -> None:
            self._trace = trace
            self._span = span

        def __enter__(self) -> Span:
            return self._span

        def __exit__(self, *exc_info) -> None:
            self._trace.close_span(self._span)

    def hop(self, name: str, **attrs: Any) -> "ActiveTrace._Hop":
        """Context manager recording one synchronous hop."""
        return self._Hop(self, self.open_span(name, **attrs))

    # -- completion ----------------------------------------------------------

    def seal(self, error: Optional[str]) -> float:
        """Close the root (and any span left open) at *now*; returns the
        request's total wall duration in seconds."""
        now = self._clock()
        for span in self._spans:
            if span.end_s is None:
                span.end_s = now
        if error is not None:
            self.root.attrs["error"] = error
        return self.root.end_s - self.root.start_s

    @property
    def spans(self) -> List[Span]:
        return self._spans


class RequestTracer:
    """Mints trace ids, accumulates request spans, samples, buffers.

    Args:
        mode: ``off`` / ``sampled`` / ``always``.
        sample_every: in ``sampled`` mode, keep one request in N
            regardless of latency (N=1 keeps everything).
        slow_ms: in ``sampled`` mode, also keep any request whose total
            latency reaches this many milliseconds (tail sampling);
            0 keeps everything.
        clock: relative wall clock (injectable so tests never sleep).
        registry: telemetry registry for trace accounting counters.
        id_entropy: hex prefix distinguishing this process's minted ids
            (defaults to 4 random bytes; injectable for deterministic
            test output).
    """

    def __init__(
        self,
        mode: str,
        sample_every: int,
        slow_ms: float,
        clock: Optional[Callable[[], float]] = None,
        registry=NULL_REGISTRY,
        id_entropy: Optional[str] = None,
    ) -> None:
        self.mode = mode
        self._sample_every = sample_every
        self._slow_ms = slow_ms
        self._clock = clock if clock is not None else time.perf_counter
        self._registry = registry
        if id_entropy is None:
            id_entropy = os.urandom(4).hex()
        self._id_prefix = id_entropy
        self._ids = itertools.count(1)
        self._head_countdown = 0
        self.ring = Ring(MAX_SPANS)

    def mint(self) -> str:
        """A fresh trace id (server-edge minting for raw TCP peers)."""
        return "%s-%06x" % (self._id_prefix, next(self._ids))

    # -- request lifecycle ---------------------------------------------------

    def begin(self, request) -> Optional[ActiveTrace]:
        """Start tracing one request; ``None`` when tracing is off.

        Adopts the request's ``trace`` field when the client stamped
        one, mints otherwise.  The head-sampling decision is made here
        (cheap, before any work); the tail decision waits for the
        latency measured at :meth:`finish`.
        """
        if self.mode == "off":
            return None
        trace_id = getattr(request, "trace", None)
        if trace_id is None:
            trace_id = self.mint()
        if self.mode == "always":
            keep_head = True
        else:
            self._head_countdown -= 1
            keep_head = self._head_countdown <= 0
            if keep_head:
                self._head_countdown = self._sample_every
        return ActiveTrace(
            trace_id,
            clock=self._clock,
            keep_head=keep_head,
            op=getattr(request, "op", "?"),
            tenant=getattr(request, "tenant", ""),
            rid=getattr(request, "rid", None),
        )

    def finish(self, active: ActiveTrace, response) -> None:
        """Seal the request's spans and apply the keep/drop decision."""
        error = None
        if response is not None and not getattr(response, "ok", True):
            error = getattr(response, "error", None)
        duration_s = active.seal(error)
        slow = duration_s * 1000.0 >= self._slow_ms
        if not (active.keep_head or slow):
            self._registry.counter("obs_traces_sampled_out").inc()
            return
        if slow and not active.keep_head:
            self._registry.counter("obs_traces_tail_kept").inc()
        self._registry.counter("obs_traces_recorded").inc()
        self.ring.extend(active.spans)

    # -- draining ------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every buffered span as a JSON-serializable record."""
        return [span.as_record() for span in self.ring]

    def spans_for(self, trace_id: str) -> List[Dict[str, Any]]:
        """The buffered spans of one trace (forensics: chaos divergence)."""
        return [
            span.as_record() for span in self.ring
            if span.trace == trace_id
        ]
