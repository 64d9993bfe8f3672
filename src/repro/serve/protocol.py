"""Wire protocol of the streaming localization service.

The service speaks **newline-delimited JSON** over TCP: each request is
one JSON object on one line, each response is one JSON object on one
line, and responses come back in request order per connection (clients
may pipeline).  The same request/response dataclasses also travel
directly through the in-process client used by tests and benchmarks —
the wire format is a serialization of this module's types, never a
separate dialect.

Request vocabulary (the ``op`` field):

- ``hello`` — create (or attach to) a tenant session, declaring the
  estimator geometry and calibration identity.
- ``window`` — a robot's beacon round opened or closed (``event``).
- ``observe`` — one beacon observation for a robot, carrying the
  per-robot ``seq`` assigned at the *source*; the session re-sorts by it
  at window close, which is what makes out-of-order delivery within a
  window harmless (see DESIGN.md).
- ``fix`` / ``confidence`` — query the live posterior.
- ``stats`` — per-tenant session counters.
- ``bye`` — drop the tenant session explicitly.
- ``ping`` — liveness/no-op.

Idempotent retries: every tenant-scoped request may carry a client-
assigned ``rid`` (a per-tenant monotonically increasing request id).
The session keeps a small bounded reply cache of the *state-mutating*
requests it has processed, keyed by rid; a replayed ``(tenant, rid)``
pair — a retry after a dropped connection — returns the original reply
without re-ingesting the observation or re-closing the window.  A
``hello`` may carry a ``resume`` token (the session's checkpoint
fingerprint, reported in every hello/checkpoint payload) to re-hydrate
the session from its latest checkpoint after a crash or eviction; see
:mod:`repro.serve.checkpoint`.

A connection whose first bytes are ``GET `` is treated as a plain HTTP
scrape instead (``/metrics`` serves the Prometheus exposition of the
server's telemetry registry); see :mod:`repro.serve.server`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Union

__all__ = [
    "ProtocolError",
    "HelloRequest",
    "WindowRequest",
    "ObserveRequest",
    "FixRequest",
    "ConfidenceRequest",
    "StatsRequest",
    "ByeRequest",
    "PingRequest",
    "Request",
    "Response",
    "parse_request",
    "encode_request",
    "parse_response",
    "encode_response",
    "error_response",
]

#: Maximum accepted request line length (bytes).  A line longer than
#: this is a protocol error, not a memory commitment.
MAX_LINE_BYTES = 64 * 1024


class ProtocolError(ValueError):
    """A request line that cannot be understood."""


@dataclass(frozen=True)
class HelloRequest:
    """Open (or re-attach to) a tenant session.

    The calibration identity (seed, sample count) plus the grid
    geometry fully determine the estimator pipeline, so a replayed
    observation log carrying the recording run's values reproduces its
    fixes bit for bit.
    """

    tenant: str
    calibration_seed: int = 1
    calibration_samples: int = 120_000
    area_side_m: float = 200.0
    grid_resolution_m: float = 2.0
    min_beacons_for_fix: int = 3
    resume: Optional[str] = None
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="hello", init=False)


@dataclass(frozen=True)
class WindowRequest:
    """A robot's beacon round boundary: ``event`` is ``open``/``close``.

    A close may carry ``expected`` — the number of observations the
    client buffered for this window.  The session then refuses to close
    (``window_incomplete``, no state change) unless its pending buffer
    holds exactly that many, which is how a retrying client detects a
    checkpoint restore that silently rolled back part of the window
    mid-retry: re-send the unit until the count matches.
    """

    tenant: str
    robot: int
    event: str
    t: float = 0.0
    expected: Optional[int] = None
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="window", init=False)


@dataclass(frozen=True)
class ObserveRequest:
    """One beacon observation for one robot."""

    tenant: str
    robot: int
    seq: int
    x: float
    y: float
    rssi_dbm: float
    anchor_id: Optional[int] = None
    t: float = 0.0
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="observe", init=False)


@dataclass(frozen=True)
class FixRequest:
    """Query a robot's current position estimate."""

    tenant: str
    robot: int
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="fix", init=False)


@dataclass(frozen=True)
class ConfidenceRequest:
    """Query a robot's posterior spread / entropy."""

    tenant: str
    robot: int
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="confidence", init=False)


@dataclass(frozen=True)
class StatsRequest:
    """Query a tenant session's counters."""

    tenant: str
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="stats", init=False)


@dataclass(frozen=True)
class ByeRequest:
    """Drop the tenant session (frees its estimators immediately)."""

    tenant: str
    rid: Optional[int] = None
    trace: Optional[str] = None
    op: str = field(default="bye", init=False)


@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; routes through a shard like any other request."""

    tenant: str = ""
    trace: Optional[str] = None
    op: str = field(default="ping", init=False)


Request = Union[
    HelloRequest,
    WindowRequest,
    ObserveRequest,
    FixRequest,
    ConfidenceRequest,
    StatsRequest,
    ByeRequest,
    PingRequest,
]

_REQUEST_TYPES: Dict[str, type] = {
    "hello": HelloRequest,
    "window": WindowRequest,
    "observe": ObserveRequest,
    "fix": FixRequest,
    "confidence": ConfidenceRequest,
    "stats": StatsRequest,
    "bye": ByeRequest,
    "ping": PingRequest,
}

_WINDOW_EVENTS = ("open", "close")


@dataclass(frozen=True)
class Response:
    """One reply line.

    Attributes:
        ok: request succeeded.
        error: machine-readable failure tag (``overloaded``,
            ``unknown_tenant``, ``bad_request``, ...) when ``ok`` is
            False.
        payload: op-specific result fields.
        trace: echoed trace id.  Never part of ``payload`` (the replay
            gate compares payloads byte for byte) and never set on the
            session's cached replies — the server splices it onto the
            wire line per delivery, so a retry served from the reply
            cache echoes the *retry's* trace id.
    """

    ok: bool
    error: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[str] = None


def error_response(tag: str, detail: Optional[str] = None) -> Response:
    payload = {} if detail is None else {"detail": detail}
    return Response(ok=False, error=tag, payload=payload)


def parse_request(data: Union[str, bytes, Dict[str, Any]]) -> Request:
    """Decode one request line (or an already-parsed mapping).

    Raises:
        ProtocolError: malformed JSON, unknown op, or bad fields.
    """
    if isinstance(data, (str, bytes)):
        if len(data) > MAX_LINE_BYTES:
            raise ProtocolError("request line exceeds %d bytes" % MAX_LINE_BYTES)
        try:
            data = json.loads(data)
        except ValueError as exc:
            raise ProtocolError("malformed JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    op = data.get("op")
    cls = _REQUEST_TYPES.get(op)
    if cls is None:
        raise ProtocolError("unknown op %r" % (op,))
    fields = {k: v for k, v in data.items() if k != "op"}
    try:
        request = cls(**fields)
    except TypeError as exc:
        raise ProtocolError("bad %s request: %s" % (op, exc)) from None
    _validate(request)
    return request


#: Maximum accepted length of a wire ``trace`` id (characters).
MAX_TRACE_CHARS = 128

#: Upper bounds on what one hello may make the server allocate: the
#: calibration draws ``calibration_samples`` values per array, and the
#: posterior holds ``round(area_side_m / grid_resolution_m) ** 2`` cells.
MAX_CALIBRATION_SAMPLES = 1_000_000
MAX_GRID_CELLS = 250_000


def _validate(request: Request) -> None:
    if request.trace is not None and (
        not isinstance(request.trace, str)
        or not request.trace
        or len(request.trace) > MAX_TRACE_CHARS
    ):
        raise ProtocolError(
            "trace must be a non-empty string (<=%d chars)" % MAX_TRACE_CHARS
        )
    if not isinstance(request, PingRequest):
        tenant = request.tenant
        if not isinstance(tenant, str) or not tenant or len(tenant) > 256:
            raise ProtocolError("tenant must be a non-empty string (<=256 chars)")
        if request.rid is not None:
            _check_int("rid", request.rid)
    if isinstance(request, WindowRequest):
        if request.event not in _WINDOW_EVENTS:
            raise ProtocolError(
                "window event must be one of %r" % (_WINDOW_EVENTS,)
            )
        _check_int("robot", request.robot)
        _check_finite("t", request.t)
        if request.expected is not None:
            _check_int("expected", request.expected)
    if isinstance(request, ObserveRequest):
        _check_int("robot", request.robot)
        _check_int("seq", request.seq)
        for name in ("x", "y", "rssi_dbm", "t"):
            _check_finite(name, getattr(request, name))
        if request.anchor_id is not None:
            _check_int("anchor_id", request.anchor_id)
    if isinstance(request, (FixRequest, ConfidenceRequest)):
        _check_int("robot", request.robot)
    if isinstance(request, HelloRequest):
        _check_int("calibration_seed", request.calibration_seed)
        _check_int("calibration_samples", request.calibration_samples, 1)
        if request.calibration_samples > MAX_CALIBRATION_SAMPLES:
            raise ProtocolError(
                "calibration_samples must be <= %d" % MAX_CALIBRATION_SAMPLES
            )
        _check_int("min_beacons_for_fix", request.min_beacons_for_fix, 1)
        for name in ("area_side_m", "grid_resolution_m"):
            value = getattr(request, name)
            # The checkpoint address hashes float(value), so an integer
            # too large for a float is as unusable as inf or NaN.
            if not _is_finite(value) or value <= 0:
                raise ProtocolError(
                    "%s must be a finite positive number" % name
                )
        # GridBayesFilter refuses a cell wider than the area; a side
        # exactly one cell wide is a valid 1 x 1 grid.
        if request.grid_resolution_m > request.area_side_m:
            raise ProtocolError(
                "grid_resolution_m must not exceed area_side_m"
            )
        # The same per-side cell count GridBayesFilter rounds to; the
        # ratio of two finite floats can still overflow to inf.
        per_side = request.area_side_m / request.grid_resolution_m
        if (
            math.isinf(per_side)
            or max(1, round(per_side)) ** 2 > MAX_GRID_CELLS
        ):
            raise ProtocolError(
                "area_side_m / grid_resolution_m must give a grid of "
                "<= %d cells" % MAX_GRID_CELLS
            )
        if request.resume is not None and (
            not isinstance(request.resume, str)
            or not request.resume
            or len(request.resume) > 256
        ):
            raise ProtocolError(
                "resume must be a non-empty string (<=256 chars)"
            )


def _is_finite(value: Any) -> bool:
    """A finite int or float, not a bool.  ``json`` reads ``NaN``,
    ``Infinity`` and ``1e999`` as floats, and an int too large for a
    float has no finite float value either."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_finite(name: str, value: Any) -> None:
    if not _is_finite(value):
        raise ProtocolError("%s must be a finite number" % name)


def _check_int(name: str, value: Any, minimum: int = 0) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ProtocolError("%s must be an integer >= %d" % (name, minimum))


def encode_request(request: Request) -> str:
    """One request as its wire line (no trailing newline)."""
    record = asdict(request)
    # Drop defaulted optionals to keep lines short on the hot path.
    for optional in ("anchor_id", "rid", "resume", "expected", "trace"):
        if record.get(optional, 0) is None:
            del record[optional]
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_response(
    response: Response, trace: Optional[str] = None
) -> str:
    """One response as its wire line (no trailing newline).

    ``trace`` (or, failing that, ``response.trace``) is spliced onto the
    line as a top-level ``trace`` key — *not* merged into the payload,
    so cached replies stay byte-identical across retries carrying
    different trace ids.
    """
    record: Dict[str, Any] = {"ok": response.ok}
    if response.error is not None:
        record["error"] = response.error
    if trace is None:
        trace = response.trace
    if trace is not None:
        record["trace"] = trace
    record.update(response.payload)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def parse_response(line: Union[str, bytes]) -> Response:
    """Decode one response line back into a :class:`Response`."""
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("malformed response JSON: %s" % exc) from None
    if not isinstance(data, dict) or "ok" not in data:
        raise ProtocolError("response must be a JSON object with 'ok'")
    ok = bool(data.pop("ok"))
    error = data.pop("error", None)
    trace = data.pop("trace", None)
    return Response(ok=ok, error=error, payload=data, trace=trace)
