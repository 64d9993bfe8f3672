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

Each wire field has one rule — type, range and whether it may be
absent — in ``_FIELD_RULES``, and means the same in every op that
carries it.  :func:`parse_request` checks a request field by field
from that table; a request class gaining a field with no rule fails at
import.  Two rules span more than one field and are written out: a
ping may name an empty tenant, and a hello's grid must fit its area in
at most :data:`MAX_GRID_CELLS` cells.  A line that breaks any rule gets
one ``bad_request`` reply, and the connection stays usable.

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
from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any, Callable, Dict, NamedTuple, Optional, Tuple, Union, get_args,
)

from repro.core.bayes import GRID_RESOLUTION_M
from repro.core.calibration import CALIBRATION_SAMPLES
from repro.core.config import MIN_BEACONS_FOR_FIX

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
    calibration_samples: int = CALIBRATION_SAMPLES
    area_side_m: float = 200.0
    grid_resolution_m: float = GRID_RESOLUTION_M
    min_beacons_for_fix: int = MIN_BEACONS_FOR_FIX
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

_WINDOW_EVENTS = ("open", "close")

#: Maximum accepted length of a wire ``trace`` id (characters).
MAX_TRACE_CHARS = 128

#: Maximum accepted length of a ``tenant`` or ``resume`` string.
MAX_NAME_CHARS = 256

#: Upper bounds on what one hello may make the server allocate: the
#: calibration draws ``calibration_samples`` values per array, and the
#: posterior holds ``round(area_side_m / grid_resolution_m) ** 2`` cells.
MAX_CALIBRATION_SAMPLES = 1_000_000
MAX_GRID_CELLS = 250_000


class _Rule(NamedTuple):
    """``check`` accepts a value, ``message`` (after the field's name) is
    the ``bad_request`` detail for any other, and an ``optional`` field
    may be absent (its request classes default it to ``None``)."""

    check: Callable[[Any], bool]
    message: str
    optional: bool = False


def _is_finite(value: Any) -> bool:
    """A finite int or float, not a bool.  ``json`` reads ``NaN``,
    ``Infinity`` and ``1e999`` as floats, and an int too large for a
    float has no finite float value either."""
    try:
        return value.__class__ is not bool and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _integer(
    low: int, high: Optional[int] = None, optional: bool = False
) -> _Rule:
    if high is None:
        return _Rule(
            lambda value: (isinstance(value, int)
                           and value.__class__ is not bool and value >= low),
            "must be an integer >= %d" % low, optional,
        )
    return _Rule(
        lambda value: (isinstance(value, int) and value.__class__ is not bool
                       and low <= value <= high),
        "must be an integer in [%d, %d]" % (low, high), optional,
    )


def _text(limit: int, optional: bool = False) -> _Rule:
    return _Rule(
        lambda value: isinstance(value, str) and 0 < len(value) <= limit,
        "must be a non-empty string (<=%d chars)" % limit, optional,
    )


_FINITE = _Rule(_is_finite, "must be a finite number")

#: The checkpoint address hashes ``float(value)``, so an integer too
#: large for a float is as unusable as inf or NaN.
_POSITIVE = _Rule(lambda value: _is_finite(value) and value > 0,
                  "must be a finite positive number")

#: The one rule of each wire field, whichever op carries it.
_FIELD_RULES: Dict[str, _Rule] = {
    "tenant": _text(MAX_NAME_CHARS),
    "rid": _integer(0, optional=True),
    "trace": _text(MAX_TRACE_CHARS, optional=True),
    "robot": _integer(0),
    "event": _Rule(_WINDOW_EVENTS.__contains__,
                   "must be one of %r" % (_WINDOW_EVENTS,)),
    "expected": _integer(0, optional=True),
    "seq": _integer(0),
    "x": _FINITE,
    "y": _FINITE,
    "rssi_dbm": _FINITE,
    "anchor_id": _integer(0, optional=True),
    "t": _FINITE,
    "calibration_seed": _integer(0),
    "calibration_samples": _integer(1, MAX_CALIBRATION_SAMPLES),
    "area_side_m": _POSITIVE,
    "grid_resolution_m": _POSITIVE,
    "min_beacons_for_fix": _integer(1),
    "resume": _text(MAX_NAME_CHARS, optional=True),
}


def _field_checks(cls: type) -> Tuple[tuple, ...]:
    """``cls``'s wire fields as ``(name, check, message, optional)``;
    a field with no rule, or whose ``None`` default disagrees with its
    rule's ``optional``, is a TypeError at import."""
    checks = []
    for spec in fields(cls):
        if not spec.init:  # ``op``: the class names it, not the line
            continue
        rule = _FIELD_RULES.get(spec.name)
        if rule is None:
            raise TypeError(
                "%s.%s has no wire rule" % (cls.__name__, spec.name)
            )
        if rule.optional != (spec.default is None):
            raise TypeError(
                "%s.%s must default to None exactly when its rule is "
                "optional" % (cls.__name__, spec.name)
            )
        checks.append((spec.name, rule.check,
                       "%s %s" % (spec.name, rule.message), rule.optional))
    return tuple(checks)


_REQUEST_TYPES: Dict[str, type] = {cls.op: cls for cls in get_args(Request)}
_FIELD_CHECKS = {cls: _field_checks(cls) for cls in get_args(Request)}


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
    given = dict(data)
    op = given.pop("op", None)
    cls = _REQUEST_TYPES.get(op) if isinstance(op, str) else None
    if cls is None:
        raise ProtocolError("unknown op %r" % (op,))
    try:
        request = cls(**given)
    except TypeError as exc:
        raise ProtocolError("bad %s request: %s" % (op, exc)) from None
    _validate(request)
    return request


def _validate(request: Request) -> None:
    cls = type(request)
    for name, check, message, optional in _FIELD_CHECKS[cls]:
        value = getattr(request, name)
        if (optional and value is None) or check(value):
            continue
        # A ping may name no tenant: the shard router hashes "".
        if cls is PingRequest and name == "tenant" and value == "":
            continue
        raise ProtocolError(message)
    if cls is not HelloRequest:
        return
    # The hello's grid rules span two fields.  GridBayesFilter refuses a
    # cell wider than the area; a side one cell wide is a 1 x 1 grid.
    if request.grid_resolution_m > request.area_side_m:
        raise ProtocolError("grid_resolution_m must not exceed area_side_m")
    # The same per-side cell count GridBayesFilter rounds to; the ratio
    # of two finite floats can still overflow to inf.
    per_side = request.area_side_m / request.grid_resolution_m
    if math.isinf(per_side) or max(1, round(per_side)) ** 2 > MAX_GRID_CELLS:
        raise ProtocolError(
            "area_side_m / grid_resolution_m must give a grid of "
            "<= %d cells" % MAX_GRID_CELLS
        )


def encode_request(request: Request) -> str:
    """One request as its wire line (no trailing newline)."""
    record = asdict(request)
    # Drop absent optionals to keep lines short on the hot path.
    for name, _check, _message, optional in _FIELD_CHECKS[type(request)]:
        if optional and record[name] is None:
            del record[name]
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
