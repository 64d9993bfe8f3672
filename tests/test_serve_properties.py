"""Property tests at the serve boundary: every line gets one typed reply.

Lines are generated per op from a valid request with up to two fields
dropped or replaced by any JSON value: null, bools, small and huge
integers, floats including NaN, infinities and 1e308, short and long
strings, lists and objects.  Seeds are fixed and example counts bounded,
so the runs are the same every time and stay within a few seconds.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import fields
from typing import get_args

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    ConfidenceRequest,
    HelloRequest,
    ProtocolError,
    Request,
    Response,
    WindowRequest,
    encode_response,
    parse_request,
)
from repro.serve.server import LocalizationServer, ServeConfig, ServiceCore
from repro.serve.session import TenantSession

REQUEST_CLASSES = get_args(Request)

#: Fixed seeds (``@seed``), bounded counts, no example database.
PROPERTY_SETTINGS = settings(
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Any JSON value a peer can send.
ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([-(2 ** 63), 2 ** 31, 2 ** 63, 10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 5e-324]),
    st.text(max_size=4),
    st.integers(250, 300).map(lambda n: "x" * n),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
)

#: A valid value for every wire field: small, cheap grids and tables.
VALID = {
    "tenant": st.sampled_from(["a", "b"]),
    "rid": st.integers(0, 40),
    "trace": st.sampled_from(["t-1", "t-2"]),
    "robot": st.integers(0, 2),
    "event": st.sampled_from(["open", "close"]),
    "expected": st.integers(0, 3),
    "seq": st.integers(0, 5),
    "x": st.floats(0.0, 40.0),
    "y": st.floats(0.0, 40.0),
    "rssi_dbm": st.floats(-90.0, -50.0),
    "anchor_id": st.integers(0, 3),
    "t": st.floats(0.0, 100.0),
    "calibration_seed": st.just(1),
    "calibration_samples": st.sampled_from([2000, 100]),
    "area_side_m": st.just(40.0),
    "grid_resolution_m": st.sampled_from([2.0, 4.0]),
    "min_beacons_for_fix": st.integers(1, 3),
    "resume": st.just("no-such-checkpoint"),
}


@st.composite
def request_records(draw):
    """One request object: a valid one, then up to two fields dropped
    or set to any JSON value, and sometimes a field no op has."""
    cls = draw(st.sampled_from(REQUEST_CLASSES))
    names = [spec.name for spec in fields(cls) if spec.init]
    record = {"op": cls.op}
    for name in names:
        if name in ("tenant", "robot") or draw(st.booleans()):
            record[name] = draw(VALID[name])
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(names + ["op", "unknown"]))
        if draw(st.booleans()):
            record.pop(name, None)
        else:
            record[name] = draw(ANY_JSON)
    return record


def wire_line(record) -> str:
    """``record`` as the peer would write it (``NaN``, ``Infinity``)."""
    return json.dumps(record)


#: Non-request text: no newline, not blank, not an HTTP request line.
JUNK_LINES = st.text(
    st.characters(blacklist_characters="\r\n"), min_size=1, max_size=40
).filter(lambda text: text.strip() and not text.startswith("GET "))

LINES = st.one_of(request_records().map(wire_line), JUNK_LINES)


def test_every_line_parses_or_is_refused_and_every_request_is_answered():
    """``parse_request`` returns a request or raises ProtocolError, and
    an in-process core answers each accepted request with a Response
    that encodes."""
    core = ServiceCore(ServeConfig(n_shards=2))

    async def start():
        core.start()

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(start())

        @settings(PROPERTY_SETTINGS, max_examples=250)
        @seed(20261020)
        @given(LINES)
        def one_line(line):
            try:
                request = parse_request(line)
            except ProtocolError:
                return
            response = loop.run_until_complete(core.handle(request))
            assert isinstance(response, Response)
            decoded = json.loads(encode_response(response))
            assert decoded["ok"] is response.ok

        one_line()
    finally:
        loop.run_until_complete(core.stop())
        loop.close()


def test_tcp_answers_every_line_once_and_stays_usable():
    """Over TCP, each pipelined line gets exactly one reply line, and a
    closing ping still answers."""
    core = ServiceCore(ServeConfig(n_shards=2))
    server = LocalizationServer(core)

    async def exchange(lines):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for line in lines + ['{"op":"ping"}']:
            writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()
        replies = [
            json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            for _ in range(len(lines) + 1)
        ]
        writer.write_eof()
        rest = await asyncio.wait_for(reader.read(), 10.0)
        writer.close()
        await writer.wait_closed()
        return replies, rest

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(server.start())

        @settings(PROPERTY_SETTINGS, max_examples=60)
        @seed(20261021)
        @given(st.lists(LINES, min_size=1, max_size=6))
        def one_connection(lines):
            replies, rest = loop.run_until_complete(exchange(lines))
            assert rest == b""
            assert all(isinstance(reply["ok"], bool) for reply in replies)
            assert replies[-1]["ok"] and replies[-1]["pong"]

        one_connection()
    finally:
        loop.run_until_complete(server.stop())
        loop.close()


#: Observe numbers a peer can send: finite (the boundary accepts them)
#: or not (NaN, infinities, 1e999, an int too big for a float, a bool,
#: a string: the boundary refuses them).
OBSERVE_NUMBERS = st.one_of(
    st.floats(-100.0, 100.0),
    st.sampled_from([1e308, -1e308, 5e-324]),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, True, "1"]),
)

OBSERVES = st.fixed_dictionaries({
    "seq": st.integers(0, 20),
    "x": OBSERVE_NUMBERS,
    "y": OBSERVE_NUMBERS,
    "rssi_dbm": st.one_of(st.floats(-95.0, -45.0), OBSERVE_NUMBERS),
})


@settings(PROPERTY_SETTINGS, max_examples=40)
@seed(20261022)
@given(windows=st.lists(st.lists(OBSERVES, max_size=8), min_size=1,
                        max_size=3))
def test_close_reports_the_beacons_its_estimator_applied(pdf_table, windows):
    """A close's ``applied`` equals the lane estimator's
    ``beacons_applied`` delta: every observe the boundary and the session
    accept reaches the estimator, none is dropped there silently."""
    session = TenantSession(
        HelloRequest(tenant="t", area_side_m=40.0), table=pdf_table
    )

    reach = pdf_table.support_max_m

    def beacons_applied() -> int:
        reply = session.handle(ConfidenceRequest(tenant="t", robot=0))
        return reply.payload["beacons_applied"]

    for observes in windows:
        assert session.handle(
            WindowRequest(tenant="t", robot=0, event="open")
        ).ok
        before = beacons_applied()
        accepted = 0
        for observe in observes:
            line = wire_line(dict(observe, op="observe", tenant="t", robot=0))
            try:
                request = parse_request(line)
            except ProtocolError:
                continue
            reply = session.handle(request)
            if not reply.ok:
                # Claimed beyond the calibration support: refused, as
                # the boundary refuses a non-finite number.
                assert reply.error == "bad_request"
                assert not all(-reach <= value <= 40.0 + reach
                               for value in (request.x, request.y))
                continue
            assert reply.payload["buffered"]
            accepted += 1
        close = session.handle(
            WindowRequest(tenant="t", robot=0, event="close")
        )
        assert close.payload["applied"] == accepted
        assert beacons_applied() - before == accepted
