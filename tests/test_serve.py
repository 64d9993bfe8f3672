"""Unit tests for the streaming localization service.

Covers the wire protocol, per-tenant sessions (buffer/sort/close
semantics, limits), the calibration-table store, shard queueing and
eviction, and the TCP front end including the ``/metrics`` scrape.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import LocalizationMode
from repro.core.estimator import BeaconObservation, PositionEstimator
from repro.core.pdf_table import PdfTable
from repro.orchestrator.cache import ResultCache
from repro.serve import (
    InProcessClient,
    LocalizationServer,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServiceCore,
    SessionLimits,
    Shard,
    TenantSession,
    shard_index_for,
)
from repro.serve.protocol import (
    MAX_CALIBRATION_SAMPLES,
    MAX_GRID_CELLS,
    ConfidenceRequest,
    FixRequest,
    HelloRequest,
    ObserveRequest,
    PingRequest,
    StatsRequest,
    WindowRequest,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)
from repro.serve.session import CalibrationStore
from repro.util.geometry import Rect


BEACONS = [
    (10.0, 10.0, -60.0),
    (70.0, 10.0, -72.0),
    (40.0, 70.0, -68.0),
    (20.0, 40.0, -64.0),
]


def _hello(tenant="t", **kwargs):
    kwargs.setdefault("area_side_m", 80.0)
    return HelloRequest(tenant=tenant, **kwargs)


def _session(pdf_table, tenant="t", limits=None, clock=None, **kwargs):
    return TenantSession(
        _hello(tenant, **kwargs), table=pdf_table,
        limits=limits, clock=clock,
    )


def _run_window(session, robot=0, order=None):
    """Open, observe BEACONS (optionally permuted), close; return payload."""
    assert session.handle(
        WindowRequest(tenant=session.tenant, robot=robot, event="open")
    ).ok
    indices = order if order is not None else range(len(BEACONS))
    for seq in indices:
        x, y, rssi = BEACONS[seq]
        response = session.handle(ObserveRequest(
            tenant=session.tenant, robot=robot, seq=seq,
            x=x, y=y, rssi_dbm=rssi,
        ))
        assert response.ok
    close = session.handle(
        WindowRequest(tenant=session.tenant, robot=robot, event="close")
    )
    assert close.ok
    return close.payload


# -- protocol -----------------------------------------------------------------


def test_protocol_request_round_trip():
    requests = [
        _hello("alpha", calibration_seed=7),
        WindowRequest(tenant="alpha", robot=3, event="open", t=12.5),
        ObserveRequest(tenant="alpha", robot=3, seq=2, x=1.25, y=-4.5,
                       rssi_dbm=-63.5, anchor_id=9, t=12.75),
        FixRequest(tenant="alpha", robot=3),
        StatsRequest(tenant="alpha"),
        PingRequest(),
    ]
    for request in requests:
        assert parse_request(encode_request(request)) == request


def test_protocol_floats_survive_the_wire_exactly():
    value = 67.14279829037997
    request = ObserveRequest(tenant="t", robot=0, seq=0, x=value,
                             y=value / 3.0, rssi_dbm=-61.123456789)
    decoded = parse_request(encode_request(request))
    assert decoded.x.hex() == request.x.hex()
    assert decoded.y.hex() == request.y.hex()
    assert decoded.rssi_dbm.hex() == request.rssi_dbm.hex()


#: A trillion calibration samples, and a 10^10 x 10^10-cell grid.
OVERSIZED_HELLOS = (
    '{"op":"hello","tenant":"a","calibration_samples":1000000000000}',
    '{"op":"hello","tenant":"a","area_side_m":1e7,"grid_resolution_m":0.001}',
)

#: A grid cell wider than the deployment area: GridBayesFilter refuses it.
UNFITTING_GRID_HELLO = (
    '{"op":"hello","tenant":"a","area_side_m":10,"grid_resolution_m":11}'
)


#: An observe whose position and RSSI json reads as NaN floats.
NAN_OBSERVE = (
    '{"op":"observe","tenant":"a","robot":0,"seq":0,"x":NaN,"y":2,'
    '"rssi_dbm":NaN}'
)


@pytest.mark.parametrize("line", [
    "not json",
    '{"op": "warp"}',
    '{"op": "observe", "tenant": "t"}',                     # missing fields
    '{"op": "window", "tenant": "t", "robot": 0, "event": "pause"}',
    '{"op": "observe", "tenant": "", "robot": 0, "seq": 0, '
    '"x": 1, "y": 2, "rssi_dbm": -60}',                      # empty tenant
    '{"op": "observe", "tenant": "t", "robot": true, "seq": 0, '
    '"x": 1, "y": 2, "rssi_dbm": -60}',                      # bool robot
    '{"op": "hello", "tenant": "t", "calibration_samples": 0}',
    # Mistyped or out-of-range hello fields.
    '{"op": "hello", "tenant": "t", "min_beacons_for_fix": "3"}',
    '{"op": "hello", "tenant": "t", "calibration_samples": "120000"}',
    '{"op": "hello", "tenant": "t", "area_side_m": "200"}',
    '{"op": "hello", "tenant": "t", "grid_resolution_m": "2"}',
    '{"op": "hello", "tenant": "t", "calibration_seed": "s"}',
    '{"op": "hello", "tenant": "t", "calibration_seed": -3}',
    '{"op": "hello", "tenant": "t", "calibration_samples": 2.5}',
    '{"op": "hello", "tenant": "t", "calibration_samples": true}',
    '{"op": "hello", "tenant": "t", "area_side_m": NaN}',
    '{"op": "hello", "tenant": "t", "grid_resolution_m": Infinity}',
    '{"op": "hello", "tenant": "t", "grid_resolution_m": false}',
    # No float holds it, and the checkpoint address hashes float(value).
    pytest.param(
        '{"op": "hello", "tenant": "t", "area_side_m": 1%s}' % ("0" * 400),
        id="hello-area_side_m-10**400",
    ),
    '{"op": "hello", "tenant": "t", "lut": true}',   # no such field
    # Hellos that would ask the server for unbounded memory.
    *OVERSIZED_HELLOS,
    '{"op": "hello", "tenant": "t", "calibration_samples": %d}'
    % (MAX_CALIBRATION_SAMPLES + 1),
    '{"op": "hello", "tenant": "t", "area_side_m": %d, '
    '"grid_resolution_m": 1}' % (math.isqrt(MAX_GRID_CELLS) + 1),
    '{"op": "hello", "tenant": "t", "area_side_m": 1e308, '
    '"grid_resolution_m": 1e-300}',                          # ratio -> inf
    UNFITTING_GRID_HELLO,
    # Non-finite or non-numeric observe and window numbers: json reads
    # NaN, Infinity and 1e999 as floats.
    *(
        '{"op": "observe", "tenant": "t", "robot": 0, "seq": 0, '
        '"x": 1, "y": 2, "rssi_dbm": -60, "t": 0, %s}' % bad
        for bad in (
            '"x": NaN', '"y": -Infinity', '"rssi_dbm": NaN',
            '"rssi_dbm": Infinity', '"x": 1e999', '"t": NaN',
            '"t": -1e999', '"t": true', '"t": "abc"', '"y": "2"',
        )
    ),
    pytest.param(
        '{"op": "observe", "tenant": "t", "robot": 0, "seq": 0, '
        '"x": 1%s, "y": 2, "rssi_dbm": -60}' % ("0" * 400),
        id="observe-x-10**400",
    ),
    *(
        '{"op": "window", "tenant": "t", "robot": 0, "event": "open", '
        '"t": %s}' % bad
        for bad in ("NaN", "Infinity", "1e999", "true", '"abc"', "null")
    ),
])
def test_protocol_rejects_bad_lines(line):
    with pytest.raises(ProtocolError):
        parse_request(line)


@pytest.mark.parametrize("fields", [
    {},                     # defaults: 120,000 samples, a 100 x 100 grid
    {"area_side_m": 200.0, "grid_resolution_m": 1.0},   # 200 x 200
    {"calibration_samples": 2000, "area_side_m": 80.0},
    {"calibration_samples": MAX_CALIBRATION_SAMPLES},
    {"area_side_m": float(math.isqrt(MAX_GRID_CELLS)),  # exactly the cap
     "grid_resolution_m": 1.0},
    {"area_side_m": 10.0, "grid_resolution_m": 10.0},   # one 1 x 1 cell
])
def test_protocol_accepts_hello_sizes_in_use(fields):
    hello = HelloRequest(tenant="t", **fields)
    assert parse_request(encode_request(hello)) == hello


def test_protocol_rejects_oversized_line():
    line = json.dumps({"op": "ping", "tenant": "x" * 70_000})
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_protocol_response_round_trip():
    from repro.serve.protocol import Response, error_response

    ok = Response(ok=True, payload={"fixes": 2, "x_hex": "0x1.8p+5"})
    assert parse_response(encode_response(ok)) == ok
    bad = error_response("overloaded", "queue full")
    decoded = parse_response(encode_response(bad))
    assert not decoded.ok
    assert decoded.error == "overloaded"
    assert decoded.payload == {"detail": "queue full"}


# -- session ------------------------------------------------------------------


def test_session_window_produces_fix(pdf_table):
    session = _session(pdf_table)
    payload = _run_window(session)
    assert payload["fixed"]
    assert payload["applied"] == len(BEACONS)
    assert payload["x_hex"] == float(payload["x"]).hex()
    fix = session.handle(FixRequest(tenant="t", robot=0))
    assert fix.ok and fix.payload["has_fix"]
    assert fix.payload["x_hex"] == payload["x_hex"]


def test_session_sorts_by_source_seq(pdf_table):
    in_order = _run_window(_session(pdf_table))
    reversed_order = _run_window(
        _session(pdf_table), order=list(reversed(range(len(BEACONS))))
    )
    assert in_order["x_hex"] == reversed_order["x_hex"]
    assert in_order["y_hex"] == reversed_order["y_hex"]


def test_session_lanes_share_one_field_memo(pdf_table):
    session = _session(pdf_table)
    memo = session.constraint_cache
    hello = session.hello
    bare = [
        PositionEstimator(
            mode=LocalizationMode.RF_ONLY,
            area=Rect.square(hello.area_side_m),
            pdf_table=pdf_table,
            grid_resolution_m=hello.grid_resolution_m,
            min_beacons_for_fix=hello.min_beacons_for_fix,
        )
        for _ in range(3)
    ]
    n = len(BEACONS)
    for _window in range(2):
        for robot, reference in enumerate(bare):
            # Robot r hears the beacons rotated right by r, so its first
            # beacon (lowest seq) is the one robot r - 1 closed on last.
            beacons = BEACONS[n - robot:] + BEACONS[:n - robot]
            assert session.handle(WindowRequest(
                tenant="t", robot=robot, event="open"
            )).ok
            reference.on_window_open()
            for seq, (x, y, rssi) in enumerate(beacons):
                assert session.handle(ObserveRequest(
                    tenant="t", robot=robot, seq=seq, x=x, y=y,
                    rssi_dbm=rssi,
                )).ok
                reference.ingest_observation(
                    BeaconObservation(x=x, y=y, rssi_dbm=rssi)
                )
            hits = memo.hits
            close = session.handle(WindowRequest(
                tenant="t", robot=robot, event="close"
            )).payload
            reference.on_window_close()
            if robot > 0:
                assert memo.hits == hits + 1
            assert close["fixed"]
            assert close["x_hex"] == reference.estimate.x.hex()
            assert close["y_hex"] == reference.estimate.y.hex()
    for lane in session._lanes.values():
        grid = lane.estimator.filter
        assert grid._cache is memo
        held = [
            value for value in vars(grid).values()
            if isinstance(value, np.ndarray)
            and value.size == grid.posterior.size
        ]
        assert len(held) == 1 and held[0] is grid._posterior


def _assert_only_open_lanes_hold_grids(session):
    for lane in session._lanes.values():
        assert lane.estimator.filter.parked is not lane.window_open
    assert session.grids_live == sum(
        lane.window_open for lane in session._lanes.values()
    )


def _reference_estimator(hello, pdf_table):
    """An in-process estimator built as a lane's, which never parks."""
    return PositionEstimator(
        mode=LocalizationMode.RF_ONLY,
        area=Rect.square(hello.area_side_m),
        pdf_table=pdf_table,
        grid_resolution_m=hello.grid_resolution_m,
        min_beacons_for_fix=hello.min_beacons_for_fix,
    )


def test_session_parks_every_closed_lane(pdf_table):
    """After every close no closed lane holds a grid and every open one
    does; fix and confidence replies equal an unparked estimator's."""
    session = _session(pdf_table)
    references = [_reference_estimator(session.hello, pdf_table)
                  for _ in range(3)]

    def hexed(payload):
        return {key: value.hex() if isinstance(value, float) else value
                for key, value in payload.items()}

    # Robot 1 hears only two beacons in its second window: no fix, and
    # its confidence then reads a two-beacon posterior.
    schedule = [(0, BEACONS), (1, BEACONS[::-1]), (2, BEACONS[1:]),
                (1, BEACONS[:2]), (0, BEACONS[2:] + BEACONS[:2])]
    # Robot 2 stays open across the others' windows.
    assert session.handle(WindowRequest(
        tenant="t", robot=2, event="open")).ok
    references[2].on_window_open()
    for robot, beacons in schedule:
        if robot != 2:
            assert session.handle(WindowRequest(
                tenant="t", robot=robot, event="open")).ok
            references[robot].on_window_open()
        _assert_only_open_lanes_hold_grids(session)
        for seq, (x, y, rssi) in enumerate(beacons):
            assert session.handle(ObserveRequest(
                tenant="t", robot=robot, seq=seq, x=x, y=y, rssi_dbm=rssi,
            )).ok
            references[robot].ingest_observation(
                BeaconObservation(x=x, y=y, rssi_dbm=rssi))
        assert session.handle(WindowRequest(
            tenant="t", robot=robot, event="close")).ok
        references[robot].on_window_close()
        _assert_only_open_lanes_hold_grids(session)
        for other, reference in enumerate(references):
            fix = session.handle(FixRequest(tenant="t", robot=other))
            confidence = session.handle(
                ConfidenceRequest(tenant="t", robot=other))
            if other not in session._lanes:
                continue
            assert fix.ok and confidence.ok
            estimate = reference.estimate
            fix.payload.pop("window")
            assert hexed(fix.payload) == hexed({
                "has_fix": reference.has_fix, "fixes": reference.fixes,
                "x": estimate.x, "y": estimate.y,
                "x_hex": estimate.x.hex(), "y_hex": estimate.y.hex(),
            })
            grid = reference.filter
            want = {
                "beacons_applied": grid.beacons_applied,
                "std_m": grid.position_std_m(),
                "entropy_bits": grid.entropy_bits(),
                "has_fix": reference.has_fix,
            }
            if reference.last_fix_std_m is not None:
                want["last_fix_std_m"] = reference.last_fix_std_m
            assert hexed(confidence.payload) == hexed(want)
        # Reads after a close come from the memo: still parked.
        _assert_only_open_lanes_hold_grids(session)
    assert session.n_robots == 3


def test_lane_grid_gauge_counts_open_windows():
    async def scenario():
        core = _small_core()
        client = InProcessClient(core)
        await client.hello("a", calibration_samples=2000, area_side_m=80.0)
        await client.window_open("a", 0)
        await client.window_open("a", 1)
        live = [core.stats()["serve_lane_grids_live"]]
        for seq, (x, y, rssi) in enumerate(BEACONS):
            await client.observe("a", 0, seq=seq, x=x, y=y, rssi_dbm=rssi)
        assert (await client.window_close("a", 0)).payload["fixed"]
        live.append(core.stats()["serve_lane_grids_live"])
        assert (await client.window_close("a", 1)).ok
        live.append(core.stats()["serve_lane_grids_live"])
        text = core.metrics_text()
        await core.stop()
        return live, text

    live, text = asyncio.run(scenario())
    assert live == [2.0, 1.0, 0.0]
    assert "\nrepro_serve_lane_grids_live 0.0\n" in text


def test_session_acknowledges_out_of_window_observations(pdf_table):
    session = _session(pdf_table)
    response = session.handle(ObserveRequest(
        tenant="t", robot=0, seq=0, x=1.0, y=2.0, rssi_dbm=-60.0,
    ))
    assert response.ok
    assert response.payload == {"buffered": False}
    assert session.observations_out_of_window == 1
    # ... and the next full window is unaffected by the stray beacon.
    assert _run_window(session)["applied"] == len(BEACONS)


def test_session_pending_limit_sheds(pdf_table):
    limits = SessionLimits(max_pending_observations=2)
    session = _session(pdf_table, limits=limits)
    session.handle(WindowRequest(tenant="t", robot=0, event="open"))
    results = []
    for seq in range(4):
        results.append(session.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=1.0, y=2.0, rssi_dbm=-60.0,
        )))
    assert [r.ok for r in results] == [True, True, False, False]
    assert results[2].error == "pending_limit"
    assert session.observations_dropped == 2


def test_session_robot_limit(pdf_table):
    session = _session(pdf_table, limits=SessionLimits(max_robots=1))
    assert session.handle(
        WindowRequest(tenant="t", robot=0, event="open")
    ).ok
    refused = session.handle(
        WindowRequest(tenant="t", robot=1, event="open")
    )
    assert not refused.ok
    assert refused.error == "robot_limit"


def test_session_reopen_drops_stale_pending(pdf_table):
    session = _session(pdf_table)
    session.handle(WindowRequest(tenant="t", robot=0, event="open"))
    session.handle(ObserveRequest(tenant="t", robot=0, seq=0,
                                  x=1.0, y=2.0, rssi_dbm=-60.0))
    # Window never closed; the next open must not leak the stale beacon.
    payload = _run_window(session)
    assert payload["applied"] == len(BEACONS)
    assert session.observations_dropped == 1


def test_session_stats_and_idle_tracking(pdf_table):
    now = {"t": 100.0}
    session = _session(pdf_table, clock=lambda: now["t"])
    _run_window(session)
    stats = session.handle(StatsRequest(tenant="t"))
    assert stats.ok
    assert stats.payload["windows_closed"] == 1
    assert stats.payload["observations"] == len(BEACONS)
    now["t"] = 160.0
    assert session.idle_for(now["t"]) == pytest.approx(60.0)


# -- calibration store --------------------------------------------------------


def test_calibration_store_shares_tables_in_process():
    store = CalibrationStore()
    first = store.table_for(_hello(calibration_samples=2000))
    second = store.table_for(_hello("other", calibration_samples=2000))
    assert first is second
    different = store.table_for(_hello(calibration_samples=3000))
    assert different is not first


def test_result_cache_payload_type_check(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    assert cache.put("cal-xyz", {"not": "a table"})
    assert cache.get("cal-xyz", PdfTable) is None  # typed miss
    assert cache.get("cal-xyz", dict) == {"not": "a table"}


# -- shard --------------------------------------------------------------------


def test_shard_index_is_stable_and_in_range():
    assert shard_index_for("tenant-a", 4) == shard_index_for("tenant-a", 4)
    spread = {shard_index_for("tenant-%d" % i, 4) for i in range(64)}
    assert spread == {0, 1, 2, 3}


def _failing_factory(hello):
    raise RuntimeError("no sessions today")


def test_shard_queue_full_sheds():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=1,
                      tenant_inflight_limit=10)
        # Worker not started: the queue fills and stays full.
        futures = [shard.submit(PingRequest()) for _ in range(3)]
        shed = [f for f in futures if f.done()]
        assert len(shed) == 2
        for future in shed:
            assert future.result().error == "overloaded"
        assert shard.shed == 2
        await shard.stop()

    asyncio.run(scenario())


def test_shard_tenant_inflight_limit_sheds():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=100,
                      tenant_inflight_limit=2)
        futures = [
            shard.submit(StatsRequest(tenant="hog")) for _ in range(4)
        ]
        tenant_shed = [f for f in futures if f.done()]
        assert len(tenant_shed) == 2
        for future in tenant_shed:
            assert future.result().error == "tenant_overloaded"
        await shard.stop()

    asyncio.run(scenario())


def test_shard_routes_and_reports_unknown_tenant(pdf_table):
    async def scenario():
        shard = Shard(0, lambda hello: TenantSession(hello, pdf_table))
        shard.start()
        missing = await shard.submit(StatsRequest(tenant="ghost"))
        assert missing.error == "unknown_tenant"
        assert (await shard.submit(_hello("real"))).ok
        assert (await shard.submit(StatsRequest(tenant="real"))).ok
        bye = await shard.submit(
            parse_request('{"op": "bye", "tenant": "real"}')
        )
        assert bye.ok and bye.payload["tenant"] == "real"
        assert (await shard.submit(StatsRequest(tenant="real"))).error \
            == "unknown_tenant"
        await shard.stop()

    asyncio.run(scenario())


def test_shard_internal_errors_do_not_kill_the_worker():
    async def scenario():
        shard = Shard(0, _failing_factory)
        shard.start()
        broken = await shard.submit(_hello("doomed"))
        assert broken.error == "internal"
        assert (await shard.submit(PingRequest())).ok  # worker survived
        await shard.stop()

    asyncio.run(scenario())


def test_shard_evicts_idle_sessions(pdf_table):
    async def scenario():
        now = {"t": 0.0}
        shard = Shard(
            0, lambda hello: TenantSession(hello, pdf_table,
                                           clock=lambda: now["t"]),
            session_ttl_s=30.0, clock=lambda: now["t"],
        )
        shard.start()
        assert (await shard.submit(_hello("idler"))).ok
        assert (await shard.submit(_hello("active"))).ok
        now["t"] = 20.0
        assert (await shard.submit(StatsRequest(tenant="active"))).ok
        now["t"] = 40.0  # idler idle 40s > 30s TTL; active idle 20s
        assert shard.sweep_idle_sessions() == 1
        assert "idler" not in shard.sessions
        assert "active" in shard.sessions
        await shard.stop()

    asyncio.run(scenario())


def test_shard_stop_clears_inflight_ledger():
    async def scenario():
        shard = Shard(0, _failing_factory, queue_limit=100,
                      tenant_inflight_limit=2)
        # Worker not started: both submissions sit queued, charged to
        # the tenant's in-flight budget.
        futures = [
            shard.submit(StatsRequest(tenant="hog")) for _ in range(2)
        ]
        await shard.stop()
        for future in futures:
            assert future.result().error == "shutting_down"
        # A restarted shard must not shed the tenant against in-flight
        # counts from its previous life.
        shard.start()
        response = await shard.submit(StatsRequest(tenant="hog"))
        assert response.error == "unknown_tenant"  # routed, not shed
        await shard.stop()

    asyncio.run(scenario())


def test_shard_sweeper_survives_sweep_errors():
    async def scenario():
        shard = Shard(0, _failing_factory, session_ttl_s=30.0,
                      sweep_interval_s=0.01)
        calls = {"n": 0}
        recovered = asyncio.Event()

        def flaky_sweep():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("checkpoint store hiccup")
            recovered.set()
            return 0

        shard.sweep_idle_sessions = flaky_sweep
        shard.start()
        # The first sweep raises; the sweeper must survive it and keep
        # sweeping (TTL eviction used to die silently here, and the
        # stored exception then re-raised out of stop()).
        await asyncio.wait_for(recovered.wait(), timeout=5.0)
        await shard.stop()
        assert calls["n"] >= 2

    asyncio.run(scenario())


# -- server + clients ---------------------------------------------------------


def _small_core(**overrides):
    config = ServeConfig(n_shards=2, **overrides)
    return ServiceCore(config)


def test_in_process_client_round_trip():
    async def scenario():
        client = InProcessClient(_small_core())
        assert (await client.hello(
            "t", calibration_samples=2000, area_side_m=80.0
        )).ok
        await client.window_open("t", 0)
        for seq, (x, y, rssi) in enumerate(BEACONS):
            assert (await client.observe("t", 0, seq=seq, x=x, y=y,
                                         rssi_dbm=rssi)).ok
        close = await client.window_close("t", 0)
        assert close.ok and close.payload["fixed"]
        confidence = await client.confidence("t", 0)
        assert confidence.ok
        assert confidence.payload["beacons_applied"] == len(BEACONS)
        await client.core.stop()

    asyncio.run(scenario())


def test_tcp_round_trip_with_pipelining():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        async with ServeClient("127.0.0.1", server.port) as client:
            assert (await client.hello(
                "t", calibration_samples=2000, area_side_m=80.0
            )).ok
            await client.window_open("t", 0)
            # Pipelined: all observes in flight before any response read.
            futures = [
                await client.send(ObserveRequest(
                    tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
                ))
                for seq, (x, y, rssi) in enumerate(BEACONS)
            ]
            for future in futures:
                assert (await future).ok
            close = await client.window_close("t", 0)
            assert close.ok and close.payload["fixed"]
        await server.stop()

    asyncio.run(scenario())


def test_tcp_bad_line_keeps_connection_usable():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b"this is not json\n")
        # A well-formed line with a mistyped field is refused the same
        # way, never by dropping the connection.
        writer.write(b'{"op": "hello", "tenant": "a", '
                     b'"min_beacons_for_fix": "3"}\n')
        # So is a hello that would make the server allocate without bound.
        for line in OVERSIZED_HELLOS:
            writer.write(line.encode() + b"\n")
        # And a hello whose grid cell is wider than its area.
        writer.write(UNFITTING_GRID_HELLO.encode() + b"\n")
        # And an observe carrying NaN numbers.
        writer.write(NAN_OBSERVE.encode() + b"\n")
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        for _ in range(4 + len(OVERSIZED_HELLOS)):
            refused = parse_response(await reader.readline())
            assert not refused.ok and refused.error == "bad_request"
        pong = parse_response(await reader.readline())
        assert pong.ok and pong.payload["pong"]
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def _window_burst(robot=0):
    """One pipelined window's request lines, each stamped with a trace
    id that names its position: open, 4 observes, close, confidence."""
    requests = [WindowRequest(tenant="t", robot=robot, event="open")]
    requests += [
        ObserveRequest(tenant="t", robot=robot, seq=seq, x=x, y=y,
                       rssi_dbm=rssi)
        for seq, (x, y, rssi) in enumerate(BEACONS)
    ]
    requests.append(WindowRequest(tenant="t", robot=robot, event="close"))
    requests.append(ConfidenceRequest(tenant="t", robot=robot))
    return [
        encode_request(replace(request, trace="r%d" % index))
        .encode("utf-8") + b"\n"
        for index, request in enumerate(requests)
    ]


def test_tcp_coalesces_ready_replies_in_request_order(monkeypatch):
    """A pipelined window burst is answered in request order, each line
    byte-equal to the in-process reply, in fewer socket writes than
    replies; a bad line inside a burst keeps its place."""
    server_writes = []
    client_writers = set()
    real_write = asyncio.StreamWriter.write

    def counting_write(self, data):
        if id(self) not in client_writers:
            server_writes.append(data)
        return real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

    async def scenario():
        server = LocalizationServer(_small_core(trace_mode="off"))
        await server.start()
        reference = InProcessClient(_small_core(trace_mode="off"))
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        client_writers.add(id(writer))
        hello = _hello(calibration_samples=2000)
        writer.write(encode_request(hello).encode("utf-8") + b"\n")
        assert parse_response(await reader.readline()).ok
        assert (await reference.request(hello)).ok

        burst = _window_burst()
        server_writes.clear()
        writer.write(b"".join(burst))
        await writer.drain()
        received = [await reader.readline() for _ in burst]
        assert len(server_writes) < len(burst)
        for index, (line, got) in enumerate(zip(burst, received)):
            request = parse_request(line.strip())
            expected = await reference.request(request)
            assert got == (
                encode_response(expected, trace="r%d" % index)
                .encode("utf-8") + b"\n"
            )
        assert json.loads(received[-2])["fixed"]

        # A refused line is answered at once, but still after the
        # replies queued ahead of it and before those behind it.
        burst = _window_burst(robot=1)
        burst.insert(3, b"this is not json\n")
        writer.write(b"".join(burst))
        await writer.drain()
        received = [json.loads(await reader.readline()) for _ in burst]
        assert [reply.get("trace") for reply in received] == [
            "r0", "r1", "r2", None, "r3", "r4", "r5", "r6",
        ]
        assert received[3]["error"] == "bad_request"
        assert all(reply["ok"] for i, reply in enumerate(received) if i != 3)
        writer.close()
        await writer.wait_closed()
        await server.stop()
        await reference.core.stop()

    asyncio.run(scenario())


def test_tcp_hello_too_small_to_calibrate_is_a_bad_request():
    """At calibration seed 1 these sample counts populate no PDF-Table
    bin; the hello is refused as the client's fault, naming the field,
    and the connection keeps serving."""
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        async with ServeClient("127.0.0.1", server.port) as client:
            for samples in (1, 100, 400):
                refused = await client.hello(
                    "small-%d" % samples, calibration_samples=samples,
                    area_side_m=80.0,
                )
                assert not refused.ok and refused.error == "bad_request"
                assert ("calibration_samples=%d" % samples
                        in refused.payload["detail"])
            assert (await client.ping()).payload["pong"]
            assert (await client.hello(
                "t", calibration_samples=2000, area_side_m=80.0
            )).ok
            assert (await client.hello("default", area_side_m=80.0)).ok
        await server.stop()

    asyncio.run(scenario())


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET %s HTTP/1.1\r\nHost: test\r\n\r\n" % path)
    await writer.drain()
    data = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    return data


def test_metrics_endpoint_serves_prometheus_text():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        client = InProcessClient(server.core)
        await client.ping()
        scrape = await _http_get(server.port, b"/metrics")
        assert b"200 OK" in scrape
        assert b"repro_serve_requests_total" in scrape
        peak = [
            line for line in scrape.decode().splitlines()
            if line.startswith("repro_serve_process_peak_rss_bytes ")
        ]
        assert len(peak) == 1 and float(peak[0].split()[1]) > 0
        missing = await _http_get(server.port, b"/nope")
        assert b"404" in missing
        await server.stop()

    asyncio.run(scenario())


def test_service_core_stats_exposes_counters():
    async def scenario():
        core = _small_core()
        client = InProcessClient(core)
        await client.ping()
        stats = core.stats()
        assert stats["serve_requests_total"] == 1.0
        assert stats["serve_processed_total"] == 1.0
        assert "serve_request_latency_s_p50" in stats
        assert core.metrics_text().startswith("# TYPE")
        await core.stop()

    asyncio.run(scenario())


def test_cli_serve_smoke(capsys):
    from repro.cli import main

    code = main(["serve", "--port", "0", "--shards", "2", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "smoke: undersized hello refused (bad_request)" in out
    assert "smoke: /metrics scrape ok" in out


@pytest.mark.parametrize("argv", [
    ["serve", "--port", "-5"],
    ["serve", "--port", "70000"],
])
def test_cli_serve_bad_config_exits_2(capsys, argv):
    from repro.cli import main

    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("serve: ")


# -- observability: trace echo, gauges, probes under load ---------------------


def test_tcp_echoes_client_stamped_trace():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b'{"op": "ping", "trace": "client-abc"}\n')
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        stamped = json.loads(await reader.readline())
        assert stamped["trace"] == "client-abc"
        # Sampled mode still answers the raw peer with a minted id.
        unstamped = json.loads(await reader.readline())
        assert unstamped.get("trace")
        assert unstamped["trace"] != "client-abc"
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_trace_echo_survives_tracing_off():
    async def scenario():
        server = LocalizationServer(_small_core(trace_mode="off"))
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        writer.write(b'{"op": "ping", "trace": "still-here"}\n')
        writer.write(b'{"op": "ping"}\n')
        await writer.drain()
        stamped = json.loads(await reader.readline())
        assert stamped["trace"] == "still-here"
        # No client id and no tracing: nothing to echo, nothing minted.
        unstamped = json.loads(await reader.readline())
        assert "trace" not in unstamped
        writer.close()
        await writer.wait_closed()
        await server.stop()

    asyncio.run(scenario())


def test_trace_never_leaks_into_cached_replies(pdf_table):
    # An idempotent retry carrying a *different* trace id must get the
    # cached payload byte-identically, echoing the retry's own id.
    session = _session(pdf_table)
    first = session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=1, trace="attempt-1",
    ))
    retry = session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=1, trace="attempt-2",
    ))
    assert retry is first  # cache hit: the very same Response object
    assert first.trace is None
    assert (encode_response(first, trace="attempt-1")
            != encode_response(first, trace="attempt-2"))
    assert json.loads(encode_response(first, trace="attempt-2"))["trace"] \
        == "attempt-2"


def test_tracer_records_per_hop_spans():
    async def scenario():
        core = _small_core(trace_mode="always")
        client = InProcessClient(core)
        assert (await client.hello(
            "t", calibration_samples=2000, area_side_m=80.0
        )).ok
        await client.window_open("t", 0)
        for seq, (x, y, rssi) in enumerate(BEACONS):
            await client.observe("t", 0, seq=seq, x=x, y=y, rssi_dbm=rssi)
        close = await client.window_close("t", 0)
        assert close.ok and close.payload["fixed"]
        records = core.tracer.records()
        await core.stop()
        return records

    records = asyncio.run(scenario())
    names = {record["name"] for record in records}
    assert {"request", "queue", "shard_service",
            "estimator_ingest", "checkpoint"} <= names
    # Every non-root span is parented inside its own trace's root.
    roots = {record["trace"]: record["span"] for record in records
             if record["name"] == "request"}
    for record in records:
        if record["name"] != "request":
            assert record["parent"] == roots[record["trace"]]
    # Closed spans nest inside their root's interval.
    for record in records:
        root_spans = [r for r in records
                      if r["trace"] == record["trace"]
                      and r["name"] == "request"]
        assert record["start_s"] >= root_spans[0]["start_s"]
        assert record["end_s"] <= root_spans[0]["end_s"]


def test_robots_active_gauge_tracks_lifecycle():
    async def scenario():
        core = _small_core()
        client = InProcessClient(core)
        await client.hello("a", calibration_samples=2000, area_side_m=80.0)
        await client.hello("b", calibration_samples=2000, area_side_m=80.0)
        for tenant in ("a", "b"):
            await client.window_open(tenant, 0)
            await client.window_open(tenant, 1)
        # Live gauge moved by add() at lane creation, before any scrape.
        assert core.registry.gauge("serve_robots_active").value == 4.0
        assert core.registry.gauge("serve_robots_active_peak").value == 4.0
        assert (await client.bye("a")).ok
        # Decrement-on-evict: bye subtracts the tenant's robots.
        assert core.registry.gauge("serve_robots_active").value == 2.0
        stats = core.stats()
        await core.stop()
        return stats

    stats = asyncio.run(scenario())
    # The scrape recomputes truth; the peak survives the eviction.
    assert stats["serve_robots_active"] == 2.0
    assert stats["serve_robots_active_peak"] == 4.0


def test_health_probes_concurrent_with_live_ingest():
    async def scenario():
        server = LocalizationServer(_small_core())
        await server.start()

        async def load(tenant):
            async with ServeClient("127.0.0.1", server.port) as client:
                await client.hello(tenant, calibration_samples=2000,
                                   area_side_m=80.0)
                for window in range(4):
                    await client.window_open(tenant, 0, t=float(window))
                    for seq, (x, y, rssi) in enumerate(BEACONS):
                        await client.observe(tenant, 0, seq=seq, x=x, y=y,
                                             rssi_dbm=rssi, t=float(window))
                    close = await client.window_close(tenant, 0,
                                                      t=float(window))
                    assert close.ok
            return True

        async def scrape_loop():
            bodies = []
            for _ in range(6):
                for path in (b"/healthz", b"/readyz", b"/metrics"):
                    bodies.append((path, await _http_get(server.port, path)))
                await asyncio.sleep(0)
            return bodies

        results = await asyncio.gather(
            load("probe-a"), load("probe-b"),
            scrape_loop(), scrape_loop(),
        )
        await server.stop()
        return results

    load_a, load_b, *scrapes = asyncio.run(scenario())
    assert load_a and load_b
    for bodies in scrapes:
        for path, body in bodies:
            assert b"200 OK" in body, path
            if path == b"/healthz":
                assert b"ok" in body
            elif path == b"/readyz":
                assert b"ready" in body
            else:
                assert b"repro_serve_requests_total" in body
