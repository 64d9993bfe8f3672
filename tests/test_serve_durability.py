"""Durability tests: checkpoints, restores, retries, supervision, drain.

The claims under test, smallest to largest:

- estimator/session snapshots restore **bit-exactly** (a restored
  session's next fix carries the same ``float.hex`` bytes);
- the rid reply cache dedups replayed requests without double-ingesting,
  and deliberately refuses to cache errors and no-op acks;
- evicted sessions checkpoint first and resume via their token;
- a killed shard worker is revived by its supervisor and lost sessions
  re-hydrate from checkpoints;
- checkpoints persist through the orchestrator cache across "process
  restarts" (two independent cores sharing one cache directory);
- drain refuses new work, flushes checkpoints and flips ``/readyz``.
"""

from __future__ import annotations

import asyncio
import os
import pickle

import numpy as np
import pytest

from repro.orchestrator.cache import ResultCache
from repro.serve.checkpoint import (
    CheckpointStore,
    SessionCheckpoint,
    checkpoint_fingerprint,
)
from repro.serve.client import (
    InProcessClient,
    RetryPolicy,
    ServeClient,
    ServiceError,
    TransportError,
    ensure_ok,
)
from repro.serve.protocol import (
    ConfidenceRequest,
    FixRequest,
    HelloRequest,
    ObserveRequest,
    ProtocolError,
    WindowRequest,
    encode_request,
    parse_request,
)
from repro.serve.server import ServeConfig, ServiceCore
from repro.serve.session import TenantSession
from repro.serve import session as session_module

WINDOW_A = [
    (10.0, 10.0, -60.0),
    (70.0, 10.0, -72.0),
    (40.0, 70.0, -68.0),
    (20.0, 40.0, -64.0),
]
WINDOW_B = [
    (15.0, 12.0, -62.0),
    (68.0, 14.0, -70.0),
    (42.0, 66.0, -66.0),
]


def _hello(tenant="t", **kwargs):
    kwargs.setdefault("area_side_m", 80.0)
    return HelloRequest(tenant=tenant, **kwargs)


def _session(pdf_table, tenant="t", **kwargs):
    return TenantSession(_hello(tenant), table=pdf_table, **kwargs)


def _feed(session, beacons, robot=0, rid_base=None):
    """Open, observe, close; returns the close payload."""
    rid = lambda offset: None if rid_base is None else rid_base + offset
    assert session.handle(WindowRequest(
        tenant=session.tenant, robot=robot, event="open", rid=rid(0),
    )).ok
    for seq, (x, y, rssi) in enumerate(beacons):
        assert session.handle(ObserveRequest(
            tenant=session.tenant, robot=robot, seq=seq, x=x, y=y,
            rssi_dbm=rssi, rid=rid(1 + seq),
        )).ok
    close = session.handle(WindowRequest(
        tenant=session.tenant, robot=robot, event="close",
        rid=rid(1 + len(beacons)),
    ))
    assert close.ok
    return close.payload


# -- protocol additions -------------------------------------------------------


def test_protocol_rid_and_resume_round_trip():
    request = WindowRequest(tenant="t", robot=1, event="open", rid=7)
    assert parse_request(encode_request(request)) == request
    hello = HelloRequest(tenant="t", resume="ckpt-" + "a" * 64, rid=1)
    assert parse_request(encode_request(hello)) == hello
    # Defaulted optionals stay off the wire.
    assert '"rid"' not in encode_request(WindowRequest(
        tenant="t", robot=1, event="open"
    ))


def test_protocol_rejects_bad_rid_and_resume():
    with pytest.raises(ProtocolError):
        parse_request('{"op":"stats","tenant":"t","rid":-1}')
    with pytest.raises(ProtocolError):
        parse_request('{"op":"stats","tenant":"t","rid":true}')
    with pytest.raises(ProtocolError):
        parse_request('{"op":"hello","tenant":"t","resume":""}')


# -- session snapshot / restore ----------------------------------------------


def test_snapshot_restore_mid_window_is_bit_exact(pdf_table):
    original = _session(pdf_table)
    twin = _session(pdf_table)
    _feed(original, WINDOW_A)
    _feed(twin, WINDOW_A)
    # Open the next window and buffer part of it, then checkpoint.
    assert original.handle(WindowRequest(
        tenant="t", robot=0, event="open"
    )).ok
    for seq, (x, y, rssi) in enumerate(WINDOW_B[:2]):
        assert original.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
        )).ok
    checkpoint = original.snapshot()
    assert isinstance(checkpoint, SessionCheckpoint)

    restored = _session(pdf_table)
    restored.restore_from(checkpoint)
    # Both the original and the restored copy finish the window; the
    # twin runs it uninterrupted.  All three must agree to the byte.
    finishers = {"original": original, "restored": restored}
    payloads = {}
    for name, session in finishers.items():
        for seq, (x, y, rssi) in enumerate(WINDOW_B[2:], start=2):
            assert session.handle(ObserveRequest(
                tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
            )).ok
        payloads[name] = session.handle(WindowRequest(
            tenant="t", robot=0, event="close"
        )).payload
    assert original.handle(WindowRequest(
        tenant="t", robot=0, event="open"
    )).ok  # session still functional afterwards
    twin_open = twin.handle(WindowRequest(tenant="t", robot=0, event="open"))
    assert twin_open.ok
    for seq, (x, y, rssi) in enumerate(WINDOW_B):
        twin.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
        ))
    twin_payload = twin.handle(WindowRequest(
        tenant="t", robot=0, event="close"
    )).payload
    assert payloads["original"]["fixed"] and payloads["restored"]["fixed"]
    for axis in ("x_hex", "y_hex"):
        assert payloads["original"][axis] == twin_payload[axis]
        assert payloads["restored"][axis] == twin_payload[axis]


def test_restore_rejects_wrong_tenant_and_geometry(pdf_table):
    session = _session(pdf_table, tenant="alpha")
    _feed(session, WINDOW_A)
    checkpoint = session.snapshot()
    other_tenant = TenantSession(_hello("beta"), table=pdf_table)
    with pytest.raises(ValueError):
        other_tenant.restore_from(checkpoint)
    other_grid = TenantSession(
        HelloRequest(tenant="alpha", area_side_m=120.0), table=pdf_table
    )
    with pytest.raises(ValueError):
        other_grid.restore_from(checkpoint)


def _readout_hex(session, robot=0):
    """Every float a robot's readers see, as ``float.hex`` tokens: the
    fix and confidence payloads plus the filter's moments and entropy."""
    def hexed(payload):
        return {
            key: value.hex() if isinstance(value, float) else value
            for key, value in payload.items()
        }

    fix = session.handle(FixRequest(tenant=session.tenant, robot=robot))
    confidence = session.handle(
        ConfidenceRequest(tenant=session.tenant, robot=robot)
    )
    assert fix.ok and confidence.ok
    filt = session._lanes[robot].estimator.filter
    mean = filt.estimate()
    return (
        hexed(fix.payload),
        hexed(confidence.payload),
        mean.x.hex(),
        mean.y.hex(),
        filt.position_std_m().hex(),
        filt.entropy_bits().hex(),
        filt.annihilations,
        filt.posterior.tobytes(),
    )


def _open_and_observe(session, beacons, robot=0):
    assert session.handle(WindowRequest(
        tenant=session.tenant, robot=robot, event="open"
    )).ok
    for seq, (x, y, rssi) in enumerate(beacons):
        assert session.handle(ObserveRequest(
            tenant=session.tenant, robot=robot, seq=seq, x=x, y=y,
            rssi_dbm=rssi,
        )).ok


@pytest.mark.parametrize("stage", ["after_close", "mid_window", "restored"])
def test_evidence_restore_reproduces_every_readout(pdf_table, stage):
    """A checkpoint holds each filter's evidence, not its posterior; the
    replay on restore reproduces every reader's bytes, at the snapshot
    and after the next window, including on a restored filter that is
    checkpointed again."""
    original = _session(pdf_table)
    _feed(original, WINDOW_A)
    if stage == "mid_window":
        # The filter is reset; the window's beacons wait in the buffer.
        _open_and_observe(original, WINDOW_B[:2])
    restored = _session(pdf_table)
    restored.restore_from(original.snapshot())
    if stage == "restored":
        again = _session(pdf_table)
        again.restore_from(restored.snapshot())
        restored = again
    assert _readout_hex(restored) == _readout_hex(original)
    for session in (original, restored):
        if stage == "mid_window":
            for seq, (x, y, rssi) in enumerate(WINDOW_B[2:], start=2):
                assert session.handle(ObserveRequest(
                    tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
                )).ok
            assert session.handle(WindowRequest(
                tenant="t", robot=0, event="close"
            )).ok
        else:
            _feed(session, WINDOW_B)
    assert _readout_hex(restored) == _readout_hex(original)


def _parked_lanes(session):
    return {
        robot: lane.estimator.filter.parked
        for robot, lane in session._lanes.items()
    }


def test_restore_parks_closed_lanes_and_continues_bit_for_bit(pdf_table):
    """A restore rebuilds each lane and parks the closed ones at once;
    the restored session then fixes with the bits of one never paused,
    and every close leaves its lane parked."""
    original = _session(pdf_table)
    _feed(original, WINDOW_A, robot=0)
    _feed(original, WINDOW_B, robot=1)
    _open_and_observe(original, WINDOW_A[:2], robot=2)
    assert _parked_lanes(original) == {0: True, 1: True, 2: False}
    restored = _session(pdf_table)
    restored.restore_from(original.snapshot())
    assert _parked_lanes(restored) == {0: True, 1: True, 2: False}
    for session in (original, restored):
        for seq, (x, y, rssi) in enumerate(WINDOW_A[2:], start=2):
            assert session.handle(ObserveRequest(
                tenant="t", robot=2, seq=seq, x=x, y=y, rssi_dbm=rssi,
            )).ok
        assert session.handle(WindowRequest(
            tenant="t", robot=2, event="close"
        )).payload["fixed"]
        assert _parked_lanes(session) == {0: True, 1: True, 2: True}
        for robot, beacons in ((0, WINDOW_B), (1, WINDOW_A)):
            _feed(session, beacons, robot=robot)
            assert all(_parked_lanes(session).values())
    # The readout's posterior bytes rebuild each grid by replay.
    for robot in (0, 1, 2):
        assert _readout_hex(restored, robot) == _readout_hex(original, robot)


def test_lane_record_holds_evidence_not_the_posterior(pdf_table):
    session = _session(pdf_table)
    _feed(session, WINDOW_A)
    (record,) = session.snapshot().lanes
    state = record["estimator"]["filter"]
    assert set(state) == {"grid_signature", "evidence"}
    assert state["evidence"] == tuple(WINDOW_A)
    assert len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)) < 2048


def _posterior_format(checkpoint, pdf_table):
    """The checkpoint as the previous format wrote it: every filter
    state a copy of the posterior grid plus its counters."""
    for record in checkpoint.lanes:
        filt = _session(pdf_table)
        state = record["estimator"]["filter"]
        replayed = filt._lane_for(0, create=True).estimator.filter
        replayed.restore_state(state, pdf_table)
        record["estimator"]["filter"] = {
            "grid_signature": state["grid_signature"],
            "posterior": np.array(replayed.posterior),
            "beacons_applied": replayed.beacons_applied,
            "annihilations": replayed.annihilations,
        }
    return checkpoint


def test_posterior_snapshot_is_refused_before_any_lane_changes(pdf_table):
    source = _session(pdf_table)
    _feed(source, WINDOW_A, robot=0)
    _feed(source, WINDOW_B, robot=1)
    checkpoint = _posterior_format(source.snapshot(), pdf_table)
    session = _session(pdf_table)
    before = session.stats()
    with pytest.raises(ValueError, match="evidence"):
        session.restore_from(checkpoint)
    assert session.n_robots == 0
    assert session.stats() == before
    # A session with a lane of its own keeps that lane as it was.
    _feed(session, WINDOW_B, robot=1)
    want = _readout_hex(session, robot=1)
    with pytest.raises(ValueError, match="evidence"):
        session.restore_from(checkpoint)
    assert session.n_robots == 1
    assert _readout_hex(session, robot=1) == want


def test_checkpoint_fingerprint_separates_identities():
    base = checkpoint_fingerprint(_hello("a"))
    assert base.startswith("ckpt-")
    assert base == checkpoint_fingerprint(_hello("a"))
    assert base != checkpoint_fingerprint(_hello("b"))
    assert base != checkpoint_fingerprint(_hello("a", grid_resolution_m=1.0))


def test_resume_token_is_pinned():
    """A resume token crosses process restarts (it addresses checkpoints
    in a warm cache), so its bytes are pinned; an integer side is the
    same identity as its float."""
    pinned = (
        "ckpt-a5a2352f30557347bb5512ae821b5ac8e23968573787920e3c558ac4635c6c51"
    )
    for side in (80.0, 80):
        hello = HelloRequest(
            tenant="pinned", calibration_seed=7, calibration_samples=4000,
            area_side_m=side, grid_resolution_m=2.5, min_beacons_for_fix=3,
        )
        assert checkpoint_fingerprint(hello) == pinned


# -- reply cache --------------------------------------------------------------


def test_reply_cache_dedups_state_mutating_replays(pdf_table):
    session = _session(pdf_table)
    payload = _feed(session, WINDOW_A, rid_base=100)
    observations_before = session.observations
    windows_closed_before = session.windows_closed
    # Replay the close: identical payload, no re-close.
    replay = session.handle(WindowRequest(
        tenant="t", robot=0, event="close", rid=100 + 1 + len(WINDOW_A),
    ))
    assert replay.ok and replay.payload == payload
    # Replay an observe: no double ingest.
    x, y, rssi = WINDOW_A[0]
    again = session.handle(ObserveRequest(
        tenant="t", robot=0, seq=0, x=x, y=y, rssi_dbm=rssi, rid=101,
    ))
    assert again.ok and again.payload.get("buffered") is True
    assert session.observations == observations_before
    assert session.windows_closed == windows_closed_before
    assert session.replays_served == 2
    assert session.stats()["replays_served"] == 2


def test_reply_cache_skips_errors_and_no_op_acks(pdf_table):
    session = _session(pdf_table)
    # Error replies are not cached: a close with no open window fails,
    # but the same rid must succeed once a window exists.
    failed = session.handle(WindowRequest(
        tenant="t", robot=0, event="close", rid=1,
    ))
    assert not failed.ok
    # No-op observe acks are not cached either: out-of-window observe
    # answers buffered=False, and the same rid must re-execute later.
    x, y, rssi = WINDOW_A[0]
    noop = session.handle(ObserveRequest(
        tenant="t", robot=0, seq=0, x=x, y=y, rssi_dbm=rssi, rid=2,
    ))
    assert noop.ok and noop.payload["buffered"] is False
    assert session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=3,
    )).ok
    retried = session.handle(ObserveRequest(
        tenant="t", robot=0, seq=0, x=x, y=y, rssi_dbm=rssi, rid=2,
    ))
    assert retried.ok and retried.payload["buffered"] is True
    closed = session.handle(WindowRequest(
        tenant="t", robot=0, event="close", rid=1,
    ))
    assert closed.ok and closed.payload["applied"] == 1


def test_close_with_expected_count_refuses_short_windows(pdf_table):
    session = _session(pdf_table)
    assert session.handle(WindowRequest(
        tenant="t", robot=0, event="open", rid=1,
    )).ok
    for seq, (x, y, rssi) in enumerate(WINDOW_A[:2]):
        assert session.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
            rid=2 + seq,
        )).ok
    # A rollback ate part of the window: the guarded close refuses
    # without closing anything, and the refusal is never cached.
    short = session.handle(WindowRequest(
        tenant="t", robot=0, event="close", expected=len(WINDOW_A), rid=9,
    ))
    assert not short.ok and short.error == "window_incomplete"
    assert session.windows_closed == 0
    # Completing the window lets the *same rid* close succeed.
    for seq, (x, y, rssi) in enumerate(WINDOW_A[2:], start=2):
        assert session.handle(ObserveRequest(
            tenant="t", robot=0, seq=seq, x=x, y=y, rssi_dbm=rssi,
            rid=2 + seq,
        )).ok
    closed = session.handle(WindowRequest(
        tenant="t", robot=0, event="close", expected=len(WINDOW_A), rid=9,
    ))
    assert closed.ok and closed.payload["applied"] == len(WINDOW_A)


def test_reply_cache_is_bounded(pdf_table, monkeypatch):
    monkeypatch.setattr(session_module, "REPLY_CACHE_SIZE", 4)
    session = _session(pdf_table)
    for rid in range(1, 11):
        event = "open" if rid % 2 else "close"
        session.handle(WindowRequest(
            tenant="t", robot=0, event=event, rid=rid,
        ))
    assert len(session._replies) <= 4


# -- checkpoint store ---------------------------------------------------------


def test_checkpoint_store_latest_wins_and_forget(pdf_table):
    store = CheckpointStore()
    session = _session(pdf_table, checkpoints=store)
    _feed(session, WINDOW_A)
    first = store.load_for_tenant("t")
    assert first is not None and first.counters["windows_closed"] == 1
    _feed(session, WINDOW_B)
    assert store.load_for_tenant("t").counters["windows_closed"] == 2
    assert store.tenants() == ["t"]
    store.forget("t")
    assert store.load_for_tenant("t") is None
    assert store.tenants() == []


def test_checkpoint_store_persists_through_result_cache(pdf_table, tmp_path):
    cache = ResultCache(root=str(tmp_path / "ckpt"))
    store = CheckpointStore(cache=cache)
    session = _session(pdf_table, checkpoints=store)
    _feed(session, WINDOW_A)
    token = session.resume_token
    # A brand-new store over the same directory = a restarted process.
    fresh = CheckpointStore(cache=cache)
    loaded = fresh.load(token)
    assert loaded is not None and loaded.tenant == "t"
    restored = _session(pdf_table)
    restored.restore_from(loaded)
    assert restored.windows_closed == 1
    # A wrong-typed entry at the address reads as a miss, not a crash.
    cache.put(token, {"not": "a checkpoint"})
    assert CheckpointStore(cache=cache).load(token) is None


# -- client taxonomy and retry ------------------------------------------------


def test_ensure_ok_raises_service_error():
    from repro.serve.protocol import Response, error_response

    response = error_response("unknown_tenant", "no such tenant")
    with pytest.raises(ServiceError) as caught:
        ensure_ok(response)
    assert caught.value.tag == "unknown_tenant"
    assert caught.value.response is response
    assert "no such tenant" in str(caught.value)
    assert ensure_ok(Response(ok=True)).ok


def test_retry_policy_backoff_is_seeded_and_capped():
    import numpy as np

    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1,
                         max_delay_s=0.4, jitter=0.5, seed=9)
    a = [policy.delay_s(k, np.random.default_rng(9)) for k in (1, 2, 3, 4)]
    b = [policy.delay_s(k, np.random.default_rng(9)) for k in (1, 2, 3, 4)]
    assert a == b  # same seed, same jitter
    for attempt, delay in enumerate(a, start=1):
        assert delay <= 0.4 * 1.5 + 1e-12
        assert delay >= min(0.1 * 2 ** (attempt - 1), 0.4)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=2.0)


def test_client_reconnects_and_server_dedups(pdf_table):
    async def scenario():
        core = ServiceCore(ServeConfig(n_shards=1))
        from repro.serve.server import LocalizationServer

        server = LocalizationServer(core)
        await server.start()
        sleeps = []

        async def fake_sleep(seconds):
            sleeps.append(seconds)

        client = ServeClient(
            "127.0.0.1", server.port,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01, seed=3),
            sleep=fake_sleep,
        )
        await client.connect()
        try:
            ensure_ok(await client.hello(
                "t", calibration_samples=2000, area_side_m=80.0
            ))
            ensure_ok(await client.window_open("t", 0))
            for seq, (x, y, rssi) in enumerate(WINDOW_A):
                ensure_ok(await client.observe(
                    "t", 0, seq=seq, x=x, y=y, rssi_dbm=rssi,
                ))
                if seq == 1:
                    client.abort()  # sever mid-window
            close = ensure_ok(await client.window_close("t", 0))
            assert close.payload["fixed"]
            # Every observation ingested exactly once despite retries.
            stats = ensure_ok(await client.stats("t"))
            assert stats.payload["observations"] == len(WINDOW_A)
            assert client.reconnects >= 1
            assert sleeps, "backoff must have been consulted"
        finally:
            await client.close()
            await server.stop()

    asyncio.run(scenario())


def test_client_without_retry_fails_fast(pdf_table):
    async def scenario():
        client = ServeClient("127.0.0.1", 1)  # nothing listens here
        with pytest.raises(TransportError):
            await client.connect()

    asyncio.run(scenario())


# -- eviction + resume --------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _durable_core(clock, **overrides):
    options = dict(n_shards=1, session_ttl_s=30.0, sweep_interval_s=3600.0)
    options.update(overrides)
    return ServiceCore(ServeConfig(**options), clock=clock)


HELLO_KW = dict(calibration_samples=2000, area_side_m=80.0)


async def _client_window(client, tenant, beacons, robot=0):
    ensure_ok(await client.window_open(tenant, robot))
    for seq, (x, y, rssi) in enumerate(beacons):
        ensure_ok(await client.observe(
            tenant, robot, seq=seq, x=x, y=y, rssi_dbm=rssi,
        ))
    return ensure_ok(await client.window_close(tenant, robot)).payload


def _fix_bytes(payload):
    return (payload.get("x_hex"), payload.get("y_hex"))


async def _uninterrupted_fixes(clock):
    core = _durable_core(clock)
    client = InProcessClient(core)
    try:
        ensure_ok(await client.hello("t", **HELLO_KW))
        first = await _client_window(client, "t", WINDOW_A)
        second = await _client_window(client, "t", WINDOW_B)
        return _fix_bytes(first), _fix_bytes(second)
    finally:
        await core.stop()


def test_evicted_session_resumes_via_token(pdf_table):
    async def scenario():
        clock = _FakeClock()
        want = await _uninterrupted_fixes(clock)
        core = _durable_core(clock)
        client = InProcessClient(core)
        try:
            hello = ensure_ok(await client.hello("t", **HELLO_KW))
            token = hello.payload["resume"]
            first = await _client_window(client, "t", WINDOW_A)
            clock.now += 31.0
            assert core.shards[0].sweep_idle_sessions() == 1
            # The session is gone — and says so.
            orphan = await client.window_open("t", 0)
            assert not orphan.ok and orphan.error == "unknown_tenant"
            resumed = ensure_ok(await client.hello(
                "t", resume=token, **HELLO_KW
            ))
            assert resumed.payload["restored"] is True
            second = await _client_window(client, "t", WINDOW_B)
            assert (_fix_bytes(first), _fix_bytes(second)) == want
        finally:
            await core.stop()

    asyncio.run(scenario())


def test_resume_with_unknown_token_starts_fresh(pdf_table):
    async def scenario():
        core = _durable_core(_FakeClock())
        client = InProcessClient(core)
        try:
            hello = ensure_ok(await client.hello(
                "t", resume="ckpt-" + "0" * 64, **HELLO_KW
            ))
            assert hello.payload["restored"] is False
        finally:
            await core.stop()

    asyncio.run(scenario())


def test_bye_forgets_the_checkpoint(pdf_table):
    async def scenario():
        core = _durable_core(_FakeClock())
        client = InProcessClient(core)
        try:
            hello = ensure_ok(await client.hello("t", **HELLO_KW))
            token = hello.payload["resume"]
            await _client_window(client, "t", WINDOW_A)
            assert core.checkpoints.load(token) is not None
            ensure_ok(await client.bye("t"))
            assert core.checkpoints.load_for_tenant("t") is None
        finally:
            await core.stop()

    asyncio.run(scenario())


# -- supervision --------------------------------------------------------------


def test_supervisor_revives_worker_and_rehydrates(pdf_table):
    async def scenario():
        clock = _FakeClock()
        want = await _uninterrupted_fixes(clock)
        core = _durable_core(clock)
        client = InProcessClient(core)
        try:
            ensure_ok(await client.hello("t", **HELLO_KW))
            first = await _client_window(client, "t", WINDOW_A)
            shard = core.shards[0]
            task = shard.worker_task
            shard.sessions.clear()  # simulated memory loss
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            await asyncio.sleep(0)  # let the supervisor's callback run
            await asyncio.sleep(0)
            supervisor = core.supervisors[0]
            assert supervisor.restarts == 1
            assert supervisor.rehydrations == 1
            assert "t" in shard.sessions
            # The revived service continues byte-identically, with no
            # client-side resume needed.
            second = await _client_window(client, "t", WINDOW_B)
            assert (_fix_bytes(first), _fix_bytes(second)) == want
        finally:
            await core.stop()

    asyncio.run(scenario())


def test_orderly_stop_does_not_trigger_supervision(pdf_table):
    async def scenario():
        core = _durable_core(_FakeClock())
        client = InProcessClient(core)
        ensure_ok(await client.hello("t", **HELLO_KW))
        await core.stop()
        assert all(s.restarts == 0 for s in core.supervisors)

    asyncio.run(scenario())


# -- restart persistence ------------------------------------------------------


def test_sessions_survive_process_restart_through_cache(tmp_path):
    async def scenario():
        clock = _FakeClock()
        want = await _uninterrupted_fixes(clock)
        cache = ResultCache(root=str(tmp_path / "serve-cache"))
        first_core = ServiceCore(
            ServeConfig(n_shards=1, sweep_interval_s=3600.0),
            checkpoint_cache=cache, clock=clock,
        )
        client = InProcessClient(first_core)
        hello = ensure_ok(await client.hello("t", **HELLO_KW))
        token = hello.payload["resume"]
        first = await _client_window(client, "t", WINDOW_A)
        await first_core.drain()
        await first_core.stop()
        # A new core over the same cache directory = restarted process.
        second_core = ServiceCore(
            ServeConfig(n_shards=1, sweep_interval_s=3600.0),
            checkpoint_cache=cache, clock=clock,
        )
        client = InProcessClient(second_core)
        try:
            resumed = ensure_ok(await client.hello(
                "t", resume=token, **HELLO_KW
            ))
            assert resumed.payload["restored"] is True
            # The restarted process rebuilt its table; the fixes below
            # prove the rebuild resumes bit for bit.
            misses = second_core.registry.counter("serve_warmstart_misses")
            assert misses.value == 1
            second = await _client_window(client, "t", WINDOW_B)
            assert (_fix_bytes(first), _fix_bytes(second)) == want
            # Checkpoints are the only thing the cache persists: every
            # file under it is a .pkl that loads as one.
            stored = [
                os.path.join(dirpath, name)
                for dirpath, _dirnames, names in os.walk(cache.root)
                for name in names
            ]
            assert stored
            for path in stored:
                assert path.endswith(".pkl")
                fingerprint = os.path.basename(path)[: -len(".pkl")]
                assert path == cache.path_for(fingerprint)
                loaded = cache.get(fingerprint, SessionCheckpoint)
                assert isinstance(loaded, SessionCheckpoint)
        finally:
            await second_core.stop()

    asyncio.run(scenario())


def test_posterior_checkpoint_left_in_a_warm_cache_is_rejected(
    tmp_path, pdf_table
):
    """After an upgrade, a checkpoint in the previous posterior format
    resumes as ``restored: false``, counted as a rejected resume, and
    leaves a fresh session with no lanes."""
    async def scenario():
        clock = _FakeClock()
        cache = ResultCache(root=str(tmp_path / "serve-cache"))
        config = ServeConfig(n_shards=1, sweep_interval_s=3600.0)
        first_core = ServiceCore(config, checkpoint_cache=cache, clock=clock)
        client = InProcessClient(first_core)
        token = ensure_ok(await client.hello("t", **HELLO_KW)).payload[
            "resume"
        ]
        await _client_window(client, "t", WINDOW_A)
        await first_core.drain()
        await first_core.stop()
        stored = cache.get(token, SessionCheckpoint)
        cache.put(token, _posterior_format(stored, pdf_table))

        second_core = ServiceCore(config, checkpoint_cache=cache, clock=clock)
        client = InProcessClient(second_core)
        try:
            resumed = ensure_ok(await client.hello(
                "t", resume=token, **HELLO_KW
            ))
            assert resumed.payload["restored"] is False
            rejected = second_core.registry.counter("serve_resume_rejected")
            assert rejected.value == 1
            assert second_core.shards[0].sessions["t"].n_robots == 0
        finally:
            await second_core.stop()

    asyncio.run(scenario())


# -- drain and health ---------------------------------------------------------


def test_drain_flushes_checkpoints_and_sheds(pdf_table):
    async def scenario():
        core = _durable_core(_FakeClock())
        client = InProcessClient(core)
        ensure_ok(await client.hello("t", **HELLO_KW))
        await _client_window(client, "t", WINDOW_A)
        assert core.ready()
        flushed = await core.drain()
        assert flushed == 1
        assert core.draining and not core.ready()
        shed = await client.window_open("t", 0)
        assert not shed.ok and shed.error == "shutting_down"
        await core.stop()

    asyncio.run(scenario())


def test_health_endpoints_over_tcp(pdf_table):
    async def scenario():
        from repro.serve.server import LocalizationServer

        core = ServiceCore(ServeConfig(n_shards=1))
        server = LocalizationServer(core)
        await server.start()

        async def scrape(path):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET " + path + b" HTTP/1.1\r\n\r\n")
            await writer.drain()
            body = await reader.read(-1)
            writer.close()
            await writer.wait_closed()
            return body

        try:
            assert b"200 OK" in await scrape(b"/healthz")
            ready = await scrape(b"/readyz")
            assert b"200 OK" in ready and b"ready" in ready
            await core.drain()
            not_ready = await scrape(b"/readyz")
            assert b"503" in not_ready and b"draining" in not_ready
            assert b"200 OK" in await scrape(b"/healthz")
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_serve_config_rejects_bad_values():
    """ServeConfig is the one check of every serve setting."""
    for bad in (
        dict(port=-1), dict(n_shards=0), dict(queue_limit=0),
        dict(tenant_inflight_limit=0), dict(session_ttl_s=-1.0),
        dict(sweep_interval_s=0.0), dict(trace_mode="never"),
        dict(trace_sample_every=0), dict(trace_slow_ms=-1.0),
    ):
        with pytest.raises(ValueError):
            ServeConfig(**bad)
