"""Deterministic chaos harness: crash the service, demand the same bytes.

The durability claim this module gates (``repro chaos``, and the CI
``chaos-smoke`` job): a recorded batch scenario replayed through a
**live TCP server** produces byte-identical fixes *even while faults
fire mid-stream*.  Four fault kinds, drawn from a seeded schedule:

- ``kill_shard`` — cancel the tenant's shard worker task **and wipe the
  shard's live sessions** (simulated process-memory loss); the shard
  supervisor must revive the worker and re-hydrate from checkpoints.
- ``sever`` — abort the client's TCP connection with replies in flight;
  the client's retry policy must reconnect and the server's reply cache
  must dedup whatever the client re-sends.
- ``evict`` — advance the injectable session clock past the TTL and
  sweep, forcing a checkpoint-then-evict; the driver resumes via its
  token.
- ``delay`` — advance the injectable clock by less than the TTL (time
  passes, nothing may break).

Faults fire at *request boundaries* (the schedule indexes the driver's
global request counter), so kills land mid-window as naturally as
between windows — including in the middle of an earlier fault's
*retry*.  The driver recovers with **window-granularity retries**: each
robot window (open → observes → close) is built once with
client-stamped rids and re-sent wholesale when the session signals
state loss (``unknown_tenant`` → re-hello with the resume token;
``buffered: false`` on an observe → the window is gone, re-open it;
``window_incomplete`` on the close → a rehydration rolled part of the
window back between observes, re-send the unit).  Every close carries
``expected`` (the unit's observation count), so a partially-rolled-back
window can never close short and silently diverge.
The idempotency analysis for why any interleaving of these retries is
byte-identical lives in DESIGN.md's durability section.

Everything is seeded — the schedule (``numpy`` generator), the client's
backoff jitter, the scenario itself — so a red chaos run reproduces
exactly from its seed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    TransportError,
    ensure_ok,
)
from repro.serve.protocol import (
    HelloRequest,
    ObserveRequest,
    Request,
    WindowRequest,
)
from repro.serve.replay import ReplayLog, diff_fixes
from repro.serve.server import LocalizationServer, ServeConfig, ServiceCore
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosReport",
    "SteppedClock",
    "run_chaos",
]

#: Per-window retry ceiling; a window that cannot complete in this many
#: attempts means recovery is broken, and the harness should say so
#: loudly instead of spinning.
MAX_WINDOW_ATTEMPTS = 8

FAULT_KINDS = ("kill_shard", "sever", "evict", "delay")


class SteppedClock:
    """A manually-advanced monotonic clock (the service's injectable
    time source during chaos runs — evictions happen when the *harness*
    says time passed, not when the wall says so)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        at_request: fire just before the driver sends its
            ``at_request``-th request (1-based, global across windows).
        kind: one of :data:`FAULT_KINDS`.
    """

    at_request: int
    kind: str


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, reproducible fault schedule.

    Attributes:
        seed: the generator seed (also reused for client jitter).
        events: faults ordered by ``at_request``.
    """

    seed: int
    events: List[ChaosEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        n_requests: int,
        kills: int = 1,
        severs: int = 2,
        evicts: int = 1,
        delays: int = 1,
    ) -> "ChaosSchedule":
        """Draw fault positions without replacement over the request
        stream and shuffle the kinds across them."""
        kinds = (["kill_shard"] * kills + ["sever"] * severs
                 + ["evict"] * evicts + ["delay"] * delays)
        total = len(kinds)
        if total == 0:
            return cls(seed=seed, events=[])
        # Positions start at 2: the driver's first request is the hello,
        # and a fault before it would only test the connect path twice.
        low, high = 2, max(3, n_requests + 1)
        if high - low < total:
            raise ValueError(
                "schedule wants %d faults but the stream has only %d "
                "request slots" % (total, high - low)
            )
        rng = np.random.default_rng(seed)
        positions = sorted(
            int(p) for p in rng.choice(
                np.arange(low, high), size=total, replace=False
            )
        )
        rng.shuffle(kinds)
        return cls(seed=seed, events=[
            ChaosEvent(at_request=position, kind=kind)
            for position, kind in zip(positions, kinds)
        ])

    @classmethod
    def for_log(cls, log: ReplayLog, seed: int, **kwargs) -> "ChaosSchedule":
        """A schedule sized to a replay log's full request stream."""
        return cls.generate(seed, n_requests=len(log.events) + 1, **kwargs)


@dataclass
class ChaosReport:
    """What a chaos run did and whether the bytes survived.

    ``ok`` is the gate: every fault injected *and* zero fix
    divergences.
    """

    seed: int
    ok: bool
    problems: List[str]
    faults_injected: int
    faults_total: int
    window_retries: int
    rehellos: int
    reconnects: int
    fixes_fixed: int
    closes_total: int
    service: Dict[str, float]
    #: Trace id of the first diverging fix (gate failure forensics) and
    #: its recorded spans — chaos runs trace ``always`` by default, so
    #: the offending request's per-hop timeline is available post-mortem.
    divergent_trace: Optional[str] = None
    divergent_spans: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            "[chaos %s] seed=%d faults=%d/%d retries=%d rehellos=%d "
            "reconnects=%d fixes=%d/%d divergences=%d"
            % (status, self.seed, self.faults_injected, self.faults_total,
               self.window_retries, self.rehellos, self.reconnects,
               self.fixes_fixed, self.closes_total, len(self.problems))
        )


class _FaultInjector:
    """Applies scheduled faults to a live server + client pair."""

    def __init__(
        self,
        core: ServiceCore,
        clock: SteppedClock,
        client: ServeClient,
        tenant: str,
        journal: List[Dict[str, Any]],
    ) -> None:
        self._core = core
        self._clock = clock
        self._client = client
        self._tenant = tenant
        self._journal = journal
        self.injected = 0

    async def fire(self, event: ChaosEvent) -> None:
        self._journal.append({
            "kind": "fault", "fault": event.kind,
            "at_request": event.at_request,
        })
        if event.kind == "kill_shard":
            await self._kill_shard()
        elif event.kind == "sever":
            self._client.abort()
        elif event.kind == "evict":
            self._clock.advance(self._core.config.session_ttl_s + 1.0)
            for shard in self._core.shards:
                shard.sweep_idle_sessions()
        elif event.kind == "delay":
            self._clock.advance(
                max(0.5, self._core.config.session_ttl_s / 4.0)
            )
        else:
            raise ValueError("unknown fault kind %r" % event.kind)
        self.injected += 1

    async def _kill_shard(self) -> None:
        shard = self._core.shard_for(self._tenant)
        task = shard.worker_task
        # Memory loss first, then the crash: the revived worker must
        # find nothing and rebuild purely from checkpoints.
        shard.sessions.clear()
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        # One loop turn for the supervisor's done-callback to revive.
        await asyncio.sleep(0)


class _ChaosDriver:
    """Replays a log through a faulty service, one window at a time."""

    def __init__(
        self,
        client: ServeClient,
        log: ReplayLog,
        tenant: str,
        schedule: ChaosSchedule,
        injector: _FaultInjector,
        journal: List[Dict[str, Any]],
    ) -> None:
        self._client = client
        self._log = log
        self._tenant = tenant
        self._faults = list(schedule.events)
        self._next_fault = 0
        self._injector = injector
        self._journal = journal
        self._requests_sent = 0
        self._resume_token: Optional[str] = None
        self.window_retries = 0
        self.rehellos = 0
        self.fixes: List[Dict[str, Any]] = []

    async def run(self) -> List[Dict[str, Any]]:
        await self._hello(resume=None)
        opens: Dict[int, Dict[str, Any]] = {}
        beacons: Dict[int, List[Dict[str, Any]]] = {}
        for event in self._log.events:
            robot = event["robot"]
            kind = event["kind"]
            if kind == "open":
                opens[robot] = event
                beacons[robot] = []
            elif kind == "beacon":
                beacons.setdefault(robot, []).append(event)
            elif kind == "close":
                await self._drive_window(
                    robot,
                    opens.pop(robot, {"t": 0.0}),
                    beacons.pop(robot, []),
                    event,
                )
        return self.fixes

    # -- one window ----------------------------------------------------------

    async def _drive_window(self, robot, open_event, beacon_events,
                            close_event) -> None:
        """Send open → observes → close as a retryable unit.

        Every request is rid-stamped exactly once, so a retry re-sends
        the *same* rids and the session's reply cache dedups whatever
        already executed.  The unit restarts from its open whenever the
        session reports state loss; see the module docstring.
        """
        tenant = self._tenant
        stamp = self._stamp
        open_request = stamp(WindowRequest(
            tenant=tenant, robot=robot, event="open",
            t=open_event.get("t", 0.0),
        ))
        observe_requests = [
            stamp(ObserveRequest(
                tenant=tenant,
                robot=robot,
                seq=beacon["seq"],
                x=beacon["x"],
                y=beacon["y"],
                rssi_dbm=beacon["rssi_dbm"],
                anchor_id=beacon.get("anchor_id"),
                t=beacon.get("t", 0.0),
            ))
            for beacon in beacon_events
        ]
        close_request = stamp(WindowRequest(
            tenant=tenant, robot=robot, event="close",
            t=close_event.get("t", 0.0),
            # Completeness guard: a crash that rolls the pending buffer
            # back mid-retry must surface as window_incomplete, never as
            # a short (silently divergent) close.
            expected=len(observe_requests),
        ))
        for attempt in range(1, MAX_WINDOW_ATTEMPTS + 1):
            response = await self._try_window(
                open_request, observe_requests, close_request
            )
            if response is not None:
                self._record_close(close_event, close_request, response)
                return
            self.window_retries += 1
            self._journal.append({
                "kind": "window_retry", "robot": robot,
                "window": close_event.get("window"), "attempt": attempt,
                "rid": close_request.rid, "trace": close_request.trace,
            })
        raise RuntimeError(
            "window for robot %s did not complete in %d attempts"
            % (robot, MAX_WINDOW_ATTEMPTS)
        )

    async def _try_window(self, open_request, observe_requests,
                          close_request):
        """One attempt; the close Response on success, None to retry."""
        response = await self._send(open_request)
        if not response.ok:
            await self._recover(response)
            return None
        for request in observe_requests:
            response = await self._send(request)
            if not response.ok:
                await self._recover(response)
                return None
            if not response.payload.get("buffered"):
                # The open this observe rode on is gone (restore rolled
                # the lane back): re-run the whole unit.
                return None
        response = await self._send(close_request)
        if not response.ok:
            await self._recover(response)
            return None
        return response

    async def _recover(self, response) -> None:
        """React to an error reply inside a window attempt."""
        if response.error == "unknown_tenant":
            await self._hello(resume=self._resume_token)
            self.rehellos += 1
            return
        if response.error in ("no_open_window", "window_incomplete",
                              "overloaded", "tenant_overloaded",
                              "shutting_down"):
            # Transient or state-loss shapes: the window retry handles
            # them (shed replies clear once the revived worker drains).
            return
        ensure_ok(response)  # anything else is a real bug: raise

    # -- plumbing ------------------------------------------------------------

    def _stamp(self, request: Request) -> Request:
        """rid + trace, both minted exactly once per logical request —
        every retry of the window unit re-sends the same ids, so the
        reply cache dedups it and the trace correlates it."""
        return self._client.stamp_trace(self._client.stamp_rid(request))

    async def _send(self, request: Request):
        """Send one request, firing any fault scheduled at this slot."""
        self._requests_sent += 1
        while (self._next_fault < len(self._faults)
               and self._faults[self._next_fault].at_request
               <= self._requests_sent):
            await self._injector.fire(self._faults[self._next_fault])
            self._next_fault += 1
        return await self._client.request(request)

    async def _hello(self, resume: Optional[str]) -> None:
        log = self._log
        hello_request = self._stamp(HelloRequest(
            tenant=self._tenant,
            calibration_seed=log.calibration_seed,
            calibration_samples=log.calibration_samples,
            area_side_m=log.area_side_m,
            grid_resolution_m=log.grid_resolution_m,
            min_beacons_for_fix=log.min_beacons_for_fix,
            resume=resume,
        ))
        response = ensure_ok(await self._send(hello_request))
        token = response.payload.get("resume")
        if token:
            self._resume_token = token
        self._journal.append({
            "kind": "hello", "resume_sent": resume is not None,
            "restored": bool(response.payload.get("restored")),
            "rid": hello_request.rid, "trace": hello_request.trace,
        })

    def _record_close(self, close_event, close_request, response) -> None:
        record = {
            "robot": close_event["robot"],
            "window": close_event["window"],
            "fixed": bool(response.payload.get("fixed")),
            "rid": close_request.rid,
            "trace": close_request.trace,
        }
        if record["fixed"]:
            record["x_hex"] = response.payload["x_hex"]
            record["y_hex"] = response.payload["y_hex"]
        self.fixes.append(record)


async def run_chaos(
    log: ReplayLog,
    schedule: ChaosSchedule,
    tenant: str = "chaos",
    config: Optional[ServeConfig] = None,
    chaos_log_path=None,
    trace_log_path=None,
    registry=None,
) -> ChaosReport:
    """Run one chaos schedule against a live TCP server; gate the bytes.

    Boots a :class:`LocalizationServer` on an ephemeral port (with a
    :class:`SteppedClock` so evictions are harness-driven), replays the
    log through a retrying :class:`ServeClient` while injecting the
    schedule's faults, drains the server, and diffs the collected fixes
    against the log's recorded batch fixes.

    Args:
        log: a recorded batch run (see
            :func:`~repro.serve.replay.record_replay_log`).
        schedule: the fault schedule (see :meth:`ChaosSchedule.for_log`).
        tenant: tenant name for the run.
        config: server knobs; defaults to 2 shards, checkpointing and
            supervision on, and a sweep interval long enough that only
            the harness triggers evictions.
        chaos_log_path: optional JSONL path recording every fault,
            retry and re-hello (the CI job uploads it as an artifact).
        trace_log_path: optional trace-JSONL path dumping the run's
            recorded spans (``repro trace`` reads it).
        registry: optional metrics registry to share.

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the gate.
    """
    clock = SteppedClock()
    if config is None:
        config = ServeConfig(
            port=0,
            n_shards=2,
            session_ttl_s=60.0,
            sweep_interval_s=3600.0,
            # Forensics beats sampling here: a diverging fix's trace
            # must be in the buffer, whichever request it was.
            trace_mode="always",
        )
    if not config.checkpointing or not config.supervise:
        raise ValueError(
            "chaos runs need checkpointing and supervision enabled"
        )
    core = ServiceCore(
        config=config,
        registry=registry if registry is not None else MetricsRegistry(),
        clock=clock,
    )
    server = LocalizationServer(core)
    journal: List[Dict[str, Any]] = []
    await server.start()
    try:
        client = ServeClient(
            host=config.host,
            port=server.port,
            retry=RetryPolicy(
                max_attempts=6,
                base_delay_s=0.005,
                max_delay_s=0.05,
                seed=schedule.seed,
            ),
            trace_prefix="chaos%d" % schedule.seed,
        )
        await client.connect()
        driver = _ChaosDriver(
            client, log, tenant, schedule,
            _FaultInjector(core, clock, client, tenant, journal),
            journal,
        )
        try:
            fixes = await driver.run()
        finally:
            try:
                await client.close()
            except TransportError:
                pass
        problems = diff_fixes(log, fixes)
        injector = driver._injector
    finally:
        await server.drain()
    divergent_trace = (
        _first_divergent_trace(log, fixes) if problems else None
    )
    divergent_spans = (
        core.tracer.spans_for(divergent_trace)
        if divergent_trace is not None else []
    )
    service = core.stats()
    report = ChaosReport(
        seed=schedule.seed,
        ok=(not problems
            and injector.injected == len(schedule.events)),
        problems=problems,
        faults_injected=injector.injected,
        faults_total=len(schedule.events),
        window_retries=driver.window_retries,
        rehellos=driver.rehellos,
        reconnects=client.reconnects,
        fixes_fixed=sum(1 for fix in fixes if fix["fixed"]),
        closes_total=len(fixes),
        service={
            key: service.get(key, 0.0)
            for key in (
                "serve_shard_restarts",
                "serve_rehydrations",
                "serve_replays_served",
                "serve_checkpoints_saved",
                "serve_checkpoints_loaded",
                "serve_sessions_evicted",
                "serve_sessions_restored",
            )
        },
        divergent_trace=divergent_trace,
        divergent_spans=divergent_spans,
    )
    # Both dumps hit the disk; hand them to a worker thread so the
    # (still-running) event loop is never stalled by file I/O.
    if chaos_log_path is not None:
        await asyncio.to_thread(
            _dump_chaos_log, chaos_log_path, schedule, journal, report
        )
    if trace_log_path is not None:
        from repro.telemetry.export import write_jsonl

        await asyncio.to_thread(
            write_jsonl, trace_log_path, core.tracer.records()
        )
    return report


def _first_divergent_trace(
    log: ReplayLog, replayed: List[Dict[str, Any]]
) -> Optional[str]:
    """The trace id of the first replayed close that diverges from the
    recorded batch fixes (mirrors :func:`diff_fixes`'s comparison)."""
    recorded = [e for e in log.events if e["kind"] == "close"]
    for want, got in zip(recorded, replayed):
        if (
            (want["robot"], want["window"])
            != (got["robot"], got["window"])
            or bool(want["fixed"]) != bool(got["fixed"])
            or (want["fixed"] and any(
                want[axis] != got[axis] for axis in ("x_hex", "y_hex")
            ))
        ):
            return got.get("trace")
    if len(replayed) > len(recorded):
        return replayed[len(recorded)].get("trace")
    return None


def _dump_chaos_log(path, schedule: ChaosSchedule,
                    journal: List[Dict[str, Any]],
                    report: ChaosReport) -> None:
    """JSONL: header, schedule, every journal line, final report."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"kind": "header", "seed": schedule.seed,
             "faults": [asdict(event) for event in schedule.events]},
            sort_keys=True) + "\n")
        for line in journal:
            handle.write(json.dumps(line, sort_keys=True) + "\n")
        handle.write(json.dumps(
            {"kind": "report", **asdict(report)}, sort_keys=True
        ) + "\n")
