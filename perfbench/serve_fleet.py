"""The ``serve-fleet`` workload: open-loop load on a ``repro serve`` process.

The server runs with its shipped defaults (checkpointing on, ``sampled``
request tracing) in its own process.  One generator process offers beacon
windows for 12 tenants x 8 robots on a fixed schedule at
``OFFERED_WINDOWS_PER_S``; a window is ``open``, four ``observe``, ``close``
(the Bayes update plus a checkpoint write) and one ``confidence`` read,
pipelined on one of at most two connections that multiplex the tenants.
The schedule never waits for replies, so a stall in the server delays
every window behind it, and each fix's latency is measured from the
moment its window was *due*, not from when it was sent.

Observations are generated here, from the seed, as near-regime
log-distance RSSI readings of four anchors around a true robot position,
so every fix can be scored against the truth.  The simulator is not
involved.  After the load, the same observations are replayed in process
through :class:`repro.serve.session.TenantSession` -- the estimator the
server runs -- and the digest of the server's fix payloads must equal the
digest of the in-process fixes.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

TENANTS = 12
ROBOTS_PER_TENANT = 8
OBSERVATIONS_PER_WINDOW = 4
CONNECTIONS = 2
#: Robot seconds one beacon window stands for (the ``t`` step per window).
PERIOD_S = 10.0
#: Fixed offered load.  About a third of the rate at which this server's
#: backlog starts to grow on a 2-CPU machine, so the queue stays short.
OFFERED_WINDOWS_PER_S = 150.0
#: A fix later than this after its window was due counts as missed.
LATENCY_LIMIT_MS = 50.0
#: Server spawns per run; ``setup_s`` is the median of their set-up times.
SETUPS = 5
AREA_SIDE_M = 200.0
ANCHOR_RANGE_M = 35.0
RSSI_AT_1M_DBM = -32.0
PATH_LOSS_EXPONENT = 3.0
SHADOWING_DB = 2.5
#: Replies still missing this long after the last window was offered
#: count as failed.
DRAIN_TIMEOUT_S = 30.0

_SERVING = re.compile(rb"serving on [^:]+:(\d+)")

#: ``python -m repro`` with SIGINT restored: a process started with SIGINT
#: ignored (any background job) passes that on, and SIGINT is what makes
#: ``repro serve`` drain and exit.
_SERVE_MAIN = (
    "import signal, sys; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from repro.cli import main; sys.exit(main(sys.argv[1:]))"
)


@dataclass
class Window:
    """One robot's beacon window: its request lines and the truth."""

    tenant: str
    robot: int
    index: int
    true_x: float
    true_y: float
    lines: bytes
    conn: int


def tenant_name(i: int) -> str:
    return "fleet-%02d" % i


def make_windows(seed: int, count: int) -> List[Window]:
    """``count`` windows in offer order, from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    robots = TENANTS * ROBOTS_PER_TENANT
    margin = ANCHOR_RANGE_M
    windows = []
    for i in range(count):
        slot = i % robots
        tenant_idx, robot = slot % TENANTS, slot // TENANTS
        tenant = tenant_name(tenant_idx)
        index = i // robots
        t = index * PERIOD_S
        tx, ty = rng.uniform(margin, AREA_SIDE_M - margin, size=2)
        radius = rng.uniform(3.0, ANCHOR_RANGE_M, size=OBSERVATIONS_PER_WINDOW)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=OBSERVATIONS_PER_WINDOW)
        noise = rng.normal(0.0, SHADOWING_DB, size=OBSERVATIONS_PER_WINDOW)
        requests = [{"op": "window", "tenant": tenant, "robot": robot,
                     "event": "open", "t": t}]
        for seq in range(OBSERVATIONS_PER_WINDOW):
            rssi = (RSSI_AT_1M_DBM
                    - 10.0 * PATH_LOSS_EXPONENT * math.log10(radius[seq])
                    + noise[seq])
            requests.append({
                "op": "observe", "tenant": tenant, "robot": robot,
                "seq": seq,
                "x": float(tx + radius[seq] * math.cos(angle[seq])),
                "y": float(ty + radius[seq] * math.sin(angle[seq])),
                "rssi_dbm": float(rssi), "t": t,
            })
        requests.append({"op": "window", "tenant": tenant, "robot": robot,
                         "event": "close", "t": t})
        requests.append({"op": "confidence", "tenant": tenant,
                         "robot": robot})
        lines = b"".join(
            json.dumps(r, separators=(",", ":")).encode() + b"\n"
            for r in requests
        )
        windows.append(Window(tenant, robot, index, float(tx), float(ty),
                              lines, tenant_idx % CONNECTIONS))
    return windows


#: Position of the close reply among a window's request lines.
CLOSE_AT = OBSERVATIONS_PER_WINDOW + 1
LINES_PER_WINDOW = OBSERVATIONS_PER_WINDOW + 3


@dataclass
class Outcome:
    """What the generator saw for one window."""

    due: float = 0.0
    sent: float = 0.0
    close_at: Optional[float] = None
    close: Optional[dict] = None
    errors: List[str] = field(default_factory=list)
    replies: int = 0


class _Connection:
    def __init__(self, reader, writer, outcomes: List[Outcome], clock) -> None:
        self.reader = reader
        self.writer = writer
        self.outcomes = outcomes
        self.clock = clock
        #: (window index, line position) per request awaiting its reply.
        self.pending: "List[Tuple[int, int]]" = []
        self.head = 0
        self.idle = asyncio.Event()
        self.idle.set()

    def send(self, index: int, lines: bytes, count: int) -> None:
        self.pending.extend((index, k) for k in range(count))
        self.idle.clear()
        self.writer.write(lines)

    async def read_replies(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            now = self.clock()
            index, position = self.pending[self.head]
            self.head += 1
            outcome = self.outcomes[index]
            outcome.replies += 1
            reply = json.loads(line)
            if not reply.get("ok"):
                outcome.errors.append(str(reply.get("error")))
            if position == CLOSE_AT:
                outcome.close_at = now
                outcome.close = reply
            if self.head == len(self.pending):
                self.idle.set()


async def _http_get(port: int, path: str) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" % path.encode())
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()


async def _request(port: int, lines: Sequence[dict]) -> List[dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for request in lines:
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return [json.loads(await reader.readline()) for _ in lines]
    finally:
        writer.close()
        await writer.wait_closed()


class ServerProcess:
    """A ``repro serve --port 0`` child process (or the traced launcher)."""

    def __init__(self, root: str, traced: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        if traced:
            argv = [sys.executable,
                    os.path.join(root, "perfbench", "serve_launcher.py")]
        else:
            argv = [sys.executable, "-c", _SERVE_MAIN]
        self.proc = subprocess.Popen(
            argv + ["serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.port: Optional[int] = None
        #: True when the server ignored SIGINT and had to be killed.
        self.killed = False

    async def ready(self, timeout: float = 60.0) -> None:
        """Wait for the port line, then for ``/readyz`` to answer 200."""
        line = await asyncio.wait_for(
            asyncio.to_thread(self.proc.stdout.readline), timeout
        )
        match = _SERVING.search(line)
        if match is None:
            raise RuntimeError("server did not start: %r" % line)
        self.port = int(match.group(1))
        deadline = time.monotonic() + timeout
        while b" 200 " not in (await _http_get(self.port, "/readyz"))[:20]:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            await asyncio.sleep(0.01)

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self, timeout: float = 20.0) -> bytes:
        """SIGINT (graceful drain), wait, and return the rest of stdout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            out, _err = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.killed = True
            self.proc.kill()
            out, _err = self.proc.communicate()
        return out


async def _start(root: str, traced: bool) -> Tuple[ServerProcess, float]:
    """Spawn, wait for readiness, open every tenant; returns set-up time.

    The first ``hello`` builds the calibration table, so set-up includes
    the calibration warm-up the first fix would otherwise pay.
    """
    started = time.perf_counter()
    server = ServerProcess(root, traced)
    try:
        await server.ready()
        replies = await _request(
            server.port, [{"op": "hello", "tenant": tenant_name(i)}
                          for i in range(TENANTS)]
        )
        if not all(r.get("ok") for r in replies):
            raise RuntimeError("hello failed: %r" % replies)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


async def offer(port: int, windows: List[Window], rate: float,
                clock=time.perf_counter) -> List[Outcome]:
    """Offer ``windows`` at ``rate`` per second, open loop.

    The generator's own garbage collector is off meanwhile, so its pauses
    do not show up as server latency.
    """
    gc.disable()
    try:
        return await _offer(port, windows, rate, clock)
    finally:
        gc.enable()


async def _offer(port: int, windows: List[Window], rate: float,
                 clock) -> List[Outcome]:
    outcomes = [Outcome() for _ in windows]
    conns = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conns.append(_Connection(reader, writer, outcomes, clock))
    readers = [asyncio.create_task(c.read_replies()) for c in conns]
    try:
        start = clock() + 0.05
        for i, window in enumerate(windows):
            due = start + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = outcomes[i]
            outcome.due = due
            outcome.sent = clock()
            conn = conns[window.conn]
            conn.send(i, window.lines, LINES_PER_WINDOW)
            await conn.writer.drain()
        await asyncio.wait_for(
            asyncio.gather(*(c.idle.wait() for c in conns)), DRAIN_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        pass
    finally:
        for conn in conns:
            conn.writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for conn in conns:
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass
    return outcomes


def reference_fixes(windows: List[Window]) -> List[dict]:
    """Every window's close reply, computed in process by the estimator
    the server runs, from the same request lines."""
    from repro.serve.protocol import HelloRequest, parse_request
    from repro.serve.session import CalibrationStore, TenantSession

    store = CalibrationStore()
    sessions: Dict[str, TenantSession] = {}
    replies = []
    for window in windows:
        session = sessions.get(window.tenant)
        if session is None:
            hello = HelloRequest(tenant=window.tenant)
            session = sessions[window.tenant] = TenantSession(
                hello, table=store.table_for(hello)
            )
        lines = window.lines.splitlines()
        for line in lines[:CLOSE_AT]:
            session.handle(parse_request(line))
        close = session.handle(parse_request(lines[CLOSE_AT]))
        replies.append(dict(close.payload, ok=close.ok))
    return replies


def fix_digest(windows: List[Window], closes: List[Optional[dict]]) -> str:
    """SHA-256 over every window's fix payload, in offer order."""
    h = hashlib.sha256()
    for window, close in zip(windows, closes):
        close = close or {}
        h.update(repr((
            window.tenant, window.robot, window.index,
            bool(close.get("ok")), bool(close.get("fixed")),
            close.get("x_hex"), close.get("y_hex"),
        )).encode())
    return h.hexdigest()


def score(windows: List[Window], outcomes: List[Outcome],
          reference: List[dict]) -> Dict[str, object]:
    """End-to-end figures and the correctness check for one load phase."""
    latencies_ms = []
    errors_m = []
    on_time = 0
    fixed = 0
    failed = 0
    mismatched = 0
    for window, outcome, expected in zip(windows, outcomes, reference):
        close = outcome.close
        broken = (outcome.errors or close is None
                  or outcome.replies != LINES_PER_WINDOW)
        if close is not None and (
            close.get("x_hex") != expected.get("x_hex")
            or close.get("y_hex") != expected.get("y_hex")
            or bool(close.get("fixed")) != bool(expected.get("fixed"))
        ):
            mismatched += 1
            broken = True
        if broken:
            failed += 1
            continue
        latency_ms = (outcome.close_at - outcome.due) * 1000.0
        latencies_ms.append(latency_ms)
        if close.get("fixed"):
            fixed += 1
            errors_m.append(math.hypot(close["x"] - window.true_x,
                                       close["y"] - window.true_y))
            if latency_ms <= LATENCY_LIMIT_MS:
                on_time += 1
    lags_ms = [(o.sent - o.due) * 1000.0 for o in outcomes]
    answered = [o.close_at for o in outcomes if o.close_at is not None]
    wall_s = max(answered, default=outcomes[-1].due) - outcomes[0].due
    served = fix_digest(windows, [o.close for o in outcomes])
    expected = fix_digest(windows, reference)
    return {
        "latencies_ms": np.asarray(latencies_ms),
        "loc_error_m": statistics.fmean(errors_m) if errors_m else math.inf,
        "on_time": on_time,
        "fixed": fixed,
        "failed": failed,
        "mismatched": mismatched,
        "lag_p99_ms": float(np.percentile(lags_ms, 99)),
        "wall_s": wall_s,
        "digest_ok": served == expected,
        "digest": served,
    }


def _window_count(seconds: float) -> int:
    return max(TENANTS * ROBOTS_PER_TENANT,
               int(round(seconds * OFFERED_WINDOWS_PER_S)))


async def _phase(root: str, windows: List[Window], traced: bool,
                 setups: int) -> Dict[str, object]:
    """Set up ``setups`` servers (keeping the last), offer the load."""
    setup_times = []
    killed = 0
    server = None
    for _ in range(setups):
        if server is not None:
            server.stop()
            killed += server.killed
        server, setup_s = await _start(root, traced)
        setup_times.append(setup_s)
    try:
        cpu_before = server.cpu_s()
        began = time.perf_counter()
        outcomes = await offer(server.port, windows, OFFERED_WINDOWS_PER_S)
        wall_s = time.perf_counter() - began
        cpu_s = server.cpu_s() - cpu_before
        peak_rss_mb = server.peak_rss_mb()
    finally:
        tail = server.stop()
        killed += server.killed
    return {
        "outcomes": outcomes,
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "server_cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "tail": tail,
        "killed": killed,
    }


def measure(root: str, seed: int, seconds: float) -> Dict[str, object]:
    """Untraced run: end-to-end metrics of one open-loop phase."""
    windows = make_windows(seed, _window_count(seconds))
    phase = asyncio.run(_phase(root, windows, traced=False, setups=SETUPS))
    scored = score(windows, phase["outcomes"], reference_fixes(windows))
    latencies = scored["latencies_ms"]
    problems = _shutdown_problems(phase)
    if not scored["digest_ok"]:
        problems.append("fix digest differs from the in-process estimator "
                        "(%d windows)" % scored["mismatched"])
    if scored["failed"]:
        problems.append("%d windows failed" % scored["failed"])
    metrics = {
        "robot_s_per_wall_s": scored["on_time"] * PERIOD_S / scored["wall_s"],
        "loc_error_m": scored["loc_error_m"],
        "fix_latency_p50_ms": float(np.percentile(latencies, 50)),
        "fix_on_time_share": scored["on_time"] / len(windows),
        "setup_s": phase["setup_s"],
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    return {
        "metrics": metrics,
        "attempted": len(windows),
        "failed": scored["failed"],
        "problems": problems,
        "detail": {
            "offered_windows_per_s": OFFERED_WINDOWS_PER_S,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "fix_latency_samples": int(latencies.size),
            "fix_latency_p99_ms": float(np.percentile(latencies, 99)),
            "generator_lag_p99_ms": scored["lag_p99_ms"],
            "fix_digest": scored["digest"],
        },
    }


def measure_traced(root: str, seed: int, seconds: float) -> Dict[str, object]:
    """Traced run: an untraced phase, then the same load on a server
    started through ``serve_launcher.py``, which records the spans.
    Each phase offers half of ``seconds`` worth of windows."""
    windows = make_windows(seed, _window_count(seconds / 2.0))
    reference = reference_fixes(windows)
    plain = asyncio.run(_phase(root, windows, traced=False, setups=1))
    traced = asyncio.run(_phase(root, windows, traced=True, setups=1))
    problems = _shutdown_problems(plain) + _shutdown_problems(traced)
    plain_scored = score(windows, plain["outcomes"], reference)
    scored = score(windows, traced["outcomes"], reference)
    for label, result in (("untraced", plain_scored), ("traced", scored)):
        if not result["digest_ok"]:
            problems.append("%s: fix digest differs from the in-process "
                            "estimator" % label)
        if result["failed"]:
            problems.append("%s: %d windows failed" % (label, result["failed"]))
    report = _launcher_report(traced["tail"])
    metrics = dict(report["metrics"])
    metrics["trace_overhead_pct"] = 100.0 * (
        traced["server_cpu_s"] / plain["server_cpu_s"] - 1.0
    )
    metrics["bench.generator_lag_p99_ms"] = scored["lag_p99_ms"]
    metrics["fix_latency_p99_ms"] = float(
        np.percentile(plain_scored["latencies_ms"], 99)
    )
    metrics["fix_miss_share"] = 1.0 - scored["on_time"] / len(windows)
    metrics["core.estimator.fix_ratio"] = scored["fixed"] / len(windows)
    problems += report["problems"]
    return {
        "metrics": metrics,
        "attempted": 2 * len(windows),
        "failed": plain_scored["failed"] + scored["failed"],
        "problems": problems,
        "detail": {"fix_digest": scored["digest"]},
    }


def _shutdown_problems(phase: Dict[str, object]) -> List[str]:
    if phase["killed"]:
        return ["%d server(s) did not exit on SIGINT and were killed"
                % phase["killed"]]
    return []


def _launcher_report(stdout: bytes) -> Dict[str, object]:
    """The JSON report ``serve_launcher.py`` prints as its last line."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(b"{"):
            return json.loads(line)
    raise RuntimeError("traced server printed no report")
