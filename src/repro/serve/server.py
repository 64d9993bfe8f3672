"""The streaming localization server: accept, route, degrade, expose.

Two layers:

- :class:`ServiceCore` is the transport-free heart — shards, sessions,
  the calibration-table store and the telemetry registry.  Tests
  and the in-process client drive it directly; the TCP front end is a
  thin shell around it.
- :class:`LocalizationServer` owns the socket: newline-delimited JSON
  request/response streams (pipelining allowed, responses in request
  order per connection) plus plain-HTTP ``GET /metrics`` (Prometheus
  exposition), ``GET /healthz`` (process liveness) and ``GET /readyz``
  (traffic readiness: started, not draining, every worker alive) — one
  port serves robots, scrapers and orchestration probes.

Backpressure stack, outermost first:

1. a slow *consumer* (not reading its responses) fills the bounded
   per-connection reply queue, which pauses that connection's reader —
   TCP flow control pushes back to the sender; nobody else is affected;
2. a hot *tenant* exhausts its per-tenant in-flight budget and gets
   ``tenant_overloaded`` rejections while its neighbours keep flowing;
3. a saturated *shard* sheds everything beyond its bounded queue with
   constant-cost ``overloaded`` replies rather than queueing latency.

Durability stack (``checkpointing`` on, the default): a
:class:`~repro.serve.checkpoint.CheckpointStore` shared by every shard
(persisted to disk when a checkpoint cache is given), one
:class:`~repro.serve.supervisor.ShardSupervisor` per shard reviving
dead workers and re-hydrating lost sessions, and a graceful
:meth:`ServiceCore.drain` that refuses new work, finishes queued work
and checkpoints every session before :meth:`ServiceCore.stop`.
"""

from __future__ import annotations

import asyncio
import resource
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    encode_response,
    error_response,
    parse_request,
)
from repro.obs.oplog import OpsLog
from repro.obs.trace import TRACE_MODES, RequestTracer, TraceConfig
from repro.serve.checkpoint import CheckpointStore
from repro.serve.session import CalibrationStore, TenantSession
from repro.serve.shard import Shard, shard_index_for
from repro.serve.supervisor import ShardSupervisor
from repro.telemetry.export import prometheus_text
from repro.telemetry.registry import DURATION_EDGES_S, MetricsRegistry

__all__ = ["ServeConfig", "ServiceCore", "LocalizationServer"]

#: Per-connection response backlog before the reader pauses
#: (slow-consumer backpressure).
REPLY_QUEUE_LIMIT = 128


@dataclass(frozen=True)
class ServeConfig:
    """Service deployment knobs.

    Attributes:
        host: bind address.
        port: bind port (0 = ephemeral, reported after start).
        n_shards: worker event loops; tenants hash-partition over them.
        queue_limit: bounded request-queue depth per shard.
        tenant_inflight_limit: queued requests one tenant may hold in
            its shard before being shed.
        session_ttl_s: idle seconds before a tenant session is evicted
            (0 disables eviction).
        sweep_interval_s: idle-eviction sweep cadence per shard.
        checkpointing: checkpoint sessions on window close / eviction /
            drain and re-hydrate them after crashes (see
            :mod:`repro.serve.checkpoint`).  Off = the pre-durability
            behaviour: a crash or eviction loses the session.
        supervise: revive dead shard workers automatically.
        trace_mode: request tracing — ``off``, ``sampled`` (head-sample
            one request in ``trace_sample_every`` plus every request
            slower than ``trace_slow_ms``; the always-on-cheap default)
            or ``always`` (keep every trace; benchmarks and chaos
            forensics).  Tracing never touches science payloads — the
            replay gate proves byte-identity in every mode.
        trace_sample_every: head-sampling period in ``sampled`` mode.
        trace_slow_ms: tail-sampling latency threshold (ms) in
            ``sampled`` mode.
    """

    host: str = "127.0.0.1"
    port: int = 0
    n_shards: int = 4
    queue_limit: int = 256
    tenant_inflight_limit: int = 32
    session_ttl_s: float = 300.0
    sweep_interval_s: float = 1.0
    checkpointing: bool = True
    supervise: bool = True
    trace_mode: str = "sampled"
    trace_sample_every: int = 128
    trace_slow_ms: float = 25.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.trace_mode not in TRACE_MODES:
            raise ValueError(
                "trace_mode must be one of %r" % (TRACE_MODES,)
            )

    def trace_config(self) -> TraceConfig:
        """The knobs as an :class:`~repro.obs.trace.TraceConfig`."""
        return TraceConfig(
            mode=self.trace_mode,
            head_sample_every=self.trace_sample_every,
            slow_ms=self.trace_slow_ms,
        )


class ServiceCore:
    """Routing core: shards, sessions, calibration store, telemetry.

    Args:
        config: deployment knobs.
        registry: telemetry registry (a fresh one by default; the
            ``/metrics`` endpoint renders it).
        checkpoint_cache: optional
            :class:`~repro.orchestrator.cache.ResultCache` that persists
            session checkpoints across process restarts.
        clock: monotonic time source shared by shards and sessions
            (injectable so TTL tests never sleep).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        checkpoint_cache=None,
        clock=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock if clock is not None else time.monotonic
        # Wall-clock observability (repro.obs) — outside the sim core's
        # virtual-time contract, inert toward science payloads.
        self.tracer = RequestTracer(
            self.config.trace_config(), registry=self.registry
        )
        self.ops = OpsLog()
        self.calibrations = CalibrationStore(registry=self.registry)
        # Checkpoints persist through the cache when one is given
        # (``ckpt-`` addresses, typed loads), so they survive a restart.
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore(cache=checkpoint_cache, registry=self.registry)
            if self.config.checkpointing
            else None
        )
        self.shards: List[Shard] = [
            Shard(
                index=i,
                session_factory=self._build_session,
                queue_limit=self.config.queue_limit,
                tenant_inflight_limit=self.config.tenant_inflight_limit,
                session_ttl_s=self.config.session_ttl_s,
                sweep_interval_s=self.config.sweep_interval_s,
                clock=self._clock,
                registry=self.registry,
                checkpoints=self.checkpoints,
                ops=self.ops,
            )
            for i in range(self.config.n_shards)
        ]
        self.supervisors: List[ShardSupervisor] = [
            ShardSupervisor(
                shard,
                n_shards=self.config.n_shards,
                checkpoints=self.checkpoints,
                registry=self.registry,
                ops=self.ops,
            )
            for shard in self.shards
        ] if self.config.supervise else []
        self._started = False
        self._draining = False

    def _build_session(self, hello) -> TenantSession:
        return TenantSession(
            hello,
            table=self.calibrations.table_for(hello),
            clock=self._clock,
            registry=self.registry,
            checkpoints=self.checkpoints,
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every shard worker (requires a running event loop)."""
        if self._started:
            return
        for shard in self.shards:
            shard.start()
        for supervisor in self.supervisors:
            supervisor.arm()
        self._started = True
        self._draining = False

    async def drain(self) -> int:
        """Graceful-stop prelude: shed new work, finish queued work,
        checkpoint every session.  Returns total checkpoints written.

        Safe to call more than once; :meth:`stop` still performs the
        actual teardown.
        """
        self._draining = True
        for supervisor in self.supervisors:
            supervisor.disarm()
        flushed = 0
        for shard in self.shards:
            flushed += await shard.drain()
        self.registry.counter("serve_drains_total").inc()
        return flushed

    async def stop(self) -> None:
        for supervisor in self.supervisors:
            supervisor.disarm()
        for shard in self.shards:
            await shard.stop()
        self._started = False

    # -- health --------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def healthy(self) -> bool:
        """Process liveness: the core object is intact (``/healthz``)."""
        return True

    def ready(self) -> bool:
        """Traffic readiness: started, not draining, workers alive."""
        if not self._started or self._draining:
            return False
        return all(
            shard.worker_task is not None and not shard.worker_task.done()
            for shard in self.shards
        )

    # -- routing -------------------------------------------------------------

    def shard_for(self, tenant: str) -> Shard:
        return self.shards[shard_index_for(tenant, len(self.shards))]

    def submit(self, request: Request) -> "asyncio.Future":
        """Route one request to its tenant's shard (may shed).

        Returns a future resolving to the :class:`Response`; latency
        from submission to resolution lands in the
        ``serve_request_latency_s`` histogram.
        """
        future, _trace_id = self.submit_traced(request)
        return future

    def submit_traced(self, request: Request):
        """:meth:`submit`, also returning the trace id to echo.

        The id is the request's own ``trace`` when the client stamped
        one (echoed even with tracing off — correlation must not depend
        on server sampling), a server-minted id when tracing is on, and
        ``None`` otherwise.  The root span opens here and closes on the
        future's resolution; the sampling keep/drop decision happens at
        that close (see :meth:`~repro.obs.trace.RequestTracer.finish`).
        """
        self.registry.counter("serve_requests_total").inc()
        started = self._clock()
        active = self.tracer.begin(request)
        trace_id = (
            active.trace_id if active is not None
            else getattr(request, "trace", None)
        )
        future = self.shard_for(getattr(request, "tenant", "")).submit(
            request, trace=active
        )
        histogram = self.registry.histogram(
            "serve_request_latency_s", DURATION_EDGES_S
        )
        tracer = self.tracer

        def _observe(done: "asyncio.Future") -> None:
            if done.cancelled():
                return
            histogram.observe(self._clock() - started)
            if active is not None:
                response = (
                    done.result() if done.exception() is None else None
                )
                tracer.finish(active, response)

        future.add_done_callback(_observe)
        return future, trace_id

    async def handle(self, request: Request) -> Response:
        """Submit and await one request (the in-process client path)."""
        return await self.submit(request)

    # -- observability -------------------------------------------------------

    def metrics_text(self) -> str:
        """The registry in Prometheus exposition format."""
        self._refresh_gauges()
        return prometheus_text(self.registry)

    def _refresh_gauges(self) -> None:
        sessions = [
            session
            for shard in self.shards
            for session in shard.sessions.values()
        ]
        robots = sum(session.n_robots for session in sessions)
        self.registry.gauge("serve_sessions_active").set(len(sessions))
        self.registry.gauge("serve_robots_active").set(robots)
        self.registry.gauge("serve_robots_active_peak").set_max(robots)
        self.registry.gauge("serve_shards").set(len(self.shards))
        # Lanes holding a posterior grid: the open windows (a closed
        # lane is parked).
        self.registry.gauge("serve_lane_grids_live").set(
            sum(session.grids_live for session in sessions)
        )
        # ru_maxrss is KiB on Linux and bytes on macOS; reading it is a
        # syscall, not file I/O, so the scrape stays loop-safe.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform != "darwin":
            peak *= 1024
        self.registry.gauge("serve_process_peak_rss_bytes").set(peak)

    def stats(self) -> Dict[str, float]:
        """Flat service counters (CLI summaries, tests)."""
        self._refresh_gauges()
        out = dict(self.registry.metrics())
        out["serve_shed_total_all"] = float(
            sum(shard.shed for shard in self.shards)
        )
        out["serve_processed_total"] = float(
            sum(shard.processed for shard in self.shards)
        )
        return out


class LocalizationServer:
    """The TCP front end: NDJSON request streams plus HTTP ``/metrics``.

    Args:
        core: the routing core (one core per server).
    """

    def __init__(self, core: ServiceCore) -> None:
        self.core = core
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> Optional[int]:
        """The bound port once started (resolves ``port=0`` binds)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the socket and start the shard workers."""
        if self._server is not None:
            return
        self.core.start()
        config = self.core.config
        self._server = await asyncio.start_server(
            self._handle_connection, host=config.host, port=config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.core.stop()

    async def drain(self) -> int:
        """Graceful shutdown: close the listener (existing connections
        finish their in-flight requests), flush checkpoints, stop.
        Returns the checkpoints written."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        flushed = await self.core.drain()
        await self.core.stop()
        return flushed

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = self.core.registry
        registry.counter("serve_connections_total").inc()
        replies: "asyncio.Queue" = asyncio.Queue(maxsize=REPLY_QUEUE_LIMIT)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_replies(replies, writer)
        )
        try:
            await self._read_requests(reader, writer, replies)
        finally:
            await replies.put(None)  # sentinel: flush and stop
            try:
                await writer_task
            except Exception:
                pass
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_requests(self, reader, writer, replies) -> None:
        first = True
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not line:
                return
            if first and line.startswith(b"GET "):
                await self._serve_http(line, reader, writer)
                return
            first = False
            stripped = line.strip()
            if not stripped:
                continue
            try:
                request = parse_request(stripped)
            except ProtocolError as exc:
                self.core.registry.counter("serve_protocol_errors").inc()
                done = asyncio.get_running_loop().create_future()
                done.set_result(error_response("bad_request", str(exc)))
                await replies.put((done, None))
                continue
            # Bounded reply queue: when the consumer stops reading its
            # responses this put blocks, pausing the reader — TCP
            # backpressure all the way to the sender.
            await replies.put(self.core.submit_traced(request))

    async def _write_replies(self, replies, writer) -> None:
        """Write replies in request order, one socket write per run of
        ready replies.

        Every queued reply whose future has already resolved joins the
        current batch; the batch goes out with one ``write`` and one
        ``drain`` before the writer blocks, whether on an empty queue or
        on a reply still being computed, so a ready reply never waits
        behind an unresolved one.
        """
        batch: List[bytes] = []
        while True:
            if batch and replies.empty():
                if not await self._flush(writer, batch):
                    return
            item = await replies.get()
            if item is None:
                if batch:
                    await self._flush(writer, batch)
                return
            pending, trace_id = item
            if batch and not pending.done():
                if not await self._flush(writer, batch):
                    return
            response = await pending
            # The trace id is spliced onto the wire line here, never
            # onto the Response: cached replies are shared across
            # retries that carry different trace ids.
            batch.append(
                encode_response(response, trace=trace_id)
                .encode("utf-8") + b"\n"
            )

    @staticmethod
    async def _flush(writer, batch: List[bytes]) -> bool:
        """Send and clear ``batch``; False once the peer is gone."""
        try:
            writer.write(b"".join(batch))
            batch.clear()
            await writer.drain()
        except (ConnectionError, RuntimeError):
            return False
        return True

    # -- HTTP scrape ---------------------------------------------------------

    async def _serve_http(self, first_line: bytes, reader, writer) -> None:
        """Answer one HTTP request and close.

        Routes: ``/metrics`` (Prometheus exposition), ``/healthz``
        (liveness: 200 while the process can answer at all) and
        ``/readyz`` (readiness: 200 only while started, not draining
        and every shard worker is alive — 503 otherwise, which is how
        an orchestrator parks traffic during drain or a revive).
        """
        try:
            while True:  # drain the header block
                header = await asyncio.wait_for(reader.readline(), timeout=2.0)
                if header in (b"\r\n", b"\n", b""):
                    break
        except (asyncio.TimeoutError, ConnectionError):
            return
        parts = first_line.decode("latin-1").split()
        path = parts[1] if len(parts) >= 2 else "/"
        ctype = b"Content-Type: text/plain\r\n"
        if path in ("/metrics", "/metrics/"):
            self.core.registry.counter("serve_http_scrapes").inc()
            body = self.core.metrics_text().encode("utf-8")
            status = b"HTTP/1.1 200 OK\r\n"
            ctype = b"Content-Type: text/plain; version=0.0.4\r\n"
        elif path in ("/healthz", "/healthz/"):
            self.core.registry.counter("serve_health_probes").inc()
            body = b"ok\n" if self.core.healthy() else b"unhealthy\n"
            status = (b"HTTP/1.1 200 OK\r\n" if self.core.healthy()
                      else b"HTTP/1.1 503 Service Unavailable\r\n")
        elif path in ("/readyz", "/readyz/"):
            self.core.registry.counter("serve_ready_probes").inc()
            if self.core.ready():
                body, status = b"ready\n", b"HTTP/1.1 200 OK\r\n"
            else:
                body = (b"draining\n" if self.core.draining
                        else b"not ready\n")
                status = b"HTTP/1.1 503 Service Unavailable\r\n"
        else:
            body = b"paths served here: /metrics /healthz /readyz\n"
            status = b"HTTP/1.1 404 Not Found\r\n"
        try:
            writer.write(
                status + ctype
                + b"Content-Length: %d\r\n" % len(body)
                + b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except ConnectionError:
            pass
