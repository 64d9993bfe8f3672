"""Shard workers: bounded queues, backpressure and session eviction.

Tenants are partitioned over a fixed set of shards by a **stable** hash
of the tenant name (SHA-256, never Python's randomized ``hash``), so a
tenant's requests always serialize through one shard worker — which is
what lets :class:`~repro.serve.session.TenantSession` stay lock-free.

Each shard runs one asyncio worker task draining a **bounded** queue:

- a full shard queue sheds new work immediately with an ``overloaded``
  error instead of queueing unboundedly (constant-cost rejection is the
  degradation mode, not latency collapse);
- a per-tenant in-flight cap sheds a single hot tenant *before* it can
  fill the shard queue and starve its neighbours (``tenant_overloaded``);
- a dedicated **sweeper task** periodically evicts sessions idle past
  the TTL (idleness measured on the injectable clock), so abandoned
  tenants cannot hold estimator grids forever — even on a shard that
  never goes quiet between requests.

Durability hooks: a shard given a
:class:`~repro.serve.checkpoint.CheckpointStore` checkpoints sessions
before evicting them, re-hydrates a session from its checkpoint when a
``hello`` carries a ``resume`` token, and exposes
:meth:`Shard.restore_session` / :meth:`Shard.restart_worker` for the
:class:`~repro.serve.supervisor.ShardSupervisor` to rebuild state after
a worker crash.

Every queue transition is counted in the server's telemetry registry;
``/metrics`` makes the pressure visible while the service runs.
"""

from __future__ import annotations

import asyncio
import hashlib
from typing import Callable, Dict, Optional

from repro.serve.protocol import (
    ByeRequest,
    HelloRequest,
    PingRequest,
    ProtocolError,
    Request,
    Response,
    error_response,
)
from repro.obs.oplog import OpsLog
from repro.serve.session import TenantSession
from repro.telemetry.registry import NULL_REGISTRY

__all__ = ["Shard", "shard_index_for"]


def shard_index_for(tenant: str, n_shards: int) -> int:
    """Stable tenant → shard mapping (identical across processes/runs)."""
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


class Shard:
    """One worker event loop owning a disjoint set of tenant sessions.

    Args:
        index: shard number (labels and stats).
        session_factory: builds a :class:`TenantSession` from a
            :class:`~repro.serve.protocol.HelloRequest` (the server
            injects the calibration store through this).
        queue_limit: bounded queue depth; submissions beyond it shed.
        tenant_inflight_limit: queued-request cap per tenant.
        session_ttl_s: idle seconds before a session is evicted
            (``0`` disables eviction).
        sweep_interval_s: how often the sweeper task looks for idle
            sessions to evict.
        ops: structured ops-event log (:class:`~repro.obs.oplog.OpsLog`)
            for eviction events.
        clock: monotonic time source for idle measurement (injectable
            for tests — eviction tests advance it instead of sleeping).
        registry: telemetry registry for queue/eviction counters.
        checkpoints: optional
            :class:`~repro.serve.checkpoint.CheckpointStore` enabling
            checkpoint-before-evict and resume-token re-hydration.

    The limits are not checked here: the server builds every shard from
    a :class:`~repro.serve.server.ServeConfig`, which checks them.
    """

    def __init__(
        self,
        index: int,
        session_factory: Callable[[HelloRequest], TenantSession],
        queue_limit: int,
        tenant_inflight_limit: int,
        session_ttl_s: float,
        sweep_interval_s: float,
        ops: OpsLog,
        clock: Optional[Callable[[], float]] = None,
        registry=NULL_REGISTRY,
        checkpoints=None,
    ) -> None:
        self.index = index
        self._session_factory = session_factory
        self._queue_limit = queue_limit
        self._tenant_limit = tenant_inflight_limit
        self._ttl_s = session_ttl_s
        self._sweep_s = sweep_interval_s
        self._clock = clock if clock is not None else _zero_clock
        self._registry = registry
        self._checkpoints = checkpoints
        self._ops = ops
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=queue_limit)
        self._inflight: Dict[str, int] = {}
        self.sessions: Dict[str, TenantSession] = {}
        self._worker: Optional[asyncio.Task] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._stopping = False
        self.processed = 0
        self.shed = 0
        self.evicted = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker and sweeper tasks (idempotent)."""
        loop = asyncio.get_running_loop()
        self._stopping = False
        if self._worker is None:
            self._worker = loop.create_task(self._run())
        if self._sweeper is None and self._ttl_s > 0:
            self._sweeper = loop.create_task(self._sweep_loop())

    @property
    def worker_task(self) -> Optional[asyncio.Task]:
        """The live worker task (the supervisor watches its death)."""
        return self._worker

    @property
    def stopping(self) -> bool:
        """True while an orderly stop/drain is in progress."""
        return self._stopping

    def restart_worker(self) -> asyncio.Task:
        """Replace a dead worker task with a fresh one.

        Called by the supervisor after an unexpected worker death; the
        queue and the surviving sessions are untouched — re-hydration
        of *lost* sessions is the supervisor's job.
        """
        self._worker = asyncio.get_running_loop().create_task(self._run())
        return self._worker

    async def stop(self) -> None:
        """Stop immediately: cancel the tasks and fail queued work."""
        self._stopping = True
        worker, self._worker = self._worker, None
        sweeper, self._sweeper = self._sweeper, None
        for task in (worker, sweeper):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                except Exception:
                    # A task that already died of its own exception
                    # re-raises it here; shutdown must still complete.
                    pass
        while not self._queue.empty():
            _request, future, _trace = self._queue.get_nowait()
            if not future.done():
                future.set_result(error_response("shutting_down"))
        # The failed futures above never reach the worker's decrement,
        # so drop the in-flight ledger with them: a later start() must
        # not shed tenants against counts from a previous life.
        self._inflight.clear()

    async def drain(self) -> int:
        """Graceful stop prelude: refuse new work, finish queued work,
        checkpoint every session.  Returns the checkpoint count.

        The shard keeps running (queries still answer) until
        :meth:`stop`; callers sequence ``drain() → stop()``.
        """
        self._stopping = True
        if self._worker is not None and not self._worker.done():
            # Only wait on the backlog while a worker exists to drain
            # it; with a dead worker the checkpoints are what matter.
            await self._queue.join()
        return self.checkpoint_all()

    def checkpoint_all(self) -> int:
        """Checkpoint every live session (eviction order: sorted)."""
        count = 0
        for tenant in sorted(self.sessions):
            if self.sessions[tenant].checkpoint_now() is not None:
                count += 1
        return count

    # -- submission ----------------------------------------------------------

    def submit(self, request: Request, trace=None) -> "asyncio.Future":
        """Enqueue one request; resolves to its :class:`Response`.

        Sheds (an immediately-resolved error future) when the shard
        queue or the tenant's in-flight budget is exhausted.  ``trace``
        is the request's :class:`~repro.obs.trace.ActiveTrace` (or
        ``None``): it rides the queue tuple so the worker can close the
        queue-wait span the moment it dequeues.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self._stopping:
            future.set_result(error_response("shutting_down"))
            return future
        tenant = getattr(request, "tenant", "")
        if self._inflight.get(tenant, 0) >= self._tenant_limit:
            self.shed += 1
            self._registry.counter("serve_shed_tenant").inc()
            future.set_result(error_response("tenant_overloaded"))
            return future
        try:
            self._queue.put_nowait((request, future, trace))
        except asyncio.QueueFull:
            self.shed += 1
            self._registry.counter("serve_shed_total").inc()
            future.set_result(error_response("overloaded"))
            return future
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._registry.gauge("serve_queue_depth_max").set_max(
            self._queue.qsize()
        )
        return future

    # -- worker --------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            request, future, trace = await self._queue.get()
            # handle() is synchronous, so a cancellation (shutdown, or a
            # chaos kill) can only land at the ``get`` await above — a
            # request's session mutation and its checkpoint are atomic
            # with respect to worker death.
            try:
                tenant = getattr(request, "tenant", "")
                remaining = self._inflight.get(tenant, 1) - 1
                if remaining > 0:
                    self._inflight[tenant] = remaining
                else:
                    self._inflight.pop(tenant, None)
                service_span = None
                if trace is not None:
                    # Queue wait ends, the worker's service slot begins.
                    service_span = trace.dequeued()
                    service_span.attrs["shard"] = self.index
                response = self.handle(request, trace=trace)
                if trace is not None:
                    trace.close_span(service_span)
                if not future.done():
                    future.set_result(response)
                self.processed += 1
            finally:
                self._queue.task_done()

    async def _sweep_loop(self) -> None:
        """Periodic idle-session eviction, independent of request flow.

        The *cadence* uses the event loop's timer (this is the service
        edge, outside the simulation's virtual-time contract); the
        *idleness measurement* inside :meth:`sweep_idle_sessions` uses
        the injectable clock, so tests advance time without sleeping.
        """
        while True:
            await asyncio.sleep(self._sweep_s)
            try:
                self.sweep_idle_sessions()
            except Exception as exc:
                # The sweeper has no supervisor: an uncaught error (say
                # a checkpoint store hiccup) would end TTL eviction for
                # the rest of the process and re-raise out of stop().
                # Count it, log it, keep sweeping.
                self._registry.counter("serve_sweeper_errors").inc()
                self._ops.emit(
                    "sweeper_error",
                    shard=self.index,
                    error="%s: %s" % (type(exc).__name__, exc),
                )

    def handle(self, request: Request, trace=None) -> Response:
        """Process one request synchronously (the worker's inner step).

        Exposed for the in-process client and unit tests; identical to
        what the worker task runs.
        """
        try:
            return self._dispatch(request, trace)
        except ProtocolError as exc:  # e.g. a hello too small to calibrate
            return error_response("bad_request", str(exc))
        except Exception as exc:  # service must outlive a bad request
            self._registry.counter("serve_errors_total").inc()
            return error_response("internal", "%s: %s" % (
                type(exc).__name__, exc,
            ))

    def _dispatch(self, request: Request, trace=None) -> Response:
        if isinstance(request, PingRequest):
            return Response(ok=True, payload={"pong": True,
                                              "shard": self.index})
        if isinstance(request, HelloRequest):
            session = self.sessions.get(request.tenant)
            if session is None:
                session = self._session_factory(request)
                restored = False
                if request.resume is not None:
                    restored = self._try_resume(session, request.resume)
                self.sessions[request.tenant] = session
                self._registry.counter("serve_sessions_created").inc()
                self._registry.gauge("serve_sessions_active").set_max(
                    len(self.sessions)
                )
                payload = {
                    "tenant": request.tenant,
                    "attached": False,
                    "shard": self.index,
                    "resume": session.resume_token,
                }
                if request.resume is not None:
                    payload["restored"] = restored
                return Response(ok=True, payload=payload)
            return session.handle(request, trace=trace)
        if isinstance(request, ByeRequest):
            session = self.sessions.pop(request.tenant, None)
            if session is None:
                return error_response("unknown_tenant")
            self._registry.gauge("serve_robots_active").add(
                -session.n_robots
            )
            if self._checkpoints is not None:
                # An explicit goodbye is a promise not to resume.
                self._checkpoints.forget(request.tenant)
            return Response(ok=True, payload=session.stats())
        session = self.sessions.get(request.tenant)
        if session is None:
            return error_response("unknown_tenant")
        return session.handle(request, trace=trace)

    def _try_resume(self, session: TenantSession, token: str) -> bool:
        """Re-hydrate ``session`` from the checkpoint a hello named.

        Best effort by design: an unknown token, a tenant mismatch or a
        geometry mismatch leaves the fresh session as-is (the client
        learns via ``restored: false`` and replays from its own log);
        resume must never turn into a request error for a tenant whose
        checkpoint simply aged out.
        """
        if self._checkpoints is None:
            return False
        checkpoint = self._checkpoints.load(token)
        if checkpoint is None:
            return False
        try:
            session.restore_from(checkpoint)
        except ValueError:
            self._registry.counter("serve_resume_rejected").inc()
            return False
        return True

    def restore_session(self, checkpoint) -> TenantSession:
        """Rebuild one tenant's session from its checkpoint (supervisor
        re-hydration path after a worker crash lost the live objects)."""
        session = self._session_factory(checkpoint.hello_request())
        session.restore_from(checkpoint)
        self.sessions[checkpoint.tenant] = session
        self._registry.gauge("serve_sessions_active").set_max(
            len(self.sessions)
        )
        return session

    # -- eviction ------------------------------------------------------------

    def sweep_idle_sessions(self) -> int:
        """Evict sessions idle past the TTL; returns the eviction count.

        Sessions are checkpointed before they are dropped (when a store
        is attached), so eviction is a memory-pressure decision, not
        data loss — a later resume-token hello continues the session.
        """
        if self._ttl_s <= 0 or not self.sessions:
            return 0
        now = self._clock()
        expired = [
            tenant
            for tenant, session in sorted(self.sessions.items())
            if session.idle_for(now) > self._ttl_s
        ]
        for tenant in expired:
            session = self.sessions.pop(tenant)
            token = session.checkpoint_now()
            self._registry.gauge("serve_robots_active").add(
                -session.n_robots
            )
            self.evicted += 1
            self._registry.counter("serve_sessions_evicted").inc()
            self._ops.emit(
                "session_evicted",
                tenant=tenant,
                shard=self.index,
                robots=session.n_robots,
                resume=token,
            )
        return len(expired)


def _zero_clock() -> float:
    return 0.0
