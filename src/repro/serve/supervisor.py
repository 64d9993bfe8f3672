"""Shard supervision: restart dead workers, re-hydrate lost sessions.

A shard worker is a plain asyncio task, and a defect (or a chaos-harness
kill) can end it while the server keeps accepting connections — without
supervision every tenant routed to that shard would hang until their
client times out.  :class:`ShardSupervisor` watches one shard's worker
task and, on any *unexpected* death (an escaped exception, or a
cancellation that the shard did not initiate):

1. restarts the worker on the same queue — requests already queued are
   processed by the replacement, none are dropped;
2. re-hydrates any session the crash lost from its latest checkpoint
   (tenants are matched to the shard by the same stable hash the router
   uses, so a supervisor never resurrects another shard's tenant);
3. counts the event (``serve_shard_restarts``, ``serve_rehydrations``)
   so /metrics shows a flapping shard instead of hiding it.

An *expected* death — :meth:`~repro.serve.shard.Shard.stop` during
shutdown or drain — is ignored: supervision must never fight an orderly
exit.  The supervisor is deliberately synchronous and in-loop (a done
callback, not a polling task): restart latency is one event-loop step,
and there is no watchdog cadence to tune.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from repro.obs.oplog import OpsLog
from repro.serve.shard import Shard, shard_index_for
from repro.telemetry.registry import NULL_REGISTRY

__all__ = ["ShardSupervisor"]


class ShardSupervisor:
    """Watches one shard's worker task and revives it on crash.

    Args:
        shard: the supervised shard.
        n_shards: total shard count (tenant → shard routing for
            re-hydration).
        ops: structured ops-event log (:class:`~repro.obs.oplog.OpsLog`)
            — restarts and re-hydrations are exactly the events an
            operator pivots to from a slow trace.
        checkpoints: the server's
            :class:`~repro.serve.checkpoint.CheckpointStore`, or None
            (restart-only supervision: workers revive, lost sessions
            stay lost until a client resumes them).
        registry: telemetry registry.
    """

    def __init__(
        self,
        shard: Shard,
        n_shards: int,
        ops: OpsLog,
        checkpoints=None,
        registry=NULL_REGISTRY,
    ) -> None:
        self._shard = shard
        self._n_shards = n_shards
        self._checkpoints = checkpoints
        self._registry = registry
        self._ops = ops
        self._armed = False
        self.restarts = 0
        self.rehydrations = 0
        self.last_error: Optional[str] = None

    def arm(self) -> None:
        """Start watching the shard's current worker task."""
        self._armed = True
        self._watch(self._shard.worker_task)

    def disarm(self) -> None:
        """Stop supervising (orderly shutdown path)."""
        self._armed = False

    def _watch(self, task: Optional[asyncio.Task]) -> None:
        if task is not None:
            task.add_done_callback(self._on_worker_done)

    def _on_worker_done(self, task: asyncio.Task) -> None:
        if not self._armed or self._shard.stopping:
            return
        if task.cancelled():
            self.last_error = "cancelled"
        else:
            exc = task.exception()
            if exc is None:
                # A worker loop never returns; treat a clean return as
                # a crash too (the loop invariant was broken somehow).
                self.last_error = "returned"
            else:
                self.last_error = "%s: %s" % (type(exc).__name__, exc)
        self._revive()

    def _revive(self) -> None:
        shard = self._shard
        self.restarts += 1
        self._registry.counter("serve_shard_restarts").inc()
        self._ops.emit(
            "shard_restarted",
            shard=shard.index,
            restarts=self.restarts,
            error=self.last_error,
        )
        self._watch(shard.restart_worker())
        if self._checkpoints is None:
            return
        for tenant in self._checkpoints.tenants():
            if shard_index_for(tenant, self._n_shards) != shard.index:
                continue
            if tenant in shard.sessions:
                continue
            checkpoint = self._checkpoints.load_for_tenant(tenant)
            if checkpoint is None:
                continue
            try:
                shard.restore_session(checkpoint)
            except ValueError:
                # A stale checkpoint must not wedge the revive loop;
                # the tenant re-attaches via its own resume token.
                self._registry.counter("serve_resume_rejected").inc()
                continue
            self.rehydrations += 1
            self._registry.counter("serve_rehydrations").inc()
            self._ops.emit(
                "session_rehydrated",
                tenant=tenant,
                shard=shard.index,
                resume=checkpoint.fingerprint,
            )
