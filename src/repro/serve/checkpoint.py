"""Durable tenant-session checkpoints: the service's crash-recovery spine.

A :class:`SessionCheckpoint` is the complete picklable state of one
:class:`~repro.serve.session.TenantSession` — the hello that shaped it,
every robot lane (estimator snapshot, window counter, pending buffer)
and the idempotency reply cache — frozen at a request boundary.  The
session writes one on every window close, on TTL eviction and on
graceful drain, so the newest checkpoint is never more than one beacon
round behind the live state.

:class:`CheckpointStore` keeps two layers:

- an in-process map (always on) — what shard supervisors re-hydrate
  from after a worker crash, with zero deserialization cost;
- optionally the orchestrator's content-addressed
  :class:`~repro.orchestrator.cache.ResultCache` via its typed ``get``
  and its ``put`` — what survives a full process restart.  Checkpoint fingerprints are ``ckpt-``-prefixed
  SHA-256 digests of the session *identity* (tenant + estimator
  geometry + calibration identity), so successive checkpoints of one
  session overwrite each other and the latest always wins, while two
  tenants (or one tenant with a changed geometry) can never collide.

The fingerprint doubles as the wire-visible **resume token**: every
hello and checkpointing reply carries it, and a later
``hello {resume: <token>}`` re-hydrates the session from the newest
checkpoint it names.  What a resume token promises — and does not —
is documented in DESIGN.md's durability section.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.serve.protocol import HelloRequest
from repro.telemetry.registry import NULL_REGISTRY

__all__ = [
    "CHECKPOINT_PREFIX",
    "SESSION_IDENTITY",
    "SessionCheckpoint",
    "CheckpointStore",
    "checkpoint_fingerprint",
    "session_identity",
]

#: Prefix of every checkpoint fingerprint; no TeamResult fingerprint
#: (a bare SHA-256 hex digest) carries it.
CHECKPOINT_PREFIX = "ckpt-"

#: The hello fields that make a session's identity -- its calibration
#: identity and estimator geometry -- each with its label and encoding
#: in the checkpoint address.  Exact ``float.hex`` for the geometry, so
#: two geometries that differ in the last bit get distinct addresses.
SESSION_IDENTITY = (
    ("calibration_seed", "seed", int),
    ("calibration_samples", "samples", int),
    ("area_side_m", "area", lambda value: float(value).hex()),
    ("grid_resolution_m", "grid", lambda value: float(value).hex()),
    ("min_beacons_for_fix", "min", int),
)


def session_identity(hello: HelloRequest) -> Dict[str, Any]:
    """The identity fields of ``hello`` by name: what a checkpoint
    stores, and with a tenant, enough to rebuild the same session."""
    return {name: getattr(hello, name) for name, _, _ in SESSION_IDENTITY}


def checkpoint_fingerprint(hello: HelloRequest) -> str:
    """The checkpoint address (= resume token) of a session identity.

    Derived from the tenant name plus every :data:`SESSION_IDENTITY`
    field.  Prefixed so checkpoint payloads can never collide with
    TeamResult entries inside the shared orchestrator cache.
    """
    token = "checkpoint|tenant=%s" % hello.tenant + "".join(
        "|%s=%s" % (label, encode(getattr(hello, name)))
        for name, label, encode in SESSION_IDENTITY
    )
    return CHECKPOINT_PREFIX + hashlib.sha256(token.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SessionCheckpoint:
    """One tenant session, frozen at a request boundary.

    Attributes:
        fingerprint: the content address (= resume token).
        tenant: owning tenant.
        hello: the session's :func:`session_identity` (transport-only
            fields like ``rid`` are excluded).
        counters: the session's service counters.
        lanes: one mapping per robot lane — robot id, window counter,
            open flag, pending ``(seq, observation-fields)`` buffer and
            the estimator snapshot.
        replies: the idempotency reply cache as ``(rid, ok, error,
            payload)`` tuples, oldest first.  Restoring it together
            with the estimator state is what makes client retries
            exactly-once across a crash: a rid processed *after* this
            checkpoint is forgotten along with its effects, so the
            retry re-executes against exactly the state it first saw.
    """

    fingerprint: str
    tenant: str
    hello: Dict[str, Any]
    counters: Dict[str, int]
    lanes: List[Dict[str, Any]] = field(default_factory=list)
    replies: List[tuple] = field(default_factory=list)

    def hello_request(self) -> HelloRequest:
        """Rebuild the session-shaping hello this checkpoint captured."""
        return HelloRequest(tenant=self.tenant, **self.hello)


class CheckpointStore:
    """Latest-wins checkpoint storage, in-process plus optional disk.

    Args:
        cache: optional :class:`~repro.orchestrator.cache.ResultCache`;
            when given, every save is also persisted to it so sessions
            survive full process restarts.
        registry: telemetry registry (save/load/restore counters).
    """

    def __init__(self, cache=None, registry=NULL_REGISTRY) -> None:
        self._cache = cache
        self._registry = registry
        #: fingerprint -> newest checkpoint (in-process layer).
        self._memory: Dict[str, SessionCheckpoint] = {}
        #: tenant -> fingerprint of its newest checkpoint.
        self._latest: Dict[str, str] = {}

    def save(self, checkpoint: SessionCheckpoint) -> None:
        """Store ``checkpoint`` as its tenant's newest (best effort)."""
        self._memory[checkpoint.fingerprint] = checkpoint
        self._latest[checkpoint.tenant] = checkpoint.fingerprint
        self._registry.counter("serve_checkpoints_saved").inc()
        if self._cache is not None:
            self._cache.put(checkpoint.fingerprint, checkpoint)

    def load(self, fingerprint: str) -> Optional[SessionCheckpoint]:
        """The checkpoint at ``fingerprint``, or ``None``.

        The in-process layer answers first; a process that restarted
        falls through to the disk cache (typed lookup — a non-checkpoint
        payload at the address reads as a miss, never a crash).
        """
        checkpoint = self._memory.get(fingerprint)
        if checkpoint is None and self._cache is not None:
            checkpoint = self._cache.get(fingerprint, SessionCheckpoint)
            if checkpoint is not None:
                self._memory[fingerprint] = checkpoint
                self._latest[checkpoint.tenant] = fingerprint
        if checkpoint is not None:
            self._registry.counter("serve_checkpoints_loaded").inc()
        return checkpoint

    def load_for_tenant(self, tenant: str) -> Optional[SessionCheckpoint]:
        """The tenant's newest checkpoint known to this process."""
        fingerprint = self._latest.get(tenant)
        if fingerprint is None:
            return None
        return self.load(fingerprint)

    def forget(self, tenant: str) -> None:
        """Drop the tenant's checkpoint (explicit ``bye``)."""
        fingerprint = self._latest.pop(tenant, None)
        if fingerprint is not None:
            self._memory.pop(fingerprint, None)
            if self._cache is not None:
                self._cache.remove(fingerprint)

    def tenants(self) -> List[str]:
        """Tenants with a live checkpoint, sorted (deterministic)."""
        return sorted(self._latest)
