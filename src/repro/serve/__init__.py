"""repro.serve — streaming localization-as-a-service.

An asyncio server that accepts beacon-observation streams for many
independent tenants and serves position fixes from the same grid-Bayes
estimator the batch simulation uses — byte-identically (see
``tests/test_serve_replay.py`` and the DESIGN.md service section), and
keeps serving them across crashes, restarts and evictions
(``tests/test_serve_durability.py``, DESIGN.md durability section).

Layers, wire to core: :mod:`~repro.serve.protocol` (NDJSON framing,
rids, resume tokens), :mod:`~repro.serve.server` (TCP front end +
``/metrics`` ``/healthz`` ``/readyz``), :mod:`~repro.serve.shard`
(bounded worker queues, backpressure, eviction),
:mod:`~repro.serve.supervisor` (worker revival + re-hydration),
:mod:`~repro.serve.session` (per-tenant estimator state machines),
:mod:`~repro.serve.checkpoint` (durable session snapshots),
:mod:`~repro.serve.client` (reference clients, retry policy),
:mod:`~repro.serve.replay` (record/replay correctness gate) and
:mod:`~repro.serve.chaos` (deterministic fault-injection harness).
"""

from repro.serve.chaos import ChaosEvent, ChaosReport, ChaosSchedule, run_chaos
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
    ProtocolError,
    Request,
    Response,
    parse_request,
    parse_response,
)
from repro.serve.replay import (
    ReplayLog,
    diff_fixes,
    record_replay_log,
    replay_log,
)
from repro.serve.server import LocalizationServer, ServeConfig, ServiceCore
from repro.serve.session import (
    CalibrationStore,
    SessionLimits,
    TenantSession,
)
from repro.serve.shard import Shard, shard_index_for
from repro.serve.supervisor import ShardSupervisor

__all__ = [
    "ChaosEvent",
    "ChaosReport",
    "ChaosSchedule",
    "run_chaos",
    "CheckpointStore",
    "SessionCheckpoint",
    "checkpoint_fingerprint",
    "InProcessClient",
    "RetryPolicy",
    "ServeClient",
    "ServiceError",
    "TransportError",
    "ensure_ok",
    "ProtocolError",
    "Request",
    "Response",
    "parse_request",
    "parse_response",
    "ReplayLog",
    "diff_fixes",
    "record_replay_log",
    "replay_log",
    "LocalizationServer",
    "ServeConfig",
    "ServiceCore",
    "CalibrationStore",
    "SessionLimits",
    "TenantSession",
    "Shard",
    "shard_index_for",
    "ShardSupervisor",
]
