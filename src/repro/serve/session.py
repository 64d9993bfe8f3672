"""Per-tenant estimator sessions and the warm-start calibration store.

A :class:`TenantSession` owns one tenant's live localization state: one
RF-only :class:`~repro.core.estimator.PositionEstimator` per robot, fed
through the estimator's ingestion surface exactly as the batch
coordinator feeds it.  Sessions are synchronous, single-owner objects —
each one lives inside exactly one shard worker (see
:mod:`repro.serve.shard`), so they need no locks.

Determinism contract (regression-tested in ``tests/test_serve_replay.py``):

- observations buffer per (robot, window) and are applied **sorted by
  their source sequence number** at window close, so any delivery order
  within a window produces the same filter-application order — the one
  the batch simulation used;
- the estimator is built with every graceful-degradation defense off
  (matching :class:`~repro.core.config.DefenseConfig` defaults) and the
  same grid geometry / PDF table / LUT setting as the recording run;
- observations arriving while no window is open are acknowledged but
  never applied: in the batch path such beacons land in a filter that
  the next window-open resets before any fix reads it, so dropping
  them is fix-equivalent (and keeps a session's memory bounded).

Durability (regression-tested in ``tests/test_serve_durability.py``):
a session given a :class:`~repro.serve.checkpoint.CheckpointStore`
writes a full :meth:`TenantSession.snapshot` on every window close (and
on eviction/drain via :meth:`TenantSession.checkpoint_now`), and a
session re-built from one via :meth:`TenantSession.restore_from`
continues bit-identically.  The rid **reply cache** makes client
retries idempotent; it deliberately caches only *ok, state-mutating*
replies (window opens/closes, and observes that actually buffered) —
never errors and never no-op acks — so a whole-window retry with the
original rids is safe against every crash interleaving: a replayed
request that mutated state returns its original reply, and one that
never executed (or whose effect a checkpoint restore rolled back, which
also rolls back the cache) simply executes again.

Calibration tables are a property of the radio hardware, not the
tenant, and cost ~1 s to build at paper fidelity — so
:class:`CalibrationStore` shares them across tenants in-process and
warm-starts them from the orchestrator's content-addressed cache
(:meth:`~repro.orchestrator.cache.ResultCache.get_payload`) across
processes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import build_pdf_table
from repro.core.config import LocalizationMode
from repro.core.estimator import BeaconObservation, PositionEstimator
from repro.core.pdf_table import PdfTable
from repro.kernels import resolve_kernels
from repro.net.phy import PathLossModel, ReceiverModel
from repro.serve.checkpoint import SessionCheckpoint, checkpoint_fingerprint
from repro.serve.protocol import (
    ConfidenceRequest,
    FixRequest,
    HelloRequest,
    ObserveRequest,
    Response,
    StatsRequest,
    WindowRequest,
    error_response,
)
from repro.sim.rng import RandomStreams
from repro.telemetry.registry import NULL_REGISTRY
from repro.util.geometry import Rect

__all__ = [
    "SessionLimits",
    "TenantSession",
    "CalibrationStore",
    "calibration_fingerprint",
]


class SessionLimits:
    """Graceful-degradation knobs for one session.

    Attributes:
        max_robots: robots one tenant may track (further window-opens
            are refused with ``robot_limit``).
        max_pending_observations: buffered observations per robot per
            window; overflow is dropped and counted, never queued
            unboundedly.
        reply_cache_size: cached ``(rid, reply)`` pairs kept for
            idempotent retries; oldest entries fall out first.  It only
            needs to cover one client's retry horizon (one in-flight
            window), so it stays small.
    """

    __slots__ = ("max_robots", "max_pending_observations", "reply_cache_size")

    def __init__(
        self,
        max_robots: int = 256,
        max_pending_observations: int = 1024,
        reply_cache_size: int = 256,
    ) -> None:
        if max_robots < 1 or max_pending_observations < 1:
            raise ValueError("session limits must be >= 1")
        if reply_cache_size < 1:
            raise ValueError("session limits must be >= 1")
        self.max_robots = max_robots
        self.max_pending_observations = max_pending_observations
        self.reply_cache_size = reply_cache_size


class _RobotLane:
    """One robot's window state inside a session."""

    __slots__ = ("estimator", "window", "window_open", "pending")

    def __init__(self, estimator: PositionEstimator) -> None:
        self.estimator = estimator
        self.window = 0
        self.window_open = False
        #: (seq, observation) buffered for the current window.
        self.pending: List[Tuple[int, BeaconObservation]] = []


class TenantSession:
    """One tenant's estimator state machine.

    Args:
        hello: the session-opening request (geometry + calibration id).
        table: the tenant's calibrated PDF table (shared, never mutated
            here).
        limits: per-tenant degradation limits.
        clock: monotonic time source for idle tracking (injectable so
            eviction tests never sleep).
        registry: telemetry registry for service-level counters.
        checkpoints: optional
            :class:`~repro.serve.checkpoint.CheckpointStore`; when
            given, the session checkpoints itself on every window close
            (and callers checkpoint it on eviction/drain).
    """

    def __init__(
        self,
        hello: HelloRequest,
        table: PdfTable,
        limits: Optional[SessionLimits] = None,
        clock: Optional[Callable[[], float]] = None,
        registry=NULL_REGISTRY,
        checkpoints=None,
    ) -> None:
        self.tenant = hello.tenant
        self.hello = hello
        self._table = table
        self._limits = limits if limits is not None else SessionLimits()
        self._clock = clock if clock is not None else _ZERO_CLOCK
        self._registry = registry
        self._checkpoints = checkpoints
        self._area = Rect.square(hello.area_side_m)
        self._lanes: Dict[int, _RobotLane] = {}
        #: robot -> its record in the last snapshot; lanes untouched
        #: since then reuse it, so a checkpoint costs one estimator
        #: snapshot (the lane the request mutated), not one per robot.
        self._lane_records: Dict[int, Dict[str, object]] = {}
        self._dirty_lanes: set = set()
        #: rid -> reply, oldest first (idempotent-retry cache).
        self._replies: "OrderedDict[int, Response]" = OrderedDict()
        self.resume_token = checkpoint_fingerprint(hello)
        self.last_active = self._clock()
        # Session counters (also served by the ``stats`` op).
        self.observations = 0
        self.observations_dropped = 0
        self.observations_out_of_window = 0
        self.windows_opened = 0
        self.windows_closed = 0
        self.fixes = 0
        self.replays_served = 0

    # -- state ---------------------------------------------------------------

    @property
    def n_robots(self) -> int:
        return len(self._lanes)

    def idle_for(self, now: float) -> float:
        """Seconds since the last request touched this session."""
        return max(0.0, now - self.last_active)

    def _lane_for(self, robot: int, create: bool) -> Optional[_RobotLane]:
        lane = self._lanes.get(robot)
        if lane is None and create:
            if len(self._lanes) >= self._limits.max_robots:
                return None
            estimator = PositionEstimator(
                mode=LocalizationMode.RF_ONLY,
                area=self._area,
                pdf_table=self._table,
                grid_resolution_m=self.hello.grid_resolution_m,
                min_beacons_for_fix=self.hello.min_beacons_for_fix,
            )
            lane = self._lanes[robot] = _RobotLane(estimator)
            robots = self._registry.gauge("serve_robots_active")
            robots.add(1)
            self._registry.gauge("serve_robots_active_peak").set_max(
                robots.value
            )
        return lane

    # -- request handling ----------------------------------------------------

    def handle(self, request, trace=None) -> Response:
        """Dispatch one already-validated request for this tenant.

        A request whose ``rid`` is already in the reply cache is a
        client retry of work this session has performed: the original
        reply comes back verbatim and nothing is re-executed.

        ``trace`` is the request's
        :class:`~repro.obs.trace.ActiveTrace` (or ``None``); window
        closes record ``estimator_ingest`` and ``checkpoint`` hops on
        it.  Tracing never changes what this method returns.
        """
        self.last_active = self._clock()
        rid = getattr(request, "rid", None)
        if rid is not None:
            cached = self._replies.get(rid)
            if cached is not None:
                self.replays_served += 1
                self._registry.counter("serve_replays_served").inc()
                if trace is not None:
                    trace.root.attrs["replayed"] = True
                return cached
        response = self._dispatch(request, trace)
        if rid is not None and _mutated_state(request, response):
            self._replies[rid] = response
            while len(self._replies) > self._limits.reply_cache_size:
                self._replies.popitem(last=False)
        return response

    def _dispatch(self, request, trace=None) -> Response:
        if isinstance(request, ObserveRequest):
            return self._observe(request)
        if isinstance(request, WindowRequest):
            if request.event == "open":
                return self._window_open(request)
            return self._window_close(request, trace)
        if isinstance(request, FixRequest):
            return self._fix(request)
        if isinstance(request, ConfidenceRequest):
            return self._confidence(request)
        if isinstance(request, StatsRequest):
            return Response(ok=True, payload=self.stats())
        if isinstance(request, HelloRequest):
            # Re-hello on a live session: idempotent attach.
            return Response(ok=True, payload={"tenant": self.tenant,
                                              "attached": True,
                                              "resume": self.resume_token})
        return error_response("bad_request", "unhandled op for session")

    def _window_open(self, request: WindowRequest) -> Response:
        lane = self._lane_for(request.robot, create=True)
        if lane is None:
            return error_response(
                "robot_limit",
                "tenant tracks %d robots already" % self._limits.max_robots,
            )
        if lane.pending:
            # Stale buffer from a window that never closed: those
            # observations could no longer influence any fix (the open
            # resets the filter), so drop rather than grow.
            self.observations_dropped += len(lane.pending)
            lane.pending.clear()
        lane.window += 1
        lane.window_open = True
        self._dirty_lanes.add(request.robot)
        lane.estimator.on_window_open()
        self.windows_opened += 1
        self._registry.counter("serve_windows_opened").inc()
        return Response(ok=True, payload={"window": lane.window})

    def _observe(self, request: ObserveRequest) -> Response:
        lane = self._lane_for(request.robot, create=False)
        if lane is None or not lane.window_open:
            # Mirrors the batch path: a beacon landing outside a round
            # is wiped by the next window-open's filter reset before
            # any fix can read it, so it is acknowledged and discarded.
            self.observations_out_of_window += 1
            return Response(ok=True, payload={"buffered": False})
        if len(lane.pending) >= self._limits.max_pending_observations:
            self.observations_dropped += 1
            self._registry.counter("serve_observations_dropped").inc()
            return error_response("pending_limit")
        self._dirty_lanes.add(request.robot)
        lane.pending.append((
            request.seq,
            BeaconObservation(
                x=request.x,
                y=request.y,
                rssi_dbm=request.rssi_dbm,
                anchor_id=request.anchor_id,
                t=request.t,
            ),
        ))
        self.observations += 1
        self._registry.counter("serve_observations_total").inc()
        return Response(ok=True, payload={"buffered": True})

    def _window_close(self, request: WindowRequest, trace=None) -> Response:
        lane = self._lane_for(request.robot, create=False)
        if lane is None or not lane.window_open:
            return error_response("no_open_window")
        if (request.expected is not None
                and len(lane.pending) != request.expected):
            # Completeness guard: a crash-and-rehydrate mid-retry can
            # silently roll the pending buffer back to an older
            # checkpoint *between* a client's observes.  Refusing to
            # close (with no state change — this reply is never cached)
            # turns that silent divergence into a retryable error; the
            # client re-sends the window and already-buffered rids
            # dedup through the reply cache.
            return error_response(
                "window_incomplete",
                "close expected %d buffered observations, found %d"
                % (request.expected, len(lane.pending)),
            )
        estimator = lane.estimator
        fixes_before = estimator.fixes
        self._dirty_lanes.add(request.robot)
        ingest_span = (
            trace.open_span(
                "estimator_ingest",
                robot=request.robot, pending=len(lane.pending),
            )
            if trace is not None else None
        )
        # Source order, not arrival order: this is the determinism hinge.
        lane.pending.sort(key=lambda item: item[0])
        for _seq, observation in lane.pending:
            estimator.ingest_observation(observation)
        applied = len(lane.pending)
        lane.pending.clear()
        estimator.on_window_close()
        if trace is not None:
            trace.close_span(ingest_span)
        lane.window_open = False
        self.windows_closed += 1
        self._registry.counter("serve_windows_closed").inc()
        fixed = estimator.fixes > fixes_before
        payload = {
            "window": lane.window,
            "applied": applied,
            "fixed": fixed,
            "fixes": estimator.fixes,
        }
        if fixed:
            self.fixes += 1
            self._registry.counter("serve_fixes_total").inc()
            payload.update(_fix_fields(estimator))
        response = Response(ok=True, payload=payload)
        if self._checkpoints is not None:
            # Cache the reply *before* snapshotting so the checkpoint's
            # reply cache covers this close: a client that retries it
            # after a crash-and-restore gets this reply, not a re-close.
            if request.rid is not None:
                self._replies[request.rid] = response
                while len(self._replies) > self._limits.reply_cache_size:
                    self._replies.popitem(last=False)
            if trace is not None:
                with trace.hop("checkpoint", robot=request.robot):
                    self.checkpoint_now()
            else:
                self.checkpoint_now()
        return response

    def _fix(self, request: FixRequest) -> Response:
        lane = self._lane_for(request.robot, create=False)
        if lane is None:
            return error_response("unknown_robot")
        estimator = lane.estimator
        self._registry.counter("serve_fix_queries").inc()
        payload = {
            "has_fix": estimator.has_fix,
            "fixes": estimator.fixes,
            "window": lane.window,
        }
        payload.update(_fix_fields(estimator))
        return Response(ok=True, payload=payload)

    def _confidence(self, request: ConfidenceRequest) -> Response:
        lane = self._lane_for(request.robot, create=False)
        if lane is None:
            return error_response("unknown_robot")
        estimator = lane.estimator
        self._registry.counter("serve_confidence_queries").inc()
        payload = {
            "beacons_applied": estimator.filter.beacons_applied,
            "std_m": estimator.filter.position_std_m(),
            "entropy_bits": estimator.filter.entropy_bits(),
            "has_fix": estimator.has_fix,
        }
        if estimator.last_fix_std_m is not None:
            payload["last_fix_std_m"] = estimator.last_fix_std_m
        return Response(ok=True, payload=payload)

    def stats(self) -> Dict[str, object]:
        """The session's counters (the ``stats`` op payload)."""
        return {
            "tenant": self.tenant,
            "robots": self.n_robots,
            "observations": self.observations,
            "observations_dropped": self.observations_dropped,
            "observations_out_of_window": self.observations_out_of_window,
            "windows_opened": self.windows_opened,
            "windows_closed": self.windows_closed,
            "fixes": self.fixes,
            "replays_served": self.replays_served,
        }

    # -- checkpointing -------------------------------------------------------

    def checkpoint_now(self) -> Optional[str]:
        """Write a checkpoint if a store is attached; the resume token.

        Called from :meth:`_window_close` (every close), from the shard
        on TTL eviction, and from the server's graceful drain.  The
        whole method is synchronous — it runs inside the shard worker's
        single-owner ``handle`` slot, so a checkpoint can never observe
        a half-applied window.
        """
        if self._checkpoints is None:
            return None
        self._checkpoints.save(self.snapshot())
        return self.resume_token

    def snapshot(self) -> SessionCheckpoint:
        """The session's complete state, frozen at this request boundary."""
        hello = self.hello
        lanes = []
        for robot in sorted(self._lanes):
            record = self._lane_records.get(robot)
            if record is None or robot in self._dirty_lanes:
                # Only re-snapshot lanes a request touched since the
                # last snapshot; everyone else's record is still exact
                # (records are immutable once built — the estimator
                # snapshot copies its arrays, and restore copies them
                # back out — so sharing them across checkpoints is
                # safe).
                lane = self._lanes[robot]
                record = {
                    "robot": robot,
                    "window": lane.window,
                    "window_open": lane.window_open,
                    "pending": [
                        (seq, {
                            "x": obs.x,
                            "y": obs.y,
                            "rssi_dbm": obs.rssi_dbm,
                            "anchor_id": obs.anchor_id,
                            "t": obs.t,
                        })
                        for seq, obs in lane.pending
                    ],
                    "estimator": lane.estimator.snapshot(),
                }
                self._lane_records[robot] = record
            lanes.append(record)
        self._dirty_lanes.clear()
        return SessionCheckpoint(
            fingerprint=self.resume_token,
            tenant=self.tenant,
            hello={
                "calibration_seed": hello.calibration_seed,
                "calibration_samples": hello.calibration_samples,
                "area_side_m": hello.area_side_m,
                "grid_resolution_m": hello.grid_resolution_m,
                "min_beacons_for_fix": hello.min_beacons_for_fix,
                "lut": hello.lut,
            },
            lanes=lanes,
            counters={
                "observations": self.observations,
                "observations_dropped": self.observations_dropped,
                "observations_out_of_window":
                    self.observations_out_of_window,
                "windows_opened": self.windows_opened,
                "windows_closed": self.windows_closed,
                "fixes": self.fixes,
                "replays_served": self.replays_served,
            },
            replies=[
                (rid, reply.ok, reply.error, dict(reply.payload))
                for rid, reply in self._replies.items()
            ],
        )

    def restore_from(self, checkpoint: SessionCheckpoint) -> None:
        """Adopt a checkpoint's state (bit-exact resume).

        The session must have been built from the same hello identity —
        the estimator snapshots carry a grid-signature guard, so a
        geometry mismatch raises instead of silently resampling.

        Raises:
            ValueError: the checkpoint belongs to a different tenant or
                a different estimator geometry.
        """
        if checkpoint.tenant != self.tenant:
            raise ValueError(
                "checkpoint tenant %r does not match session %r"
                % (checkpoint.tenant, self.tenant)
            )
        # Adopted state invalidates every cached lane record (restore
        # may roll lanes back to states no cached record describes).
        self._lane_records.clear()
        self._dirty_lanes = set()
        for record in checkpoint.lanes:
            lane = self._lane_for(record["robot"], create=True)
            if lane is None:
                raise ValueError("checkpoint exceeds this session's "
                                 "robot limit")
            self._dirty_lanes.add(record["robot"])
            lane.window = int(record["window"])
            lane.window_open = bool(record["window_open"])
            lane.pending = [
                (seq, BeaconObservation(**fields))
                for seq, fields in record["pending"]
            ]
            lane.estimator.restore(record["estimator"])
        counters = checkpoint.counters
        self.observations = int(counters["observations"])
        self.observations_dropped = int(counters["observations_dropped"])
        self.observations_out_of_window = int(
            counters["observations_out_of_window"]
        )
        self.windows_opened = int(counters["windows_opened"])
        self.windows_closed = int(counters["windows_closed"])
        self.fixes = int(counters["fixes"])
        self.replays_served = int(counters.get("replays_served", 0))
        self._replies.clear()
        for rid, ok, error, payload in checkpoint.replies:
            self._replies[rid] = Response(
                ok=ok, error=error, payload=payload
            )
        self._registry.counter("serve_sessions_restored").inc()


def _mutated_state(request, response: Response) -> bool:
    """Should this reply enter the idempotent-retry cache?

    Only *ok, state-mutating* replies are cached.  Errors are never
    cached (the client treats them as terminal, not retryable), and
    neither are no-op acks: an observe that answered ``buffered: False``
    changed nothing, and caching it would poison a later same-rid retry
    of the whole window (the retry must re-ingest, not replay the
    no-op).  Read-only ops (fix/confidence/stats) are cheap and
    side-effect-free, so re-executing their retries is both safe and
    fresher than any cache.
    """
    if not response.ok:
        return False
    if isinstance(request, WindowRequest):
        return True
    if isinstance(request, ObserveRequest):
        return bool(response.payload.get("buffered"))
    return False


def _fix_fields(estimator: PositionEstimator) -> Dict[str, object]:
    """The estimate, both as JSON floats (repr round-trips doubles
    exactly) and as ``float.hex`` tokens for the byte-equality gate."""
    estimate = estimator.estimate
    return {
        "x": estimate.x,
        "y": estimate.y,
        "x_hex": float(estimate.x).hex(),
        "y_hex": float(estimate.y).hex(),
    }


def _ZERO_CLOCK() -> float:
    return 0.0


# -- calibration warm-start --------------------------------------------------


def calibration_fingerprint(
    seed: int,
    samples: int,
    path_loss: Optional[PathLossModel] = None,
    receiver: Optional[ReceiverModel] = None,
) -> str:
    """Content hash naming one calibration table in the warm-start store.

    Prefixed so calibration payloads can never collide with TeamResult
    fingerprints inside the shared orchestrator cache.
    """
    path_loss = path_loss if path_loss is not None else PathLossModel()
    receiver = receiver if receiver is not None else ReceiverModel()
    token = "calibration|seed=%d|samples=%d|%r|%r" % (
        seed, samples, path_loss, receiver,
    )
    return "cal-" + hashlib.sha256(token.encode("utf-8")).hexdigest()


class CalibrationStore:
    """Shares calibrated PDF tables across tenants and processes.

    Lookup order: in-process dict (keyed by seed/samples/LUT flag) →
    the orchestrator's content-addressed cache (when given) → a fresh
    :func:`~repro.core.calibration.build_pdf_table` run, whose result
    is pushed back into both layers.

    Args:
        warm_store: optional
            :class:`~repro.orchestrator.cache.ResultCache`; its payload
            API persists tables across server restarts.
        registry: telemetry registry (hit/miss counters).
    """

    def __init__(self, warm_store=None, registry=NULL_REGISTRY) -> None:
        self._warm_store = warm_store
        self._registry = registry
        self._tables: Dict[Tuple[int, int, bool], PdfTable] = {}

    def table_for(self, hello: HelloRequest) -> PdfTable:
        """The (possibly cached) table for a hello's calibration identity."""
        kernels = resolve_kernels(None)
        lut = hello.lut if hello.lut is not None else kernels.lut_pdf
        key = (hello.calibration_seed, hello.calibration_samples, bool(lut))
        table = self._tables.get(key)
        if table is not None:
            self._registry.counter("serve_warmstart_hits").inc()
            return table
        table = self._warm_table(
            hello.calibration_seed, hello.calibration_samples
        )
        # LUT selection is per-table; tables are cached per LUT flag so
        # tenants with different flags never mutate each other's table.
        table.set_lut(bool(lut))
        self._tables[key] = table
        return table

    def _warm_table(self, seed: int, samples: int) -> PdfTable:
        fingerprint = calibration_fingerprint(seed, samples)
        if self._warm_store is not None:
            cached = self._warm_store.get_payload(fingerprint, PdfTable)
            if cached is not None:
                self._registry.counter("serve_warmstart_hits").inc()
                return cached
        self._registry.counter("serve_warmstart_misses").inc()
        result = build_pdf_table(
            PathLossModel(),
            RandomStreams(seed).get("calibration"),
            n_samples=samples,
            receiver=ReceiverModel(),
        )
        if self._warm_store is not None:
            self._warm_store.put_payload(
                fingerprint, result.table, job_name="serve-calibration"
            )
        return result.table
