"""Per-tenant estimator sessions and the calibration-table store.

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
  same grid geometry and PDF table as the recording run;
- observations arriving while no window is open are acknowledged but
  never applied: in the batch path such beacons land in a filter that
  the next window-open resets before any fix reads it, so dropping
  them is fix-equivalent (and keeps a session's memory bounded).

Memory: a lane holds its posterior grid only while its window is open.
:meth:`TenantSession._window_close` parks the lane's filter once the
reply and the checkpoint are built (see
:meth:`~repro.core.bayes.GridBayesFilter.park`): ``fix`` and
``confidence`` then read the memoised mean, spread and entropy, and the
next open allocates a fresh uniform grid.  A restore parks each closed
lane as soon as it is rebuilt.  The close and the restore then clear the
session's constraint-field memo, so between requests a session holds no
grid-sized array but its open windows' posteriors.

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
tenant, so :class:`CalibrationStore` builds each one once per process
and shares it across tenants.  The build is deterministic, so a
restarted process that resumes a checkpoint rebuilds the same table.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.calibration import build_pdf_table
from repro.core.config import LocalizationMode
from repro.core.constraint_cache import ConstraintFieldCache
from repro.core.estimator import BeaconObservation, PositionEstimator
from repro.core.pdf_table import PdfTable
from repro.net.phy import PathLossModel
from repro.serve.checkpoint import (
    SessionCheckpoint,
    checkpoint_fingerprint,
    session_identity,
)
from repro.serve.protocol import (
    ConfidenceRequest,
    FixRequest,
    HelloRequest,
    ObserveRequest,
    ProtocolError,
    Response,
    StatsRequest,
    WindowRequest,
    error_response,
)
from repro.sim.rng import RandomStreams
from repro.telemetry.registry import NULL_REGISTRY
from repro.util.geometry import Rect

__all__ = [
    "TenantSession",
    "CalibrationStore",
]

#: Robots one tenant may track; further window-opens are refused with
#: ``robot_limit``.
MAX_ROBOTS = 256

#: Buffered observations per robot per window; overflow is dropped and
#: counted, never queued unboundedly.
MAX_PENDING_OBSERVATIONS = 1024

#: Cached ``(rid, reply)`` pairs kept for idempotent retries; oldest
#: entries fall out first.  It only needs to cover one client's retry
#: horizon (one in-flight window), so it stays small.
REPLY_CACHE_SIZE = 256

#: The session counters: the ``stats`` op serves them and a checkpoint
#: carries them.
COUNTERS = (
    "observations",
    "observations_dropped",
    "observations_out_of_window",
    "windows_opened",
    "windows_closed",
    "fixes",
    "replays_served",
)


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
        clock: Optional[Callable[[], float]] = None,
        registry=NULL_REGISTRY,
        checkpoints=None,
    ) -> None:
        self.tenant = hello.tenant
        self.hello = hello
        self._table = table
        self._clock = clock if clock is not None else _ZERO_CLOCK
        self._registry = registry
        self._checkpoints = checkpoints
        self._area = Rect.square(hello.area_side_m)
        #: One memo for every lane, cleared after each close and restore:
        #: it shares fields only between the beacons one close applies.
        self.constraint_cache = ConstraintFieldCache()
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

    @property
    def grids_live(self) -> int:
        """Lanes whose filter holds its posterior grid (open windows)."""
        return sum(
            not lane.estimator.filter.parked for lane in self._lanes.values()
        )

    def idle_for(self, now: float) -> float:
        """Seconds since the last request touched this session."""
        return max(0.0, now - self.last_active)

    def _lane_for(self, robot: int, create: bool) -> Optional[_RobotLane]:
        lane = self._lanes.get(robot)
        if lane is None and create:
            if len(self._lanes) >= MAX_ROBOTS:
                return None
            lane = self._add_lane(robot, self._new_estimator())
        return lane

    def _new_estimator(self) -> PositionEstimator:
        return PositionEstimator(
            mode=LocalizationMode.RF_ONLY,
            area=self._area,
            pdf_table=self._table,
            grid_resolution_m=self.hello.grid_resolution_m,
            min_beacons_for_fix=self.hello.min_beacons_for_fix,
            constraint_cache=self.constraint_cache,
        )

    def _add_lane(
        self, robot: int, estimator: PositionEstimator
    ) -> _RobotLane:
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
            self._remember(rid, response)
        return response

    def _remember(self, rid: int, response: Response) -> None:
        """Cache ``response`` as the reply to ``rid``, oldest out first."""
        self._replies[rid] = response
        while len(self._replies) > REPLY_CACHE_SIZE:
            self._replies.popitem(last=False)

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
                "tenant tracks %d robots already" % MAX_ROBOTS,
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
        # A beacon claimed farther than the table's support outside the
        # area is that far from every cell, so every cell reads the
        # uniform floor: it carries no information, and a distance field
        # that overflows would turn it into a confident fix.
        reach = self._table.support_max_m
        side = self.hello.area_side_m
        for name, value in (("x", request.x), ("y", request.y)):
            if not -reach <= value <= side + reach:
                return error_response(
                    "bad_request",
                    "%s lies more than the calibration support (%g m) "
                    "outside [0, %g]" % (name, reach, side),
                )
        lane = self._lane_for(request.robot, create=False)
        if lane is None or not lane.window_open:
            # Mirrors the batch path: a beacon landing outside a round
            # is wiped by the next window-open's filter reset before
            # any fix can read it, so it is acknowledged and discarded.
            self.observations_out_of_window += 1
            return Response(ok=True, payload={"buffered": False})
        if len(lane.pending) >= MAX_PENDING_OBSERVATIONS:
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
                self._remember(request.rid, response)
            if trace is not None:
                with trace.hop("checkpoint", robot=request.robot):
                    self.checkpoint_now()
            else:
                self.checkpoint_now()
        # Nothing writes the posterior again before the next open, and
        # fix/confidence read only its memoised moments.
        estimator.filter.park(self._table)
        self.constraint_cache.clear()
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
        stats: Dict[str, object] = {
            "tenant": self.tenant, "robots": self.n_robots,
        }
        stats.update((name, getattr(self, name)) for name in COUNTERS)
        return stats

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
        """The session's complete state, frozen at this request boundary.

        Each lane record holds the robot's window, its buffered
        observations and its estimator snapshot, whose filter share is
        the evidence applied since the last reset rather than the
        posterior grid: a restore replays it through the session's PDF
        table, so a record stays a few hundred bytes however fine the
        grid.
        """
        lanes = []
        for robot in sorted(self._lanes):
            record = self._lane_records.get(robot)
            if record is None or robot in self._dirty_lanes:
                # Only re-snapshot lanes a request touched since the
                # last snapshot; everyone else's record is still exact
                # (records are immutable once built — the filter's
                # evidence is a tuple, and restore replays it rather
                # than adopting it — so sharing them across checkpoints
                # is safe).
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
            hello=session_identity(self.hello),
            lanes=lanes,
            counters={name: getattr(self, name) for name in COUNTERS},
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

        Every lane's estimator is restored into a fresh estimator before
        the session changes, so a refused checkpoint leaves the session
        as it was.

        Raises:
            ValueError: the checkpoint belongs to a different tenant or
                a different estimator geometry, exceeds the robot limit,
                or holds an estimator snapshot that is not this format.
        """
        if checkpoint.tenant != self.tenant:
            raise ValueError(
                "checkpoint tenant %r does not match session %r"
                % (checkpoint.tenant, self.tenant)
            )
        robots = set(self._lanes)
        robots.update(record["robot"] for record in checkpoint.lanes)
        if len(robots) > MAX_ROBOTS:
            raise ValueError("checkpoint exceeds this session's robot limit")
        restored = []
        try:
            for record in checkpoint.lanes:
                estimator = self._new_estimator()
                estimator.restore(record["estimator"])
                if not record["window_open"]:
                    # One replayed grid at a time, as a close leaves it.
                    estimator.filter.park(self._table)
                pending = [
                    (seq, BeaconObservation(**fields))
                    for seq, fields in record["pending"]
                ]
                restored.append((record, estimator, pending))
        finally:
            # The replays filled the memo; a refused checkpoint too.
            self.constraint_cache.clear()
        # Adopted state invalidates every cached lane record (restore
        # may roll lanes back to states no cached record describes).
        self._lane_records.clear()
        self._dirty_lanes = set()
        for record, estimator, pending in restored:
            robot = record["robot"]
            lane = self._lanes.get(robot) or self._add_lane(robot, estimator)
            lane.estimator = estimator
            lane.window = int(record["window"])
            lane.window_open = bool(record["window_open"])
            lane.pending = pending
            self._dirty_lanes.add(robot)
        for name in COUNTERS:
            setattr(self, name, int(checkpoint.counters.get(name, 0)))
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


# -- calibration tables ------------------------------------------------------


class CalibrationStore:
    """Shares calibrated PDF tables across the tenants of one process.

    Tables are keyed by ``(calibration_seed, calibration_samples)``; a
    miss runs :func:`~repro.core.calibration.build_pdf_table`, which is
    deterministic, so a restarted process rebuilds the same bytes.

    Args:
        registry: telemetry registry (hit/miss counters).
    """

    def __init__(self, registry=NULL_REGISTRY) -> None:
        self._registry = registry
        self._tables: Dict[Tuple[int, int], PdfTable] = {}

    def table_for(self, hello: HelloRequest) -> PdfTable:
        """The (possibly cached) table for a hello's calibration identity.

        Raises:
            ProtocolError: if the hello's calibration populates no bin.
        """
        key = (hello.calibration_seed, hello.calibration_samples)
        table = self._tables.get(key)
        if table is not None:
            self._registry.counter("serve_warmstart_hits").inc()
            return table
        self._registry.counter("serve_warmstart_misses").inc()
        seed, samples = key
        try:
            table = build_pdf_table(
                PathLossModel(),
                RandomStreams(seed).get("calibration"),
                n_samples=samples,
            ).table
        except ValueError:
            # The hello itself is at fault: too few samples for any bin
            # to reach the fit floor.  The shard answers bad_request.
            raise ProtocolError(
                "calibration_samples=%d populates no PDF-Table bin at "
                "calibration_seed=%d; send more samples" % (samples, seed)
            ) from None
        self._tables[key] = table
        return table
