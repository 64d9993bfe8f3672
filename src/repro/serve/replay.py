"""Record batch beacon traffic, replay it through the service, compare.

This module is the correctness gates' machinery.  The claim under test:
a fix computed by the *service* path (protocol → shard → session →
estimator ingestion surface) is **byte-identical** to the fix the
*batch* simulation computed from the same beacon observations — for any
delivery order within a beacon window.

- :func:`record_replay_log` runs a real :class:`~repro.core.team.CoCoATeam`
  scenario with an ingestion tap on every measured estimator, producing
  a :class:`ReplayLog`: the recording's hello plus the exact per-robot
  stream of window-open / beacon / window-close events, with each beacon
  stamped with its source order (``seq``) and each closing window
  stamped with the batch fix as ``float.hex`` tokens.
- :func:`replay_windows` is the one driver both gates share: it walks
  the log and yields each closed window as the requests that replay it.
  :func:`replay_log` sends them through any service client (in-process
  or TCP), optionally shuffling each window's beacons to exercise
  out-of-order delivery; :mod:`repro.serve.chaos` sends the same
  requests through a live server while faults fire.  Both turn each
  close reply into a :func:`close_record`.
- :func:`diff_fixes` lists every divergence (empty list = gate passes),
  and :func:`first_divergence` names the close where the first one is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.team import CoCoATeam
from repro.serve.client import ensure_ok
from repro.serve.protocol import (
    HelloRequest, ObserveRequest, Response, WindowRequest,
)

__all__ = [
    "ReplayLog",
    "ReplayWindow",
    "record_replay_log",
    "replay_windows",
    "replay_log",
    "close_record",
    "close_problems",
    "diff_fixes",
    "first_divergence",
]


@dataclass
class ReplayLog:
    """A recorded run: the session identity + per-robot event stream.

    Attributes:
        hello: the recording's session identity as a hello (calibration
            seed = the run's master seed, so the service rebuilds the
            same PDF table; geometry and fix threshold); each replay
            sends it under its own tenant (:meth:`hello_for`).
        events: time-ordered event dicts.  Kinds: ``open`` (robot,
            window, t), ``beacon`` (robot, seq, x, y, rssi_dbm,
            anchor_id, t), ``close`` (robot, window, fixed, and — when
            fixed — x_hex/y_hex of the batch fix).
    """

    hello: HelloRequest
    events: List[Dict[str, Any]] = field(default_factory=list)

    def hello_for(
        self, tenant: str, resume: Optional[str] = None
    ) -> HelloRequest:
        """The hello that opens (or resumes) a replay under ``tenant``."""
        return replace(self.hello, tenant=tenant, resume=resume)


def record_replay_log(config: CoCoAConfig) -> "tuple[ReplayLog, Any]":
    """Run a batch scenario and capture its beacon traffic and fixes.

    The tap records exactly what the coordinator fed each estimator —
    the simulation's behaviour is unchanged (taps observe; they never
    mutate).  Requires a square deployment area (the service's hello
    carries one side length).

    Args:
        config: the scenario to record (RF-capable; the interesting
            estimators are the RF/CoCoA ones).

    Returns:
        ``(log, result)`` — the replayable log and the batch
        :class:`~repro.core.team.TeamResult`.
    """
    if abs(config.area.width - config.area.height) > 1e-9:
        raise ValueError("replay recording requires a square area")
    if config.localization_mode is LocalizationMode.ODOMETRY_ONLY:
        raise ValueError("nothing to record without RF beacons")
    team = CoCoATeam(config)
    log = ReplayLog(hello=HelloRequest(
        tenant="recording",
        calibration_seed=config.master_seed,
        calibration_samples=config.calibration_samples,
        area_side_m=config.area.width,
        grid_resolution_m=config.grid_resolution_m,
        min_beacons_for_fix=config.min_beacons_for_fix,
    ))
    for node in team.nodes:
        estimator = node.estimator
        if estimator is None:
            continue
        estimator.set_ingest_tap(
            _Recorder(log.events, node.node_id, estimator, team.sim)
        )
    result = team.run()
    return log, result


class _Recorder:
    """Per-robot ingestion tap appending events to the shared log."""

    __slots__ = ("_events", "_robot", "_estimator", "_sim",
                 "_window", "_seq", "_fixes_seen")

    def __init__(self, events, robot, estimator, sim) -> None:
        self._events = events
        self._robot = robot
        self._estimator = estimator
        self._sim = sim
        self._window = 0
        self._seq = 0
        self._fixes_seen = 0

    def __call__(self, kind: str, observation) -> None:
        if kind == "open":
            self._window += 1
            self._seq = 0
            self._events.append({"kind": "open", "robot": self._robot,
                                 "window": self._window, "t": self._sim.now})
        elif kind == "beacon":
            event = {
                "kind": "beacon",
                "robot": self._robot,
                "seq": self._seq,
                "x": observation.x,
                "y": observation.y,
                "rssi_dbm": observation.rssi_dbm,
                "t": observation.t,
            }
            if observation.anchor_id is not None:
                event["anchor_id"] = observation.anchor_id
            self._seq += 1
            self._events.append(event)
        elif kind == "close":
            fixed = self._estimator.fixes > self._fixes_seen
            self._fixes_seen = self._estimator.fixes
            event = {"kind": "close", "robot": self._robot,
                     "window": self._window, "fixed": fixed,
                     "t": self._sim.now}
            if fixed:
                estimate = self._estimator.estimate
                event["x_hex"] = float(estimate.x).hex()
                event["y_hex"] = float(estimate.y).hex()
            self._events.append(event)


class ReplayWindow(NamedTuple):
    """One closed window of a log as the requests that replay it: the
    open, one observe per recorded beacon in recorded order, the close
    (``expected`` = the observe count) and the log's close event."""

    open: WindowRequest
    observes: Tuple[ObserveRequest, ...]
    close: WindowRequest
    recorded: Dict[str, Any]


def replay_windows(log: ReplayLog, tenant: str) -> Iterator[ReplayWindow]:
    """Each closed window of ``log``, in close order, as ``tenant``'s
    requests (unstamped: no rid, no trace).

    Beacons group by robot between that robot's open and close, so
    robots whose windows interleave in the log replay one whole window
    at a time; lanes are independent, so the fixes do not change.
    """
    #: robot -> (t of its open window, its beacons so far)
    pending: Dict[int, Tuple[float, List[Dict[str, Any]]]] = {}
    for event in log.events:
        robot = event["robot"]
        kind = event["kind"]
        if kind == "open":
            pending[robot] = (event.get("t", 0.0), [])
        elif kind == "beacon":
            pending.setdefault(robot, (0.0, []))[1].append(event)
        elif kind == "close":
            t_open, beacons = pending.pop(robot, (0.0, []))
            observes = tuple(
                ObserveRequest(tenant=tenant, **{
                    key: value for key, value in beacon.items()
                    if key != "kind"
                })
                for beacon in beacons
            )
            yield ReplayWindow(
                open=WindowRequest(
                    tenant=tenant, robot=robot, event="open", t=t_open
                ),
                observes=observes,
                close=WindowRequest(
                    tenant=tenant, robot=robot, event="close",
                    t=event.get("t", 0.0), expected=len(observes),
                ),
                recorded=event,
            )


def close_record(
    window: ReplayWindow, close: WindowRequest, response: Response
) -> Dict[str, Any]:
    """A replayed close as :func:`diff_fixes` compares it with the log's:
    robot, window, fixed, x_hex/y_hex when fixed, and the close's
    ``trace`` when it carried one."""
    record = {
        "robot": close.robot,
        "window": window.recorded["window"],
        "fixed": bool(response.payload.get("fixed")),
    }
    if record["fixed"]:
        record["x_hex"] = response.payload["x_hex"]
        record["y_hex"] = response.payload["y_hex"]
    if close.trace is not None:
        record["trace"] = close.trace
    return record


async def replay_log(
    client,
    log: ReplayLog,
    tenant: str,
    shuffle_rng=None,
) -> List[Dict[str, Any]]:
    """Feed a recorded log through a service client; return its fixes.

    The no-fault use of :func:`replay_windows`.  Beacons recorded inside
    one window are delivered in recorded order, or — when
    ``shuffle_rng`` (a ``numpy`` Generator) is given — in a random
    permutation of it, which exercises the session's
    sort-by-source-seq recovery.  Returns one :func:`close_record` per
    window.  A failed request raises
    :class:`~repro.serve.client.ServiceError` (the gate treats shedding
    as a failure — the replay harness never overloads a healthy server).

    Args:
        client: :class:`~repro.serve.client.InProcessClient` or
            :class:`~repro.serve.client.ServeClient` (connected).
        log: a recorded :class:`ReplayLog`.
        tenant: tenant name to replay under.
        shuffle_rng: optional seeded Generator for out-of-order delivery.
    """
    ensure_ok(await client.request(log.hello_for(tenant)))
    fixes: List[Dict[str, Any]] = []
    for window in replay_windows(log, tenant):
        observes = window.observes
        if shuffle_rng is not None and len(observes) > 1:
            order = shuffle_rng.permutation(len(observes))
            observes = [observes[i] for i in order]
        for request in (window.open, *observes):
            ensure_ok(await client.request(request))
        response = ensure_ok(await client.request(window.close))
        fixes.append(close_record(window, window.close, response))
    return fixes


def close_problems(want: Dict[str, Any], got: Dict[str, Any]) -> List[str]:
    """How one replayed close differs from its recorded batch close;
    empty when the two agree (same window, same fixed flag, same
    ``float.hex`` coordinates)."""
    where = "robot %s window %s" % (want["robot"], want["window"])
    if (want["robot"], want["window"]) != (got["robot"], got["window"]):
        return [
            "%s: replay visited robot %s window %s instead"
            % (where, got["robot"], got["window"])
        ]
    if bool(want["fixed"]) != bool(got["fixed"]):
        return [
            "%s: fixed=%s in batch, fixed=%s in service"
            % (where, want["fixed"], got["fixed"])
        ]
    if not want["fixed"]:
        return []
    return [
        "%s: %s differs (batch %s, service %s)"
        % (where, axis, want[axis], got[axis])
        for axis in ("x_hex", "y_hex")
        if want[axis] != got[axis]
    ]


def _divergences(
    log: ReplayLog, replayed: List[Dict[str, Any]]
) -> Iterator[Tuple[int, str]]:
    """``(index into replayed, problem)`` for every divergence, in close
    order; a count mismatch is one problem, at the first close that only
    one side has."""
    recorded = [e for e in log.events if e["kind"] == "close"]
    if len(recorded) != len(replayed):
        yield min(len(recorded), len(replayed)), (
            "close count mismatch: recorded %d, replayed %d"
            % (len(recorded), len(replayed))
        )
        return
    for index, (want, got) in enumerate(zip(recorded, replayed)):
        for problem in close_problems(want, got):
            yield index, problem


def diff_fixes(
    log: ReplayLog, replayed: List[Dict[str, Any]]
) -> List[str]:
    """Every divergence between recorded and replayed fixes.

    Returns an empty list when the service reproduced the batch run
    byte for byte (same windows fixed, same ``float.hex`` coordinates).
    """
    return [problem for _index, problem in _divergences(log, replayed)]


def first_divergence(
    log: ReplayLog, replayed: List[Dict[str, Any]]
) -> Optional[int]:
    """The index in ``replayed`` of the first close that diverges from
    the log's (a surplus close counts), or ``None``."""
    return next((index for index, _ in _divergences(log, replayed)
                 if index < len(replayed)), None)
