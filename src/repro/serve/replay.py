"""Record batch beacon traffic, replay it through the service, compare.

This module is the correctness gate's machinery.  The claim under test:
a fix computed by the *service* path (protocol → shard → session →
estimator ingestion surface) is **byte-identical** to the fix the
*batch* simulation computed from the same beacon observations — for any
delivery order within a beacon window.

- :func:`record_replay_log` runs a real :class:`~repro.core.team.CoCoATeam`
  scenario with an ingestion tap on every measured estimator, producing
  a :class:`ReplayLog`: the calibration/geometry header plus the exact
  per-robot stream of window-open / beacon / window-close events, with
  each beacon stamped with its source order (``seq``) and each closing
  window stamped with the batch fix as ``float.hex`` tokens.
- :func:`replay_log` feeds that log through any service client
  (in-process or TCP), optionally shuffling each window's beacons to
  exercise out-of-order delivery, and collects the service's fixes.
- :func:`diff_fixes` lists every divergence (empty list = gate passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.core.team import CoCoATeam
from repro.serve.client import ensure_ok

__all__ = [
    "ReplayLog",
    "record_replay_log",
    "replay_log",
    "diff_fixes",
]


@dataclass
class ReplayLog:
    """A recorded run: calibration identity + per-robot event stream.

    Attributes:
        calibration_seed: the recording run's master seed (names the
            calibration RNG stream, so the service rebuilds the same
            PDF table).
        calibration_samples: calibration Monte-Carlo sample count.
        area_side_m: deployment square side.
        grid_resolution_m: Bayesian grid cell size.
        min_beacons_for_fix: fix threshold.
        events: time-ordered event dicts.  Kinds: ``open`` (robot,
            window, t), ``beacon`` (robot, seq, x, y, rssi_dbm,
            anchor_id, t), ``close`` (robot, window, fixed, and — when
            fixed — x_hex/y_hex of the batch fix).
    """

    calibration_seed: int
    calibration_samples: int
    area_side_m: float
    grid_resolution_m: float
    min_beacons_for_fix: int
    events: List[Dict[str, Any]] = field(default_factory=list)


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
    log = ReplayLog(
        calibration_seed=config.master_seed,
        calibration_samples=config.calibration_samples,
        area_side_m=config.area.width,
        grid_resolution_m=config.grid_resolution_m,
        min_beacons_for_fix=config.min_beacons_for_fix,
    )
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
            self._events.append({
                "kind": "open",
                "robot": self._robot,
                "window": self._window,
                "t": self._sim.now,
            })
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
            event = {
                "kind": "close",
                "robot": self._robot,
                "window": self._window,
                "fixed": fixed,
                "t": self._sim.now,
            }
            if fixed:
                estimate = self._estimator.estimate
                event["x_hex"] = float(estimate.x).hex()
                event["y_hex"] = float(estimate.y).hex()
            self._events.append(event)


async def replay_log(
    client,
    log: ReplayLog,
    tenant: str,
    shuffle_rng=None,
) -> List[Dict[str, Any]]:
    """Feed a recorded log through a service client; return its fixes.

    Beacons recorded inside one window are delivered in recorded order,
    or — when ``shuffle_rng`` (a ``numpy`` Generator) is given — in a
    random permutation of it, which exercises the session's
    sort-by-source-seq recovery.  Each returned dict mirrors the log's
    ``close`` events: robot, window, fixed, x_hex/y_hex.  A failed
    request raises :class:`~repro.serve.client.ServiceError` (the gate
    treats shedding as a failure — the replay harness never overloads a
    healthy server).

    Args:
        client: :class:`~repro.serve.client.InProcessClient` or
            :class:`~repro.serve.client.ServeClient` (connected).
        log: a recorded :class:`ReplayLog`.
        tenant: tenant name to replay under.
        shuffle_rng: optional seeded Generator for out-of-order delivery.
    """
    ensure_ok(await client.hello(
        tenant,
        calibration_seed=log.calibration_seed,
        calibration_samples=log.calibration_samples,
        area_side_m=log.area_side_m,
        grid_resolution_m=log.grid_resolution_m,
        min_beacons_for_fix=log.min_beacons_for_fix,
    ))
    fixes: List[Dict[str, Any]] = []
    pending: Dict[int, List[Dict[str, Any]]] = {}
    for event in log.events:
        robot = event["robot"]
        kind = event["kind"]
        if kind == "open":
            ensure_ok(await client.window_open(
                tenant, robot, t=event.get("t", 0.0)
            ))
            pending[robot] = []
        elif kind == "beacon":
            pending.setdefault(robot, []).append(event)
        elif kind == "close":
            beacons = pending.pop(robot, [])
            if shuffle_rng is not None and len(beacons) > 1:
                order = shuffle_rng.permutation(len(beacons))
                beacons = [beacons[i] for i in order]
            for beacon in beacons:
                response = await client.observe(
                    tenant,
                    robot,
                    seq=beacon["seq"],
                    x=beacon["x"],
                    y=beacon["y"],
                    rssi_dbm=beacon["rssi_dbm"],
                    anchor_id=beacon.get("anchor_id"),
                    t=beacon.get("t", 0.0),
                )
                ensure_ok(response)
            response = ensure_ok(await client.window_close(
                tenant, robot, t=event.get("t", 0.0),
                expected=len(beacons),
            ))
            record = {
                "robot": robot,
                "window": event["window"],
                "fixed": bool(response.payload.get("fixed")),
            }
            if record["fixed"]:
                record["x_hex"] = response.payload["x_hex"]
                record["y_hex"] = response.payload["y_hex"]
            fixes.append(record)
    return fixes


def diff_fixes(
    log: ReplayLog, replayed: List[Dict[str, Any]]
) -> List[str]:
    """Every divergence between recorded and replayed fixes.

    Returns an empty list when the service reproduced the batch run
    byte for byte (same windows fixed, same ``float.hex`` coordinates).
    """
    recorded = [e for e in log.events if e["kind"] == "close"]
    problems: List[str] = []
    if len(recorded) != len(replayed):
        problems.append(
            "close count mismatch: recorded %d, replayed %d"
            % (len(recorded), len(replayed))
        )
        return problems
    for want, got in zip(recorded, replayed):
        where = "robot %s window %s" % (want["robot"], want["window"])
        if (want["robot"], want["window"]) != (got["robot"], got["window"]):
            problems.append(
                "%s: replay visited robot %s window %s instead"
                % (where, got["robot"], got["window"])
            )
            continue
        if bool(want["fixed"]) != bool(got["fixed"]):
            problems.append(
                "%s: fixed=%s in batch, fixed=%s in service"
                % (where, want["fixed"], got["fixed"])
            )
            continue
        if want["fixed"]:
            for axis in ("x_hex", "y_hex"):
                if want[axis] != got[axis]:
                    problems.append(
                        "%s: %s differs (batch %s, service %s)"
                        % (where, axis, want[axis], got[axis])
                    )
    return problems
