"""Span recording around the program's layer boundaries, and the self-time ledger.

The benchmark treats ``repro`` as a black box: the traced run installs
wrappers from this file around the public entry points of each ``repro``
subpackage (and, where a layer's work is driven by engine events, around
the handler those events call), records one span per call -- name,
start, end and parent -- and keeps the spans in memory.  After the run,
:func:`ledger` turns them into per-layer self times: a span's self time
is its duration minus the time its child spans cover.  The root span is
opened by the benchmark around the whole measured region, so its self
time is the work no wrapper attributed (``other_s``), and the self times
of every span add up to the root's duration.

Wrapping changes no argument and no return value and draws from no
random stream, so a traced run computes exactly what an untraced run
computes; the benchmark checks that on every traced run by comparing
science digests.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ROOT = "bench.root"

#: (module, class or ``None`` for a module-level function, attribute, span).
#: Each target is patched where its callers look it up.  Methods are
#: patched on the class before any instance exists, so handlers the
#: program binds at construction time (engine events, channel receive
#: callbacks) bind the wrapper.
Target = Tuple[str, Optional[str], str, str]

SIM_TARGETS: Sequence[Target] = (
    ("repro.sim.engine", "Simulator", "run", "sim.engine"),
    ("repro.net.channel", "BroadcastChannel", "transmit",
     "net.channel.transmit"),
    ("repro.net.channel", "BroadcastChannel", "_deliver_frame",
     "net.channel.deliver"),
    ("repro.net.channel", "BroadcastChannel", "_deliver",
     "net.channel.deliver"),
    ("repro.net.mac", "CsmaMac", "send_broadcast", "net.mac"),
    ("repro.net.mac", "CsmaMac", "_attempt", "net.mac"),
    ("repro.net.interface", "NetworkInterface", "_dispatch",
     "net.interface"),
    ("repro.net.interface", "NetworkInterface", "sleep", "net.interface"),
    ("repro.net.interface", "NetworkInterface", "wake", "net.interface"),
    ("repro.net.radio", "Radio", "finish_receive", "net.radio"),
    ("repro.core.coordinator", "Coordinator", "_window_open_phase",
     "core.coordinator"),
    ("repro.core.coordinator", "Coordinator", "_window_start_phase",
     "core.coordinator"),
    ("repro.core.coordinator", "Coordinator", "_window_close_phase",
     "core.coordinator"),
    ("repro.core.coordinator", "Coordinator", "_period_end_phase",
     "core.coordinator"),
    ("repro.core.coordinator", "Coordinator", "on_sync",
     "core.coordinator"),
    ("repro.core.beaconing", "AnchorBeaconer", "start_window",
     "core.beaconing"),
    ("repro.core.beaconing", "AnchorBeaconer", "_send_beacon",
     "core.beaconing"),
    ("repro.core.estimator", "PositionEstimator", "ingest_observation",
     "core.estimator"),
    ("repro.core.estimator", "PositionEstimator", "on_window_open",
     "core.estimator"),
    ("repro.core.estimator", "PositionEstimator", "on_window_close",
     "core.estimator"),
    ("repro.core.estimator", "PositionEstimator", "tick",
     "core.estimator.tick"),
    ("repro.core.bayes", "GridBayesFilter", "apply_beacon",
     "core.bayes.apply_beacon"),
    ("repro.core.pdf_table", "PdfTable", "pdf", "core.pdf_table.lookup"),
    ("repro.core.pdf_table", "PdfTable", "pdf_for_key",
     "core.pdf_table.lookup"),
    ("repro.core.pdf_table", "PdfTable", "pdf_from_index",
     "core.pdf_table.lookup"),
    ("repro.core.pdf_table", "PdfTable", "lut_index_for",
     "core.pdf_table.lookup"),
    ("repro.core.constraint_cache", "ConstraintFieldCache",
     "constraint_field", "core.constraint_cache"),
    ("repro.core.constraint_cache", "ConstraintFieldCache",
     "distance_field", "core.constraint_cache"),
    ("repro.core.constraint_cache", "ConstraintFieldCache",
     "index_field", "core.constraint_cache"),
    ("repro.core.constraint_cache", "ConstraintFieldCache",
     "store_constraint", "core.constraint_cache"),
    ("repro.core.team", "CoCoATeam", "__init__", "core.team.setup"),
    ("repro.core.team", "CoCoATeam", "_sample_metrics",
     "core.team.sample_metrics"),
    ("repro.mobility.odometry", "OdometrySensor", "read",
     "mobility.odometry.read"),
    ("repro.mobility.waypoint", "WaypointMobility", "pose",
     "mobility.waypoint.pose"),
    ("repro.mobility.dead_reckoning", "DeadReckoning", "advance",
     "mobility.dead_reckoning"),
    ("repro.multicast.odmrp", "OdmrpNode", "send_join_query", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "send_data", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "_on_join_query", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "_on_join_reply", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "_on_data", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "_fire_forward", "multicast"),
    ("repro.multicast.odmrp", "OdmrpNode", "_send_join_reply",
     "multicast"),
    ("repro.energy.meter", "EnergyMeter", "charge_state", "energy.meter"),
    ("repro.energy.meter", "EnergyMeter", "charge_send", "energy.meter"),
    ("repro.energy.meter", "EnergyMeter", "charge_recv", "energy.meter"),
    ("repro.faults.injector", "FaultInjector", "offer_rssi",
     "faults.injector"),
    ("repro.faults.injector", "FaultInjector", "reported_rssi",
     "faults.injector"),
    ("repro.faults.injector", "FaultInjector", "maybe_corrupt",
     "faults.injector"),
)

#: Server-side boundaries, installed by ``serve_launcher.py`` on top of
#: the estimator targets above (the service runs the same estimator).
SERVE_TARGETS: Sequence[Target] = (
    ("repro.serve.server", None, "parse_request", "serve.protocol.decode"),
    ("repro.serve.server", None, "encode_response",
     "serve.protocol.encode"),
    ("repro.serve.shard", "Shard", "handle", "serve.shard.service"),
    ("repro.serve.session", "TenantSession", "_window_close",
     "serve.session.close"),
    ("repro.serve.session", "TenantSession", "handle", "serve.session"),
    ("repro.serve.session", "TenantSession", "checkpoint_now",
     "serve.checkpoint.save"),
    ("repro.serve.session", "CalibrationStore", "table_for",
     "serve.calibration"),
    ("selectors", "EpollSelector", "select", "serve.loop.idle"),
)


class SpanRecorder:
    """Spans kept in flat arrays: id = index, parent = index or -1.

    Only synchronous calls are wrapped, so a span stack per thread is
    enough; the benchmark and the server each record from one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_idx = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        span = len(self.starts)
        self.name_idx.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self._stack.append(span)
        return span

    def close(self, span: int) -> None:
        self.ends[span] = self.clock()
        popped = self._stack.pop()
        if popped != span:
            raise RuntimeError("span %d closed out of order" % span)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as span ``name`` on every call.

        The wrapper repeats :meth:`open`/:meth:`close` inline with local
        bindings: it runs around a million times per traced run, and the
        tracing overhead it adds is reported as ``trace_overhead_pct``.
        """
        idx = self._name_id(name)
        stack = self._stack
        name_idx, parents = self.name_idx, self.parents
        starts, ends = self.starts, self.ends
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            name_idx.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def records(self) -> List[Tuple[int, int, str, float, float]]:
        """Every span as ``(id, parent, name, start, end)``."""
        return [
            (i, self.parents[i], self.names[self.name_idx[i]],
             self.starts[i], self.ends[i])
            for i in range(len(self.starts))
        ]

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of every span called ``name``."""
        idx = self._name_ids.get(name)
        if idx is None:
            return np.zeros(0)
        mask = np.frombuffer(self.name_idx, dtype=np.int32) == idx
        starts = np.frombuffer(self.starts, dtype=float)[mask]
        return np.frombuffer(self.ends, dtype=float)[mask] - starts

    def ledger(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``count`` and ``self_s`` (see :func:`ledger`)."""
        return ledger(
            np.frombuffer(self.parents, dtype=np.int32),
            np.frombuffer(self.name_idx, dtype=np.int32),
            np.frombuffer(self.starts, dtype=float),
            np.frombuffer(self.ends, dtype=float),
            self.names,
        )


def ledger(
    parents: np.ndarray,
    name_idx: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    names: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """``count`` and ``self_s`` per span name.

    A span's self time is its duration minus its children's durations.
    Spans nest strictly (a wrapped call returns before its caller does),
    so the children of one span never overlap and their durations sum to
    the part of the parent's interval they cover.
    """
    durations = ends - starts
    child = parents >= 0
    child_time = np.bincount(
        parents[child], weights=durations[child], minlength=len(durations)
    )
    self_times = durations - child_time
    counts = np.bincount(name_idx, minlength=len(names))
    self_by_name = np.bincount(
        name_idx, weights=self_times, minlength=len(names)
    )
    return {
        name: {"count": int(counts[i]), "self_s": float(self_by_name[i])}
        for i, name in enumerate(names)
    }


def ledger_problems(
    spans: Dict[str, Dict[str, float]], wall_s: float
) -> List[str]:
    """The ledger must add up: every self time, ``other_s`` included,
    sums to the traced wall time."""
    total = sum(entry["self_s"] for entry in spans.values())
    if abs(total - wall_s) > 1e-6 * max(1.0, wall_s):
        return ["ledger: self times sum to %.6f s, wall is %.6f s"
                % (total, wall_s)]
    return []


class Patches:
    """Installs wrappers for a target list and restores the originals."""

    def __init__(self, recorder: SpanRecorder, targets: Iterable[Target]) -> None:
        self._recorder = recorder
        self._targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Patches":
        for module_name, owner_name, attr, span in self._targets:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._recorder.wrap(original, span))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
