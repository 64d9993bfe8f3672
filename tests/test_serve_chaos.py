"""Chaos-harness tests: seeded schedules, and the crash-recovery gate.

The expensive end of this file is the actual gate: for three master
seeds, a recorded batch scenario is replayed through a **live TCP
server** while the schedule kills the shard worker, severs the
connection and evicts the session mid-stream — and every fix the
recovering service serves must still match the batch fix byte for byte.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.serve.chaos import (
    FAULT_KINDS,
    ChaosEvent,
    ChaosReport,
    ChaosSchedule,
    SteppedClock,
    run_chaos,
)
from repro.serve.replay import record_replay_log
from repro.serve.server import ServeConfig
from repro.util.geometry import Rect

CHAOS_SEEDS = (1, 2, 3)


def _scenario(seed: int) -> CoCoAConfig:
    return CoCoAConfig(
        area=Rect.square(80.0),
        n_robots=6,
        n_anchors=5,
        beacon_period_s=20.0,
        duration_s=60.0,
        master_seed=seed,
        calibration_samples=2000,
        localization_mode=LocalizationMode.RF_ONLY,
    )


@pytest.fixture(scope="module")
def chaos_logs():
    """One recorded batch run per chaos seed (shared across the gate)."""
    logs = {}
    for seed in CHAOS_SEEDS:
        log, result = record_replay_log(_scenario(seed))
        assert result.fixes > 0, "chaos scenario must produce fixes"
        logs[seed] = log
    return logs


# -- schedules ----------------------------------------------------------------


def test_schedule_generation_is_seed_deterministic():
    first = ChaosSchedule.generate(seed=7, n_requests=100,
                                   kills=2, severs=3, evicts=2, delays=1)
    second = ChaosSchedule.generate(seed=7, n_requests=100,
                                    kills=2, severs=3, evicts=2, delays=1)
    assert first.events == second.events
    assert len(first.events) == 8
    other = ChaosSchedule.generate(seed=8, n_requests=100,
                                   kills=2, severs=3, evicts=2, delays=1)
    assert first.events != other.events


def test_schedule_positions_and_kinds_are_well_formed():
    schedule = ChaosSchedule.generate(seed=3, n_requests=50,
                                      kills=1, severs=2, evicts=1, delays=1)
    positions = [event.at_request for event in schedule.events]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)  # without replacement
    assert all(position >= 2 for position in positions)
    kinds = sorted(event.kind for event in schedule.events)
    assert kinds == ["delay", "evict", "kill_shard", "sever", "sever"]
    assert set(kinds) <= set(FAULT_KINDS)


def test_schedule_rejects_more_faults_than_slots():
    with pytest.raises(ValueError):
        ChaosSchedule.generate(seed=1, n_requests=3,
                               kills=2, severs=2, evicts=2, delays=2)
    empty = ChaosSchedule.generate(seed=1, n_requests=10,
                                   kills=0, severs=0, evicts=0, delays=0)
    assert empty.events == []


def test_schedule_for_log_covers_the_full_stream(chaos_logs):
    log = chaos_logs[1]
    schedule = ChaosSchedule.for_log(log, seed=1)
    assert schedule.events, "default schedule must carry faults"
    # The hello is request 1 and every log event is one request.
    assert max(e.at_request for e in schedule.events) <= len(log.events) + 1


def test_stepped_clock_advances_only_on_demand():
    clock = SteppedClock()
    assert clock() == 0.0
    clock.advance(2.5)
    clock.advance(0.5)
    assert clock() == 3.0


def test_chaos_event_is_frozen():
    event = ChaosEvent(at_request=5, kind="sever")
    with pytest.raises(Exception):
        event.kind = "delay"  # type: ignore[misc]


# -- the gate -----------------------------------------------------------------


def test_run_chaos_requires_durability_features(chaos_logs):
    log = chaos_logs[1]
    schedule = ChaosSchedule.for_log(log, seed=1)
    with pytest.raises(ValueError):
        asyncio.run(run_chaos(
            log, schedule, config=ServeConfig(checkpointing=False)
        ))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_recovered_fixes_match_batch_bytes(chaos_logs, seed, tmp_path):
    log = chaos_logs[seed]
    schedule = ChaosSchedule.for_log(log, seed=seed)
    log_path = tmp_path / ("chaos-%d.jsonl" % seed)
    report = asyncio.run(run_chaos(
        log, schedule, tenant="chaos-%d" % seed,
        chaos_log_path=str(log_path),
    ))
    assert isinstance(report, ChaosReport)
    assert report.problems == [], report.summary()
    assert report.faults_injected == report.faults_total == len(
        schedule.events
    )
    assert report.ok, report.summary()
    assert "PASS" in report.summary()
    assert report.closes_total == sum(
        1 for event in log.events if event["kind"] == "close"
    )
    # The chaos log is a readable JSONL artifact: header, journal, report.
    lines = [json.loads(line)
             for line in log_path.read_text().splitlines()]
    assert lines[0]["kind"] == "header" and lines[0]["seed"] == seed
    assert len(lines[0]["faults"]) == len(schedule.events)
    assert lines[-1]["kind"] == "report" and lines[-1]["ok"] is True
    assert any(line["kind"] == "fault" for line in lines)


def test_chaos_survives_a_heavier_schedule(chaos_logs):
    """More faults than the default: two kills, three severs, two evicts."""
    log = chaos_logs[2]
    schedule = ChaosSchedule.for_log(log, seed=42, kills=2, severs=3,
                                     evicts=2, delays=2)
    report = asyncio.run(run_chaos(log, schedule, tenant="chaos-heavy"))
    assert report.ok, report.summary()
    assert report.faults_injected == 9
    # The schedule really exercised recovery, not a quiet run.
    assert report.service["serve_checkpoints_saved"] > 0


# -- trace forensics ----------------------------------------------------------


class _FakeLog:
    """Just enough of a ReplayLog for the divergence comparison."""

    def __init__(self, events):
        self.events = events


def _close(robot, window, fixed=True, x="0x1.8p+4", y="0x1.2p+5"):
    event = {"kind": "close", "robot": robot, "window": window,
             "fixed": fixed}
    if fixed:
        event["x_hex"], event["y_hex"] = x, y
    return event


def test_first_divergent_trace_pinpoints_the_bad_fix():
    from repro.serve.replay import first_divergence

    log = _FakeLog([_close(0, 0), _close(1, 0)])
    replayed = [
        {"robot": 0, "window": 0, "fixed": True, "x_hex": "0x1.8p+4",
         "y_hex": "0x1.2p+5", "trace": "chaos1-7"},
        {"robot": 1, "window": 0, "fixed": True, "x_hex": "0xd.eadp+0",
         "y_hex": "0x1.2p+5", "trace": "chaos1-9"},
    ]
    assert replayed[first_divergence(log, replayed)]["trace"] == "chaos1-9"
    # Byte-identical replay: nothing to report.
    replayed[1]["x_hex"] = "0x1.8p+4"
    assert first_divergence(log, replayed) is None
    # A missing fix diverges too (fixed flag flips).
    replayed[0]["fixed"] = False
    assert replayed[first_divergence(log, replayed)]["trace"] == "chaos1-7"


def test_chaos_run_records_traces_and_journal_ids(chaos_logs, tmp_path):
    """A passing chaos run still records every request's spans (tracing
    is forced to ``always``), stamps its journal with rid + trace, and
    dumps trace JSONL when asked."""
    log = chaos_logs[1]
    schedule = ChaosSchedule.for_log(log, seed=1)
    log_path = tmp_path / "chaos.jsonl"
    trace_path = tmp_path / "chaos_traces.jsonl"
    report = asyncio.run(run_chaos(
        log, schedule, tenant="chaos-traced",
        chaos_log_path=str(log_path),
        trace_log_path=str(trace_path),
    ))
    assert report.ok, report.summary()
    assert report.divergent_trace is None
    assert report.divergent_spans == []
    # Journal fault/retry entries carry the ids needed to pivot into
    # the trace recording.
    lines = [json.loads(line)
             for line in log_path.read_text().splitlines()]
    stamped = [line for line in lines
               if line["kind"] in ("window_retry", "hello")]
    assert stamped, "chaos run must journal hellos/retries"
    assert all("trace" in line and "rid" in line for line in stamped)
    spans = [json.loads(line)
             for line in trace_path.read_text().splitlines()]
    assert spans, "always-on tracing must record spans"
    assert {span["name"] for span in spans} >= {"request", "queue",
                                                "shard_service"}
    assert all(span["trace"].startswith("chaos1-") for span in spans)
