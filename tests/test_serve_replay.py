"""The service-path determinism gate: replayed fixes == batch fixes.

For three master seeds, a real batch scenario is recorded through the
estimator ingestion tap and replayed through the service; every fix the
service produces must match the batch fix **byte for byte**
(``float.hex`` on both coordinates), both for in-order delivery and for
randomly shuffled delivery within each beacon window.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.core.config import CoCoAConfig, LocalizationMode
from repro.serve.client import InProcessClient
from repro.serve.replay import diff_fixes, record_replay_log, replay_log
from repro.serve.server import ServeConfig, ServiceCore
from repro.util.geometry import Rect

GATE_SEEDS = (1, 2, 3)

#: SHA-256 of the close records an in-order replay of the seed-1 log
#: returns (sorted-key JSON).  The gates above compare serve with batch,
#: so a change that moves both together passes them; it fails this pin.
SEED1_CLOSES_SHA256 = (
    "e8afa46ed0a3ea54480aae0a73de0a5b0eec82a05c966e9d80b0ae0337fa746d"
)


def _scenario(seed: int) -> CoCoAConfig:
    return CoCoAConfig(
        area=Rect.square(80.0),
        n_robots=10,
        n_anchors=5,
        beacon_period_s=20.0,
        duration_s=60.0,
        master_seed=seed,
        calibration_samples=4000,
        localization_mode=LocalizationMode.RF_ONLY,
    )


@pytest.fixture(scope="module")
def recorded_logs():
    """One recorded batch run per gate seed (the expensive part, shared)."""
    logs = {}
    for seed in GATE_SEEDS:
        log, result = record_replay_log(_scenario(seed))
        assert result.fixes > 0, "gate scenario must produce fixes"
        logs[seed] = log
    return logs


def _replay(log, tenant, shuffle_rng=None, **serve_overrides):
    async def scenario():
        core = ServiceCore(ServeConfig(n_shards=2, **serve_overrides))
        client = InProcessClient(core)
        try:
            return await replay_log(client, log, tenant,
                                    shuffle_rng=shuffle_rng)
        finally:
            await core.stop()

    return asyncio.run(scenario())


#: Tracing shapes the gate must be blind to: off, record-everything,
#: and tail-sampling with a 0 ms threshold (every request takes the
#: tail-keep path).  The in-order gate below runs the serving default
#: (``sampled``).
TRACE_SHAPES = {
    "off": {"trace_mode": "off"},
    "always": {"trace_mode": "always"},
    "tail": {"trace_mode": "sampled", "trace_slow_ms": 0.0,
             "trace_sample_every": 10**6},
}


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_service_fixes_byte_identical_in_order(recorded_logs, seed):
    log = recorded_logs[seed]
    assert any(
        e["kind"] == "close" and e["fixed"] for e in log.events
    ), "recording captured no fixes"
    replayed = _replay(log, "gate-%d" % seed)
    assert diff_fixes(log, replayed) == []


@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_service_fixes_byte_identical_out_of_order(recorded_logs, seed):
    log = recorded_logs[seed]
    shuffled = _replay(
        log, "ooo-%d" % seed,
        shuffle_rng=np.random.default_rng(1000 + seed),
    )
    assert diff_fixes(log, shuffled) == []


@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
@pytest.mark.parametrize("seed", GATE_SEEDS)
def test_service_fixes_byte_identical_under_tracing(
    recorded_logs, seed, shape
):
    """Wall-clock tracing must be invisible to the science bytes:
    the gate passes identically with tracing off, recording every
    request, or tail-sampling all of them."""
    log = recorded_logs[seed]
    replayed = _replay(log, "trace-%s-%d" % (shape, seed),
                       **TRACE_SHAPES[shape])
    assert diff_fixes(log, replayed) == []


def test_recording_does_not_change_batch_results():
    """The ingest tap is pure observation: a tapped run's TeamResult
    matches an untapped run of the same scenario exactly."""
    from repro.core.team import CoCoATeam

    config = _scenario(GATE_SEEDS[0])
    _log, tapped = record_replay_log(config)
    plain = CoCoATeam(_scenario(GATE_SEEDS[0])).run()
    assert tapped.fixes == plain.fixes
    np.testing.assert_array_equal(tapped.errors, plain.errors)
    np.testing.assert_array_equal(tapped.times, plain.times)


def test_diff_fixes_reports_divergence(recorded_logs):
    log = recorded_logs[GATE_SEEDS[0]]
    replayed = _replay(log, "tampered")
    fixed = [r for r in replayed if r["fixed"]]
    fixed[0]["x_hex"] = "0x1.0p+0"
    problems = diff_fixes(log, replayed)
    assert len(problems) == 1
    assert "x_hex differs" in problems[0]


def test_served_fixes_match_the_committed_digest(recorded_logs):
    replayed = _replay(recorded_logs[1], "pinned")
    assert sum(record["fixed"] for record in replayed) == 15
    encoded = json.dumps(replayed, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(encoded).hexdigest() == SEED1_CLOSES_SHA256
