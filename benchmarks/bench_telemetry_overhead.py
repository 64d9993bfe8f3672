"""Telemetry overhead: disabled mode must cost (almost) nothing.

Two claims are benchmarked on a Figure-6-sized scenario:

1. **Disabled-mode overhead.**  Runs without a telemetry handle go
   through plain attribute counters and the :data:`NULL_REGISTRY`
   shim; a run must cost the same as before the subsystem existed.
   The microbenchmark pins the shim's per-call cost, and the scenario
   pair below bounds the end-to-end gap.
2. **Enabled-mode overhead.**  Rich mode (registry + span tracer) may
   cost a little, but it must stay a small fraction of the run — and it
   must not change a single output byte (also regression-tested in
   ``tests/test_telemetry.py``).
"""

import time

import pytest

from repro.core.config import CoCoAConfig
from repro.core.team import CoCoATeam
from repro.telemetry import NULL_REGISTRY, Telemetry
from repro.util.geometry import Rect

#: Simulated seconds of the fig6-sized scenario pair.
DURATION_S = 300.0


def _fig6_config(duration_s: float) -> CoCoAConfig:
    return CoCoAConfig(
        area=Rect.square(200.0),
        n_robots=50,
        n_anchors=25,
        beacon_period_s=50.0,
        duration_s=duration_s,
        calibration_samples=20_000,
    )


@pytest.fixture()
def report(capsys):
    """Print a benchmark's table straight to the terminal (uncaptured)."""

    def _report(title: str, lines) -> None:
        with capsys.disabled():
            print("\n" + "=" * 72 + "\n" + title + "\n" + "=" * 72)
            for line in lines:
                print(line)

    return _report


def _timed_run(config, table, telemetry=None):
    start = time.perf_counter()
    result = CoCoATeam(config, pdf_table=table, telemetry=telemetry).run()
    return result, time.perf_counter() - start


def test_null_registry_per_call_cost(benchmark, report):
    """The disabled shim: one attribute lookup and a no-op call."""
    counter = NULL_REGISTRY.counter("bench")

    def spin():
        for _ in range(10_000):
            counter.inc()

    benchmark.pedantic(spin, rounds=5, iterations=1)
    per_call_ns = 1e9 * benchmark.stats.stats.min / 10_000
    report("Telemetry - disabled-shim per-call cost", [
        "null counter inc: %.0f ns/call" % per_call_ns,
        "",
        "Claim: the no-op shim is within noise of not instrumenting;",
        "a 50-node run makes ~1e5 instrument calls, so even 100 ns/call",
        "is < 0.1% of a multi-second simulation.",
    ])
    assert per_call_ns < 2_000  # generous: sub-2us even on busy CI


def test_fig6_run_overhead_disabled_vs_enabled(benchmark, report):
    config = _fig6_config(DURATION_S)
    # Calibrate once and warm up: the timed runs share the table.
    warm = CoCoATeam(config)
    warm.run()
    table = warm.pdf_table

    baseline, baseline_s = _timed_run(config, table)

    def run_enabled():
        return _timed_run(config, table, telemetry=Telemetry())

    (rich, enabled_s) = benchmark.pedantic(
        run_enabled, rounds=1, iterations=1
    )
    # Re-time the disabled run after the enabled one so cache warmth and
    # CPU state are comparable in either direction.
    _, baseline2_s = _timed_run(config, table)
    disabled_s = min(baseline_s, baseline2_s)
    overhead = enabled_s / disabled_s - 1.0 if disabled_s > 0 else 0.0

    report("Telemetry - fig6-sized run, disabled vs enabled", [
        "disabled: %.2f s    enabled: %.2f s    overhead: %+.1f%%"
        % (disabled_s, enabled_s, 100.0 * overhead),
        "spans recorded: %d (dropped %d)"
        % (rich.telemetry.get("trace_spans_recorded"),
           rich.telemetry.get("trace_spans_dropped")),
        "",
        "Claim: rich mode stays a small fraction of the run and output",
        "is bit-identical either way.",
    ])

    # The load-bearing assertion: telemetry never changes results.
    assert baseline.errors.tobytes() == rich.errors.tobytes()
    assert baseline.total_energy_j() == rich.total_energy_j()
    # Rich mode actually recorded something.
    assert rich.telemetry.get("trace_spans_recorded") > 0
    # Overhead bound, slack enough for noisy CI machines: the enabled
    # run must stay well under 1.5x the disabled run.
    assert enabled_s < 1.5 * disabled_s
