"""The two simulator workloads: ``fig7-cocoa`` and ``rf-dense-faults``.

A run simulates a *panel* of scenarios whose master seeds derive from
the run's ``--seed``, and repeats the whole panel while the run's time
allows (a panel is sized to take about ``run_seconds``, so usually one
pass).  The science metrics (error, fix share) and the digests come from
the panel and are identical on every pass.  A panel of many seeds, not one, keeps the
run-to-run spread under the bounds: single scenarios differ by about 12 %
in error and 6 % in work, so throughput is taken over the whole panel.

The timings are also corrected for the machine's speed.  On a shared
virtual machine the same scenario can run 25 % faster or slower from one
minute to the next (CPU steal and frequency changes of the host), which
no run length within the benchmark's time budget averages out.  A fixed
reference loop is timed before and after every scenario, and each of the
scenario's times is scaled by ``REFERENCE_S`` over the loop's time: the
figures read as if every scenario ran at the speed at which the loop
takes ``REFERENCE_S``.  The loop runs no program code, so a change to the
program moves the corrected figures exactly as it moves the raw ones;
the raw throughput is printed in each run's report.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import ctypes
import ctypes.util
import gc
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench.spans import (
    ROOT,
    SIM_TARGETS,
    Patches,
    SpanRecorder,
    ledger_problems,
)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    duration_s: float
    panel: int
    make_config: Callable[[int, float], object]

    def seeds(self, seed: int) -> List[int]:
        """Master seeds of the scenarios a run with ``seed`` simulates."""
        return [seed * self.panel + i + 1 for i in range(self.panel)]


def _fig7_config(master_seed: int, duration_s: float):
    from repro.core.config import LocalizationMode
    from repro.experiments.presets import fig7_config

    return fig7_config(
        LocalizationMode.COCOA, v_max=2.0, duration_s=duration_s,
        master_seed=master_seed,
    )


def _rf_dense_faults_config(master_seed: int, duration_s: float):
    from repro.experiments.presets import fig6_config
    from repro.experiments.resilience import (
        DEFENDED_DEFAULTS,
        example_fault_plan,
    )

    return replace(
        fig6_config(10.0, duration_s=duration_s, master_seed=master_seed),
        faults=example_fault_plan(1.0),
        defenses=DEFENDED_DEFAULTS,
    )


WORKLOADS: Dict[str, SimWorkload] = {
    "fig7-cocoa": SimWorkload("fig7-cocoa", 600.0, 24, _fig7_config),
    "rf-dense-faults": SimWorkload(
        "rf-dense-faults", 100.0, 12, _rf_dense_faults_config
    ),
}

#: The traced run simulates this share of the panel, twice (untraced for
#: the reference digests and the overhead, then traced).
TRACED_SHARE = 3

#: The estimator call that turns a closed beacon window into a fix; its
#: wall duration is the simulator's fix latency.
FIX_TARGET = (
    "repro.core.estimator", "PositionEstimator", "on_window_close", "fix",
)


def science_digest(result) -> str:
    """SHA-256 of everything a figure can read from one run."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.errors).tobytes())
    h.update(np.ascontiguousarray(result.times).tobytes())
    h.update(repr(result.measured_ids).encode())
    for node_id, joules in sorted(result.per_node_energy_j.items()):
        h.update(("%d:%s;" % (node_id, float(joules).hex())).encode())
    h.update(float(result.total_energy_j()).hex().encode())
    h.update(repr(result.channel_stats).encode())
    h.update(repr(result.multicast_stats).encode())
    h.update(repr((
        result.beacons_sent, result.fixes, result.windows_without_fix,
        result.syncs_received, result.beacons_gated,
        result.beacons_quarantined, result.watchdog_resets,
    )).encode())
    return h.hexdigest()


@dataclass
class Scenario:
    """One simulated scenario of a pass."""

    seed: int
    setup_s: float
    run_s: float
    robot_s: float
    digest: str
    loc_error_m: float
    energy_j: float
    fixes: int
    windows: int
    events: int
    channel: object
    multicast: object
    cache: Dict[str, int]
    #: Factor turning this scenario's wall times into reference-speed
    #: times (see the module docstring).
    speed: float = 1.0


def run_scenario(
    workload: SimWorkload,
    master_seed: int,
    recorder: Optional[SpanRecorder] = None,
) -> Scenario:
    """Build and run one scenario; with ``recorder``, inside a root span."""
    from repro.core.team import CoCoATeam

    config = workload.make_config(master_seed, workload.duration_s)
    root = recorder.open(ROOT) if recorder is not None else None
    start = time.perf_counter()
    # Construction builds the calibration table (no table is passed in)
    # and the whole team: the set-up a user pays per scenario.
    team = CoCoATeam(config)
    built = time.perf_counter()
    result = team.run()
    done = time.perf_counter()
    if root is not None:
        recorder.close(root)
    cache = team.constraint_cache
    return Scenario(
        seed=master_seed,
        setup_s=built - start,
        run_s=done - built,
        robot_s=config.n_robots * config.duration_s,
        digest=science_digest(result),
        loc_error_m=result.time_average_error(),
        energy_j=result.total_energy_j(),
        fixes=result.fixes,
        windows=result.fixes + result.windows_without_fix,
        events=team.sim.events_processed,
        channel=result.channel_stats,
        multicast=result.multicast_stats,
        cache=cache.counters() if cache is not None else {},
    )


_LIBC = ctypes.CDLL(ctypes.util.find_library("c") or None)


def _release_memory() -> None:
    """Free the previous scenario's cyclic garbage and hand the freed heap
    back to the OS, so ``peak_rss_mb`` is one scenario's peak rather than
    the heap the allocator kept from earlier ones, and no collection of
    that garbage lands inside the next timed scenario."""
    gc.collect()
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


#: The reference loop's time (s) on the 2-CPU VM the bounds were set on.
REFERENCE_S = 0.0165


def reference_loop_s() -> float:
    """Wall time of a fixed mix of interpreter and small-array numpy work,
    the two kinds of work the simulator does."""
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    values = np.arange(4096.0)
    for _ in range(200):
        values = np.sqrt(values * values + 1.0)
    return time.perf_counter() - start


def run_pass(
    workload: SimWorkload,
    seeds: List[int],
    recorder: Optional[SpanRecorder] = None,
) -> List[Scenario]:
    scenarios = []
    for seed in seeds:
        _release_memory()
        before = reference_loop_s()
        scenario = run_scenario(workload, seed, recorder)
        after = reference_loop_s()
        scenario.speed = REFERENCE_S / (0.5 * (before + after))
        scenarios.append(scenario)
    return scenarios


def _check_digests(
    passes: List[List[Scenario]], recorded: Dict[str, str]
) -> List[str]:
    """Why the run's science is wrong (empty when it is right)."""
    problems = []
    reference = passes[0]
    for other in passes[1:]:
        for a, b in zip(reference, other):
            if a.digest != b.digest:
                problems.append(
                    "seed %d: digest differs between passes" % a.seed
                )
    for scenario in reference:
        expected = recorded.get(str(scenario.seed))
        if expected is not None and expected != scenario.digest:
            problems.append(
                "seed %d: digest %s != recorded %s"
                % (scenario.seed, scenario.digest[:12], expected[:12])
            )
    return problems


def _mean_speed(scenarios: List[Scenario]) -> float:
    """Run-time-weighted speed factor, for figures pooled over scenarios."""
    return (sum(s.run_s * s.speed for s in scenarios)
            / sum(s.run_s for s in scenarios))


def _panel_science(scenarios: List[Scenario]) -> Dict[str, float]:
    windows = sum(s.windows for s in scenarios)
    return {
        "loc_error_m": statistics.fmean(s.loc_error_m for s in scenarios),
        "team_energy_kj": sum(s.energy_j for s in scenarios) / 1000.0,
        "fix_ratio": sum(s.fixes for s in scenarios) / windows,
    }


def measure(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    recorded: Dict[str, str],
) -> Dict[str, object]:
    """Untraced run: end-to-end metrics over whole-panel passes."""
    seeds = workload.seeds(seed)
    recorder = SpanRecorder()
    passes: List[List[Scenario]] = []
    started = time.perf_counter()
    with Patches(recorder, [FIX_TARGET]):
        while True:
            passes.append(run_pass(workload, seeds))
            elapsed = time.perf_counter() - started
            # Another pass only if it fits: a run is one panel pass unless
            # the machine is fast enough for more within ``seconds``.
            if elapsed + elapsed / len(passes) > seconds:
                break
    scenarios = [s for p in passes for s in p]
    speed = _mean_speed(scenarios)
    fix_ms = recorder.durations("fix") * 1000.0 * speed
    science = _panel_science(passes[0])
    problems = _check_digests(passes, recorded)
    rates = [
        sum(s.robot_s for s in p) / sum(s.run_s * s.speed for s in p)
        for p in passes
    ]
    raw_rates = [
        sum(s.robot_s for s in p) / sum(s.run_s for s in p) for p in passes
    ]
    setups = [s.setup_s * s.speed for s in scenarios]
    metrics = {
        "robot_s_per_wall_s": statistics.median(rates),
        "loc_error_m": science["loc_error_m"],
        "fix_latency_p50_ms": float(np.percentile(fix_ms, 50)),
        "fix_on_time_share": science["fix_ratio"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(),
    }
    attempted = len(passes) * len(seeds)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "detail": {
            "passes": len(passes),
            "master_seeds": "%d-%d" % (seeds[0], seeds[-1]),
            "fix_latency_samples": int(fix_ms.size),
            "fix_latency_p99_ms": float(np.percentile(fix_ms, 99)),
            "raw_robot_s_per_wall_s": statistics.median(raw_rates),
            "speed_factor": speed,
        },
    }


def measure_traced(
    workload: SimWorkload,
    seed: int,
    seconds: float,
    recorded: Dict[str, str],
) -> Dict[str, object]:
    """Traced run: an untraced, then a traced pass of part of the panel.

    The untraced pass is the reference for the digests and for the
    tracing overhead; the traced pass gives the per-layer ledger, over
    one root span per scenario (set-up and run).
    """
    seeds = workload.seeds(seed)[: max(1, workload.panel // TRACED_SHARE)]
    fixes = SpanRecorder()
    with Patches(fixes, [FIX_TARGET]):
        plain = run_pass(workload, seeds)
    recorder = SpanRecorder()
    with Patches(recorder, SIM_TARGETS):
        traced = run_pass(workload, seeds, recorder)
    problems = _check_digests([plain, traced], recorded)
    if problems:
        problems = ["traced: " + p for p in problems]
    spans = recorder.ledger()
    wall_s = float(recorder.durations(ROOT).sum())
    metrics = layer_metrics(traced, spans, wall_s)
    plain_s = sum(s.setup_s + s.run_s for s in plain)
    metrics["trace_overhead_pct"] = 100.0 * (wall_s / plain_s - 1.0)
    metrics["fix_latency_p99_ms"] = float(np.percentile(
        fixes.durations("fix") * 1000.0 * _mean_speed(plain), 99
    ))
    problems += ledger_problems(spans, wall_s)
    return {
        "metrics": metrics,
        "attempted": 2 * len(seeds),
        "failed": len(problems),
        "problems": problems,
        "detail": {"spans": len(recorder)},
    }


def _self_s(spans, name: str) -> float:
    return spans.get(name, {}).get("self_s", 0.0)


def _count(spans, name: str) -> int:
    return spans.get(name, {}).get("count", 0)


def layer_metrics(
    scenarios: List[Scenario],
    spans: Dict[str, Dict[str, float]],
    wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    channel = [s.channel for s in scenarios]
    offered = sum(c.frames_offered for c in channel)
    delivered = sum(c.frames_delivered for c in channel)
    hits = sum(s.cache.get("kernel_cache_constraint_hits", 0)
               for s in scenarios)
    misses = sum(s.cache.get("kernel_cache_constraint_misses", 0)
                 for s in scenarios)
    science = _panel_science(scenarios)
    other_s = _self_s(spans, ROOT)
    metrics = {
        "sim.engine.events": float(sum(s.events for s in scenarios)),
        "sim.engine.self_s": _self_s(spans, "sim.engine"),
        "net.channel.frames_sent": float(
            sum(c.frames_sent for c in channel)
        ),
        "net.channel.offered": float(offered),
        "net.channel.delivery_ratio": delivered / offered if offered else 0.0,
        "net.channel.transmit_s": _self_s(spans, "net.channel.transmit"),
        "net.channel.deliver_s": _self_s(spans, "net.channel.deliver"),
        "net.mac.self_s": _self_s(spans, "net.mac"),
        "net.interface.self_s": _self_s(spans, "net.interface"),
        "net.radio.self_s": _self_s(spans, "net.radio"),
        "core.coordinator.self_s": _self_s(spans, "core.coordinator"),
        "core.beaconing.self_s": _self_s(spans, "core.beaconing"),
        "core.estimator.self_s": _self_s(spans, "core.estimator"),
        "core.estimator.fix_ratio": science["fix_ratio"],
        "core.estimator.tick_s": _self_s(spans, "core.estimator.tick"),
        "core.bayes.apply_beacon_calls": float(
            _count(spans, "core.bayes.apply_beacon")
        ),
        "core.bayes.apply_beacon_s": _self_s(spans, "core.bayes.apply_beacon"),
        "core.pdf_table.lookup_s": _self_s(spans, "core.pdf_table.lookup"),
        "core.constraint_cache.self_s": _self_s(
            spans, "core.constraint_cache"
        ),
        "core.constraint_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "core.team.setup_s": _self_s(spans, "core.team.setup"),
        "core.team.sample_metrics_s": _self_s(
            spans, "core.team.sample_metrics"
        ),
        "mobility.odometry.read_calls": float(
            _count(spans, "mobility.odometry.read")
        ),
        "mobility.odometry.read_s": _self_s(spans, "mobility.odometry.read"),
        "mobility.waypoint.pose_s": _self_s(spans, "mobility.waypoint.pose"),
        "mobility.dead_reckoning.self_s": _self_s(
            spans, "mobility.dead_reckoning"
        ),
        "multicast.control_packets": float(sum(
            s.multicast.jq_originated + s.multicast.jq_forwarded
            + s.multicast.jr_sent
            for s in scenarios
        )),
        "multicast.self_s": _self_s(spans, "multicast"),
        "energy.meter.self_s": _self_s(spans, "energy.meter"),
        "team_energy_kj": science["team_energy_kj"],
        "fix_miss_share": 1.0 - science["fix_ratio"],
        "faults.injector_s": _self_s(spans, "faults.injector"),
        "faults.frames_dropped": float(sum(
            c.frames_jammed + c.frames_missed_brownout + c.frames_crc_dropped
            for c in channel
        )),
        "other_s": other_s,
        "bench.traced_wall_s": wall_s,
        "bench.attributed_share": 1.0 - other_s / wall_s,
        "bench.generator_lag_p99_ms": 0.0,
    }
    return metrics


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
