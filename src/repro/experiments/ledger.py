"""The science ledger: every number EXPERIMENTS.md quotes, re-measured.

:func:`measure` runs each quantity through the figure runners, the
resilience sweep and the :mod:`repro.ext` studies; the committed
``science_ledger.json`` keeps each value with its tolerance band and
master seed; :data:`CLAIMS` are the named shape assertions that must
hold on the values.  Figures 1 and 4-10 and MRMM against ODMRP run at
the paper's full scenario (50 robots, 30 simulated minutes) on seed 1,
the Figure 7 orderings also on seeds 2-3; the resilience table at its
shipped 600 s on seeds 1-3; the section 5/6 ablations at reduced scale.
Ledger runs never use the result cache: its hand-bumped salt could
let a stale hit replay old bytes.  The ledger and the document live at
the root of the source checkout.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.analysis.seeds import compare_scenarios, run_seed_sweep
from repro.core.config import CoCoAConfig, LocalizationFilter, LocalizationMode
from repro.core.team import CoCoATeam
from repro.energy.battery import Battery, project_lifetime
from repro.experiments.figures import (
    run_fig1, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8, run_fig9, run_fig10,
    run_mrmm_ablation,
)
from repro.experiments.metrics import summarize_errors
from repro.experiments.resilience import run_resilience_sweep
from repro.ext.failures import FailureSchedule, ResilientTeam
from repro.ext.georouting import run_georouting_study
from repro.ext.online_routing import RoutingTeam
from repro.ext.power_control import run_power_sweep
from repro.ext.promotion import PromotionConfig, PromotionTeam
from repro.sim.rng import RandomStreams

_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
LEDGER_PATH = os.path.join(_ROOT, "science_ledger.json")
DOC_PATH = os.path.join(_ROOT, "EXPERIMENTS.md")
SCHEMA = "repro-science-ledger/1"

Value = Union[bool, int, float]
Values = Dict[str, Value]
Seed = Union[int, List[int]]
#: key -> (value, master seed(s) it was measured on)
Measured = Dict[str, Tuple[Value, Seed]]

#: Relative half-width of every band no claim or document wording fixes.
RELATIVE_BAND = 0.10

#: Bands fixed by a two-sided bench assertion or the document's wording.
FIXED_BANDS: Dict[str, Tuple[float, float]] = {
    "fig9.T10.energy_ratio": (1.5, 4.5),      # 1.5 < ratio(T=10) < 4.5
    "fig9.T300.energy_ratio": (5.0, 14.0),    # 5 < ratio(T=300) < 14
    # "more than 90% of robots are within 10 m" right after the window
    "fig8.end_of_transmit_window.frac_within_10m": (0.9, 1.0),
    "seeds.p_value": (0.0, 0.01),             # "Welch p < 0.01"
}

SPEEDS = (0.5, 2.0)
PERIODS = (10.0, 50.0, 100.0, 300.0)
ANCHOR_COUNTS = (5, 15, 25, 35)
INTENSITIES = (0.0, 0.5, 1.0)
#: The seeds the "holds on every seed" orderings are measured on.
SEEDS = (1, 2, 3)


def _num(x: float) -> str:
    """Key fragment for a sweep coordinate: 2.0 -> "2", 0.5 -> "0.5"."""
    return "%g" % x


# ----------------------------------------------------------------------
# Measurement: one function per section, key -> value.  The shapes are
# fixed here on purpose; there is no knob to shrink them.
# ----------------------------------------------------------------------


def _fig1(jobs: int) -> Values:
    bins = run_fig1()["bins"]
    out: Values = {}
    for name, rssi in (("near", -52), ("far", -86)):
        data, p = bins[rssi], "fig1.%s." % name
        out[p + "is_gaussian"] = bool(data["is_gaussian"])
        out[p + "mean_m"] = data["mean_m"]
        out[p + "std_m"] = data["std_m"]
        out[p + "skewness"] = data["sample_skewness"]
        out[p + "excess_kurtosis"] = data["sample_excess_kurtosis"]
    return out


def _fig4(jobs: int) -> Values:
    out: Values = {}
    for v_max, data in run_fig4(v_maxes=SPEEDS, jobs=jobs).items():
        series, p = data["mean_error"], "fig4.v%s." % _num(v_max)
        out[p + "time_average_m"] = data["summary"].time_average_m
        out[p + "final_m"] = data["summary"].final_m
        out[p + "error_at_sixth_m"] = float(series[len(series) // 6])
    return out


def _fig5(jobs: int) -> Values:
    result = run_fig5(master_seed=1)
    errors = result["errors"]
    third = len(errors) // 3
    return {
        "fig5.path_length_m": float(result["path_length_m"]),
        "fig5.final_error_m": float(result["final_error_m"]),
        "fig5.start_error_m": float(errors[0]),
        "fig5.early_third_mean_m": float(errors[:third].mean()),
        "fig5.late_third_mean_m": float(errors[-third:].mean()),
    }


def _fig6(jobs: int) -> Values:
    result = run_fig6(beacon_periods_s=PERIODS, jobs=jobs)
    return {
        "fig6.T%s.time_average_m" % _num(t): d["summary"].time_average_m
        for t, d in result.items()
    }


def _fig7(jobs: int, seed: int = 1) -> Values:
    result = run_fig7(v_maxes=SPEEDS, master_seed=seed, jobs=jobs)
    out: Values = {}
    for v_max, modes in result.items():
        for mode, data in modes.items():
            p = "%sv%s.%s." % (_fig7_base(seed), _num(v_max), mode)
            out[p + "time_average_m"] = data["summary"].time_average_m
            if mode == "odometry_only":
                out[p + "final_m"] = data["summary"].final_m
    return out


def _fig7_base(seed: int) -> str:
    return "fig7." if seed == 1 else "fig7.seed%d." % seed


def _fig8(jobs: int) -> Values:
    out: Values = {}
    for instant, data in run_fig8().items():
        p = "fig8.%s." % instant
        out[p + "time_s"] = float(data["time_s"])
        out[p + "median_m"] = data["median_m"]
        out[p + "p90_m"] = data["p90_m"]
        out[p + "frac_within_10m"] = float((data["errors"] < 10.0).mean())
    return out


def _fig9(jobs: int) -> Values:
    out: Values = {}
    for t, data in run_fig9(beacon_periods_s=PERIODS, jobs=jobs).items():
        p = "fig9.T%s." % _num(t)
        out[p + "time_average_m"] = data["summary"].time_average_m
        for name in ("energy_coordinated_j", "energy_uncoordinated_j", "energy_ratio"):
            out[p + name] = data[name]
    return out


def _fig10(jobs: int) -> Values:
    out: Values = {}
    for count, data in run_fig10(ANCHOR_COUNTS, jobs=jobs).items():
        out["fig10.anchors%d.time_average_m" % count] = data["summary"].time_average_m
        out["fig10.anchors%d.windows_without_fix" % count] = data["windows_without_fix"]
    return out


def _mrmm(jobs: int) -> Values:
    out: Values = {}
    for protocol, data in run_mrmm_ablation(1800.0, jobs=jobs).items():
        p = "mrmm.%s." % protocol
        for name in (
            "control_packets", "data_forwarded", "forwards_suppressed", "syncs_received",
        ):
            out[p + name] = int(data[name])
        out[p + "time_average_m"] = data["error_summary"].time_average_m
    return out


def _resilience(jobs: int, seed: int = 1) -> Values:
    result = run_resilience_sweep(
        INTENSITIES, duration_s=600.0, master_seed=seed, jobs=jobs
    )
    return {
        "resilience.seed%d.i%s.%s_m" % (seed, _num(i), label): cell["summary"].time_average_m
        for i, cells in result.items()
        for label, cell in cells.items()
    }


def _filter_ablation(jobs: int) -> Values:
    """Section 5: the grid filter swapped for Monte Carlo localization."""
    base = CoCoAConfig(duration_s=500.0, master_seed=6)
    out: Values = {}
    for kind in (LocalizationFilter.GRID, LocalizationFilter.PARTICLE):
        result = CoCoATeam(replace(base, localization_filter=kind)).run()
        p = "filter.%s." % kind.value
        out[p + "time_average_m"] = summarize_errors(
            result.errors, skip_first_s=base.beacon_period_s * 1.1 + 5
        ).time_average_m
        out[p + "fixes"] = result.fixes
    return out


def _promotion(jobs: int) -> Values:
    """Section 6: beacon promotion in an anchor-sparse team."""
    config = CoCoAConfig(n_anchors=10, duration_s=500.0, master_seed=5)
    out: Values = {}
    for label, gate in (("baseline", None), ("gate6", 6.0), ("gate60", 60.0)):
        team = (
            CoCoATeam(config) if gate is None else
            PromotionTeam(config, PromotionConfig(max_fix_std_m=gate))
        )
        result, p = team.run(), "promotion.%s." % label
        out[p + "time_average_m"] = summarize_errors(
            result.errors, skip_first_s=config.beacon_period_s
        ).time_average_m
        out[p + "windows_without_fix"] = result.windows_without_fix
        if gate is not None:
            out[p + "promoted_beacons"] = team.promoted_beacons_sent
    return out


def _power(jobs: int) -> Values:
    """Section 6: transmission power control."""
    out: Values = {}
    for point in run_power_sweep((-6.0, 0.0, 6.0), duration_s=400.0):
        p = "power.dB%+d." % point.power_delta_db
        out[p + "range_m"] = point.range_m
        out[p + "time_average_m"] = point.time_average_error_m
        out[p + "total_energy_j"] = point.total_energy_j
        out[p + "beacons_delivered"] = point.beacons_delivered
    return out


def _georouting(jobs: int) -> Values:
    """Section 6: greedy routing over CoCoA coordinates (offline)."""
    result = run_georouting_study(
        CoCoAConfig(duration_s=460.0, master_seed=9), snapshot_times=(184.0, 299.0, 414.0)
    )
    return {
        "georouting.attempts": result.attempts,
        "georouting.delivery_true": result.delivery_rate_true,
        "georouting.delivery_estimated": result.delivery_rate_estimated,
        "georouting.stretch_true": result.mean_stretch_true,
        "georouting.stretch_estimated": result.mean_stretch_estimated,
    }


def _online_routing(jobs: int) -> Values:
    """Section 6: geographic routing run live inside the simulator."""
    config = CoCoAConfig(beacon_period_s=50.0, duration_s=360.0, master_seed=7)
    team = RoutingTeam(config)
    rng = RandomStreams(50).get("traffic")

    def traffic() -> None:
        if team.sim.now < 2.2 * config.beacon_period_s:
            return  # let HELLO tables populate
        ids = [n.node_id for n in team.nodes]
        for _ in range(5):
            src, dst = rng.choice(ids, size=2, replace=False)
            dest = team.nodes[int(dst)].estimated_position(team.sim.now)
            team.routers[int(src)].send(int(dst), dest)

    team.on_window(traffic, delay_s=1.0)
    team.run()
    stats = team.routing_stats()
    hops = [p.hop_count for _, p in team.delivered_messages]
    return {
        "online.originated": stats.originated,
        "online.delivered": stats.delivered,
        "online.max_hops": max(hops) if hops else 0,
        "online.mean_table_size": float(
            np.mean([len(t) for t in team.neighbor_tables.values()])
        ),
    }


def _sync_failover(jobs: int) -> Values:
    """Robustness: the Sync robot dies at t = 100 s of 500 s."""
    config = CoCoAConfig(beacon_period_s=50.0, duration_s=500.0, master_seed=7)
    kill = FailureSchedule.of((100.0, 0))
    teams = {
        "baseline": ResilientTeam(config, failover=False),
        "sync_dies": ResilientTeam(
            config, kill, failover=False, resync_after_silent_periods=None
        ),
        "failover": ResilientTeam(config, kill, failover=True),
    }
    out: Values = {}
    for label, team in teams.items():
        result = team.run()
        out["sync.%s.syncs_received" % label] = result.syncs_received
        out["sync.%s.late_error_m" % label] = float(np.nanmean(result.errors[:, 300:]))
    acting = [f.node_id for f in teams["failover"].failovers.values() if f.is_acting_sync]
    out["sync.failover.acting_sync_robots"] = len(acting)
    out["sync.failover.first_acting_sync_id"] = acting[0] if acting else -1
    return out


def _attrition(jobs: int) -> Values:
    """Robustness: 2 anchors and 3 unknowns die across a 400 s run."""
    config = CoCoAConfig(beacon_period_s=50.0, duration_s=400.0, master_seed=9)
    schedule = FailureSchedule.of((80.0, 5), (140.0, 30), (200.0, 12), (260.0, 40), (320.0, 45))
    clean = ResilientTeam(config).run()
    team = ResilientTeam(config, schedule, failover=True)
    hit = team.run()
    return {
        "attrition.dead": len(team.dead),
        "attrition.clean.time_average_m": clean.time_average_error(),
        "attrition.hit.time_average_m": hit.time_average_error(),
        "attrition.clean.beacons_sent": clean.beacons_sent,
        "attrition.hit.beacons_sent": hit.beacons_sent,
        "attrition.hit.has_nan_errors": bool(np.isnan(hit.errors).any()),
        "attrition.hit.average_finite": bool(np.isfinite(hit.time_average_error())),
    }


def _lifetime(jobs: int) -> Values:
    """What Figure 9(b)'s joules buy: battery-projected mission time."""
    base = CoCoAConfig(duration_s=400.0, master_seed=4)
    out: Values = {}
    for label, coordination in (("coordinated", True), ("idle", False)):
        config = replace(base, coordination=coordination)
        result = CoCoATeam(config).run()
        life = project_lifetime(result.per_node_energy_j, 400.0, Battery())
        out["lifetime.%s.first_death_s" % label] = life.first_death_s
        out["lifetime.%s.last_death_s" % label] = life.last_death_s
    return out


def _seed_sensitivity(jobs: int) -> Values:
    """Is "CoCoA beats RF-only" seed noise?  T = 50 s, 400 s."""
    base = CoCoAConfig(duration_s=400.0, beacon_period_s=50.0)
    rf = replace(base, localization_mode=LocalizationMode.RF_ONLY)
    sweeps = {
        mode: run_seed_sweep(config, seeds=SEEDS, jobs=jobs)
        for mode, config in (("cocoa", base), ("rf_only", rf))
    }
    comparison = compare_scenarios(sweeps["cocoa"], sweeps["rf_only"])
    out: Dict[str, object] = {  # per-seed errors carry their own seed
        "seeds.%s.seed%d.time_average_m" % (mode, seed): (error, seed)
        for mode, sweep in sweeps.items()
        for seed, error in zip(SEEDS, sweep.error_time_averages_m)
    }
    out["seeds.mean_difference_m"] = comparison["mean_difference_m"]
    out["seeds.p_value"] = comparison["p_value"]
    return out


#: (name, master seed(s), measurement) in run order.  Sweeping sections
#: fan their runs out over ``jobs`` workers; the others run in-process.
SECTIONS: Tuple[Tuple[str, Seed, Callable[[int], Values]], ...] = (
    ("fig1", 1, _fig1),
    ("fig4", 1, _fig4),
    ("fig5", 1, _fig5),
    ("fig6", 1, _fig6),
    *(("fig7 seed %d" % s, s, partial(_fig7, seed=s)) for s in SEEDS),
    ("fig8", 1, _fig8),
    ("fig9", 1, _fig9),
    ("fig10", 1, _fig10),
    ("mrmm", 1, _mrmm),
    *(("resilience seed %d" % s, s, partial(_resilience, seed=s)) for s in SEEDS),
    ("filter", 6, _filter_ablation),
    ("promotion", 5, _promotion),
    ("power", 1, _power),
    ("georouting", 9, _georouting),
    ("online routing", 7, _online_routing),
    ("sync failover", 7, _sync_failover),
    ("attrition", 9, _attrition),
    ("lifetime", 4, _lifetime),
    ("seed sensitivity", list(SEEDS), _seed_sensitivity),
)


def measure(jobs: int = 1, log=sys.stderr) -> Measured:
    """Run every section at its ledger shape; never touches a cache."""
    out, start = {}, time.perf_counter()
    for name, seed, section in SECTIONS:
        out.update(
            (key, value if isinstance(value, tuple) else (value, seed))
            for key, value in section(jobs).items()
        )
        print("[%6.1fs] %s" % (time.perf_counter() - start, name), file=log)
    return out


# ----------------------------------------------------------------------
# Claims.  ``source`` is where each was first stated: a line of a former
# reduced-scale bench (mapped in CHANGES.md) or the document's wording.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """A named shape assertion that must hold on the ledger's values."""

    id: str
    source: str
    holds: Callable[[Values], bool]


def _at_both_speeds(test: Callable[[str], bool]) -> bool:
    return all(test("v%s." % _num(s)) for s in SPEEDS)


def _fig7_claims(seed: int) -> List[Claim]:
    tag, b = ("" if seed == 1 else "@seed%d" % seed), _fig7_base(seed)
    src = ("" if seed == 1 else "EXPERIMENTS.md (Figure 7 on every seed), ")
    src += "bench_fig7_cocoa_comparison.py:%d"

    def avg(v, speed, mode):
        return v[b + speed + mode + ".time_average_m"]

    return [
        Claim("fig7.cocoa_below_rf" + tag, src % 56, lambda v: _at_both_speeds(
            lambda s: avg(v, s, "cocoa") < avg(v, s, "rf_only"))),
        Claim("fig7.odometry_final_above_cocoa" + tag, src % 57, lambda v: _at_both_speeds(
            lambda s: v[b + s + "odometry_only.final_m"] > avg(v, s, "cocoa"))),
        Claim("fig7.fast_rf_penalty" + tag, src % 60,
              lambda v: avg(v, "v2.", "rf_only") > 1.5 * avg(v, "v2.", "cocoa")),
    ]


def _t(v, period: float, name: str = "time_average_m") -> float:
    return v["fig9.T%s.%s" % (_num(period), name)]


def _anchors(v, count: int) -> float:
    return v["fig10.anchors%d.time_average_m" % count]


def _per_seed(v, mode: str) -> List[float]:
    return [v["seeds.%s.seed%d.time_average_m" % (mode, s)] for s in SEEDS]


def _defended_wins(seed: int, intensity: float) -> Claim:
    cell = "resilience.seed%d.i%s." % (seed, _num(intensity))
    return Claim(
        "resilience.defended_wins@seed%d.i%s" % (seed, _num(intensity)),
        "EXPERIMENTS.md (resilience ordering on seeds 1-3)",
        lambda v: v[cell + "defended_m"] < v[cell + "undefended_m"],
    )


def _bench(name: str, *claims: Tuple[int, str, Callable[[Values], bool]]) -> List[Claim]:
    """The claims made from one former bench file's assertions."""
    return [Claim(cid, "%s.py:%d" % (name, line), holds) for line, cid, holds in claims]


_E = "energy_coordinated_j"
_POST, _END = "fig8.end_of_transmit_window.", "fig8.end_of_beacon_period."

CLAIMS: Tuple[Claim, ...] = (
    *_bench(
        "bench_fig1_calibration",
        (46, "fig1.near_bin_gaussian", lambda v: v["fig1.near.is_gaussian"]),
        (47, "fig1.near_bin_within_40m", lambda v: v["fig1.near.mean_m"] < 40.0),
        (48, "fig1.far_bin_not_gaussian", lambda v: not v["fig1.far.is_gaussian"]),
        (49, "fig1.far_bin_beyond_40m", lambda v: v["fig1.far.mean_m"] > 40.0),
        (51, "fig1.far_bin_more_skewed",
         lambda v: abs(v["fig1.far.skewness"]) > abs(v["fig1.near.skewness"])),
    ),
    *_bench(
        "bench_fig4_odometry",
        (50, "fig4.error_grows_unbounded", lambda v: _at_both_speeds(
            lambda s: v["fig4.%sfinal_m" % s] > 2.0 * v["fig4.%serror_at_sixth_m" % s])),
        (52, "fig4.final_drift_above_25m",
         lambda v: _at_both_speeds(lambda s: v["fig4.%sfinal_m" % s] > 25.0)),
        (54, "fig4.faster_drifts_faster",
         lambda v: v["fig4.v2.time_average_m"] > 0.8 * v["fig4.v0.5.time_average_m"]),
    ),
    *_bench(
        "bench_fig5_odometry_trace",
        # repro: noqa[REP004] the estimate starts at the true pose, exactly
        (34, "fig5.starts_exact", lambda v: v["fig5.start_error_m"] == 0.0),
        (35, "fig5.final_error_above_2m", lambda v: v["fig5.final_error_m"] > 2.0),
        (38, "fig5.error_accumulates",
         lambda v: v["fig5.late_third_mean_m"] > v["fig5.early_third_mean_m"]),
    ),
    *_bench(
        "bench_fig6_rf_only",
        (49, "fig6.t10_below_t300",
         lambda v: v["fig6.T10.time_average_m"] < v["fig6.T300.time_average_m"]),
        (50, "fig6.t50_below_t300",
         lambda v: v["fig6.T50.time_average_m"] < v["fig6.T300.time_average_m"]),
        (52, "fig6.t300_bounded", lambda v: v["fig6.T300.time_average_m"] < 120.0),
    ),
    Claim("fig6.monotone_in_T", "EXPERIMENTS.md (Figure 6: monotone in T)", lambda v: all(
        v["fig6.T%s.time_average_m" % _num(a)] < v["fig6.T%s.time_average_m" % _num(b)]
        for a, b in zip(PERIODS, PERIODS[1:]))),
    *(claim for seed in SEEDS for claim in _fig7_claims(seed)),
    Claim("fig7.cocoa_rf_odometry_order", "EXPERIMENTS.md (Figure 7: CoCoA < RF < odometry)",
          lambda v: _at_both_speeds(lambda s: v["fig7.%scocoa.time_average_m" % s]
                                    < v["fig7.%srf_only.time_average_m" % s]
                                    < v["fig7.%sodometry_only.time_average_m" % s])),
    *_bench(
        "bench_fig8_error_cdf",
        (51, "fig8.fresh_fix_best",
         lambda v: v[_POST + "median_m"] <= v[_END + "median_m"] + 1e-9),
        (54, "fig8.degradation_bounded",
         lambda v: v[_END + "median_m"] < 6.0 * max(v[_POST + "median_m"], 1.0)),
        (56, "fig8.majority_within_10m", lambda v: v[_POST + "frac_within_10m"] > 0.6),
    ),
    Claim("fig8.instants_ordered", "EXPERIMENTS.md (Figure 8: the three CDFs' order)",
          lambda v: v[_POST + "median_m"] < v["fig8.middle_of_beacon_period.median_m"]
          < v[_END + "median_m"]),
    *_bench(
        "bench_fig9_beacon_period",
        (58, "fig9.savings_grow_with_T", lambda v: all(
            _t(v, a, "energy_ratio") <= _t(v, b, "energy_ratio")
            for a, b in zip(PERIODS, PERIODS[1:]))),
        (59, "fig9.t10_ratio_in_range", lambda v: 1.5 < _t(v, 10.0, "energy_ratio") < 4.5),
        (60, "fig9.t300_ratio_in_range", lambda v: 5.0 < _t(v, 300.0, "energy_ratio") < 14.0),
        (63, "fig9.diminishing_returns", lambda v: (
            _t(v, 10.0, _E) - _t(v, 50.0, _E) > 2.0 * (_t(v, 100.0, _E) - _t(v, 300.0, _E)))),
        (65, "fig9.large_T_degrades", lambda v: _t(v, 300.0) > _t(v, 50.0)),
    ),
    *_bench(
        "bench_fig10_anchor_count",
        (50, "fig10.35_beats_15", lambda v: _anchors(v, 35) <= _anchors(v, 15)),
        (51, "fig10.25_beats_5", lambda v: _anchors(v, 25) <= _anchors(v, 5)),
        (53, "fig10.gentle_35_to_25", lambda v: _anchors(v, 25) < _anchors(v, 35) + 4.0),
        (55, "fig10.few_anchors_hurt", lambda v: _anchors(v, 5) > 1.5 * _anchors(v, 35)),
        (57, "fig10.sparse_teams_miss_rounds", lambda v: (
            v["fig10.anchors5.windows_without_fix"] > v["fig10.anchors35.windows_without_fix"])),
    ),
    Claim("deviation.cocoa_about_twice_paper", "EXPERIMENTS.md (deviation 1)",
          lambda v: 1.5 < v["fig7.v2.cocoa.time_average_m"] / 6.5 < 2.5),
    Claim("deviation.fig9a_no_t10_penalty", "EXPERIMENTS.md (deviation 2)",
          lambda v: _t(v, 10.0) < _t(v, 50.0)),
    *_bench(
        "bench_mrmm_ablation",
        (56, "mrmm.less_control_traffic", lambda v: (
            v["mrmm.mrmm.control_packets"] < 0.8 * v["mrmm.odmrp.control_packets"])),
        (57, "mrmm.fewer_data_transmissions", lambda v: (
            v["mrmm.mrmm.data_forwarded"] < 0.8 * v["mrmm.odmrp.data_forwarded"])),
        (58, "mrmm.suppresses_forwards", lambda v: v["mrmm.mrmm.forwards_suppressed"] > 0),
        (60, "mrmm.sync_delivery_kept", lambda v: (
            v["mrmm.mrmm.syncs_received"] > 0.8 * v["mrmm.odmrp.syncs_received"])),
        (62, "mrmm.localization_unaffected", lambda v: abs(
            v["mrmm.mrmm.time_average_m"] - v["mrmm.odmrp.time_average_m"]) < 6.0),
    ),
    *(_defended_wins(seed, i) for seed in SEEDS for i in INTENSITIES if i > 0),
    *_bench(
        "bench_filter_ablation",
        (58, "filter.particle_comparable", lambda v: (
            v["filter.particle.time_average_m"] < 1.4 * v["filter.grid.time_average_m"] + 2)),
        (59, "filter.grid_comparable", lambda v: (
            v["filter.grid.time_average_m"] < 1.4 * v["filter.particle.time_average_m"] + 2)),
        (61, "filter.grid_fixes", lambda v: v["filter.grid.fixes"] > 0),
        (62, "filter.particle_fixes", lambda v: v["filter.particle.fixes"] > 0),
    ),
    *_bench(
        "bench_extensions",
        (74, "promotion.promotes", lambda v: v["promotion.gate6.promoted_beacons"] > 0),
        (75, "promotion.rescues_windows", lambda v: (
            v["promotion.gate6.windows_without_fix"]
            <= v["promotion.baseline.windows_without_fix"])),
        (77, "promotion.gate_keeps_accuracy", lambda v: (
            v["promotion.gate6.time_average_m"] < v["promotion.baseline.time_average_m"] + 4)),
        (114, "power.range_grows", lambda v: (
            v["power.dB+6.range_m"] > v["power.dB+0.range_m"] > v["power.dB-6.range_m"])),
        (115, "power.deliveries_grow", lambda v: (
            v["power.dB+6.beacons_delivered"] > v["power.dB-6.beacons_delivered"])),
        (117, "power.low_power_no_gain", lambda v: (
            v["power.dB-6.time_average_m"] >= v["power.dB+6.time_average_m"] - 2.0)),
        (149, "georouting.enough_pairs", lambda v: v["georouting.attempts"] > 30),
        (151, "georouting.delivers", lambda v: v["georouting.delivery_estimated"] > 0.8),
        (152, "georouting.near_truth", lambda v: (
            v["georouting.delivery_estimated"] > v["georouting.delivery_true"] - 0.15)),
        (157, "georouting.low_stretch", lambda v: (
            math.isnan(v["georouting.stretch_estimated"])
            or v["georouting.stretch_estimated"] < 1.6)),
    ),
    *_bench(
        "bench_online_routing",
        (66, "online.enough_traffic", lambda v: v["online.originated"] >= 20),
        (67, "online.delivers",
         lambda v: v["online.delivered"] / max(v["online.originated"], 1) > 0.6),
        (68, "online.multi_hop", lambda v: v["online.max_hops"] >= 2),
        (69, "online.tables_populated", lambda v: v["online.mean_table_size"] > 8),
    ),
    *_bench(
        "bench_robustness",
        (86, "sync.outage_halts_sync", lambda v: (
            v["sync.sync_dies.syncs_received"] < 0.6 * v["sync.baseline.syncs_received"])),
        (90, "sync.failover_restores_sync", lambda v: (
            v["sync.failover.syncs_received"] > 1.5 * v["sync.sync_dies.syncs_received"])),
        (94, "sync.one_backup_in_charge",
         lambda v: v["sync.failover.acting_sync_robots"] == 1),
        (95, "sync.lowest_id_anchor_takes_over",
         lambda v: v["sync.failover.first_acting_sync_id"] == 1),
        (97, "sync.failover_recovers_accuracy",
         lambda v: v["sync.failover.late_error_m"] <= v["sync.sync_dies.late_error_m"]),
        (139, "attrition.five_dead", lambda v: v["attrition.dead"] == 5),
        (141, "attrition.modest_degradation", lambda v: (
            v["attrition.hit.time_average_m"] < v["attrition.clean.time_average_m"] + 10.0)),
        (143, "attrition.dead_anchors_silent",
         lambda v: v["attrition.hit.beacons_sent"] < v["attrition.clean.beacons_sent"]),
        (145, "attrition.dead_robots_nan", lambda v: v["attrition.hit.has_nan_errors"]),
        (146, "attrition.aggregate_finite", lambda v: v["attrition.hit.average_finite"]),
    ),
    *_bench(
        "bench_lifetime_and_seeds",
        (64, "lifetime.coordination_doubles_first_death", lambda v: (
            v["lifetime.coordinated.first_death_s"] / v["lifetime.idle.first_death_s"] > 2.0)),
        (65, "lifetime.idle_deaths_spread", lambda v: (
            v["lifetime.idle.first_death_s"] < v["lifetime.idle.last_death_s"])),
        (104, "seeds.cocoa_wins_every_seed",
         lambda v: max(_per_seed(v, "cocoa")) < min(_per_seed(v, "rf_only"))),
        (105, "seeds.mean_difference_negative", lambda v: v["seeds.mean_difference_m"] < 0),
        (106, "seeds.significant", lambda v: v["seeds.p_value"] < 0.05),
    ),
)


def false_claims(values: Values) -> List[Claim]:
    return [claim for claim in CLAIMS if not claim.holds(values)]


# ----------------------------------------------------------------------
# The committed ledger and the two verbs.
# ----------------------------------------------------------------------


def band_for(key: str, value: Value) -> Tuple[Value, Value]:
    """The tolerance band ``value`` is committed with."""
    if key in FIXED_BANDS:
        return FIXED_BANDS[key]
    if isinstance(value, bool):
        return (value, value)
    half = RELATIVE_BAND * abs(float(value))
    return (float(value) - half, float(value) + half)


def load_ledger() -> Dict:
    with open(LEDGER_PATH, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if ledger.get("schema") != SCHEMA:
        raise ValueError("%s: not a %s document" % (LEDGER_PATH, SCHEMA))
    return ledger


def committed_values(ledger: Dict) -> Values:
    return {key: entry["value"] for key, entry in ledger["values"].items()}


def compare(ledger: Dict, fresh: Values) -> List[str]:
    """One line per key missing, unexpected or outside its band, and per
    claim false on ``fresh``; empty when everything holds."""
    committed = ledger["values"]
    missing = sorted(set(committed) - set(fresh))
    failures = ["missing value %s" % key for key in missing]
    failures += [
        "unexpected value %s (not in the ledger)" % key
        for key in sorted(set(fresh) - set(committed))
    ]
    for key in sorted(set(committed) & set(fresh)):
        low, high = committed[key]["band"]
        if not low <= fresh[key] <= high:
            failures.append(
                "value %s = %r outside its band [%r, %r]" % (key, fresh[key], low, high)
            )
    if not missing:
        failures += [
            "claim %s is false (%s)" % (c.id, c.source) for c in false_claims(fresh)
        ]
    return failures


def _same(a: Value, b: Value) -> bool:
    """Bit-for-bit equality."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return a == b and type(a) is type(b)


def check(jobs: int = 1, out=sys.stdout) -> int:
    """Re-simulate every value and compare it with the committed ledger.

    Returns 0 when every value lies in its band and every claim holds,
    else 1; each failure is printed with its key.
    """
    ledger, start = load_ledger(), time.perf_counter()
    fresh = {key: value for key, (value, _) in measure(jobs).items()}
    wall_s = time.perf_counter() - start
    committed = committed_values(ledger)
    exact = sum(1 for k, value in fresh.items() if k in committed and _same(committed[k], value))
    failures = compare(ledger, fresh)
    for line in failures:
        print("FAIL %s" % line, file=out)
    print("ledger check: %d values (%d reproduced exactly), %d claims, %d failure(s), %.0f s"
          % (len(fresh), exact, len(CLAIMS), len(failures), wall_s), file=out)
    return 1 if failures else 0


def update(jobs: int = 1, out=sys.stdout) -> int:
    """Re-simulate, rewrite the ledger and regenerate EXPERIMENTS.md.

    The files are written even when a claim fails, so a re-baseline can
    be inspected; the exit code is 1 then.
    """
    measured = measure(jobs)
    ledger = {
        "schema": SCHEMA,
        "values": {
            key: {"value": value, "band": list(band_for(key, value)), "seed": seed}
            for key, (value, seed) in measured.items()
        },
    }
    entries = ",\n".join(
        "  %s: %s" % (json.dumps(key), json.dumps(entry))
        for key, entry in ledger["values"].items()
    )
    with open(LEDGER_PATH, "w", encoding="utf-8") as handle:  # one line per value
        handle.write('{\n "schema": "%s",\n "values": {\n%s\n }\n}\n' % (SCHEMA, entries))
    values = committed_values(ledger)
    with open(DOC_PATH, encoding="utf-8") as handle:
        doc = apply_blocks(handle.read(), render_blocks(values))
    with open(DOC_PATH, "w", encoding="utf-8") as handle:
        handle.write(doc)
    failed = false_claims(values)
    for claim in failed:
        print("FAIL claim %s is false (%s)" % (claim.id, claim.source), file=out)
    print("ledger update: wrote %d values to %s and regenerated %s"
          % (len(values), LEDGER_PATH, DOC_PATH), file=out)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# EXPERIMENTS.md's generated blocks: the headline table, then one table
# of ledger keys (value and band) per block, each followed by its claims.
# ----------------------------------------------------------------------

_BLOCK = re.compile(
    r"(<!-- ledger:begin (?P<name>[\w-]+) -->\n).*?(<!-- ledger:end (?P=name) -->)",
    re.DOTALL,
)


def apply_blocks(doc: str, blocks: Dict[str, str]) -> str:
    """Replace the body of every marked block of ``doc``.

    Raises:
        ValueError: when the markers and ``blocks`` name different blocks.
    """
    found = sorted(m.group("name") for m in _BLOCK.finditer(doc))
    if found != sorted(blocks):
        raise ValueError(
            "EXPERIMENTS.md marks blocks %s, the ledger renders %s" % (found, sorted(blocks))
        )
    return _BLOCK.sub(lambda m: m.group(1) + blocks[m.group("name")] + m.group(3), doc)


def _fmt(key: str, value: Value) -> str:
    """A value in its unit (taken from the key's suffix), real minus sign."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return "%d" % value
    unit = {"_m": "%.2f m", "_j": "%.0f J", "_s": "%.1f s"}.get(key[-2:], "%.4g")
    return (unit % value).replace("-", "−")


def _claims_line(prefixes: Sequence[str]) -> str:
    ids = ["`%s`" % c.id for c in CLAIMS if c.id.startswith(tuple(prefixes))]
    return "\nClaims: %s.\n" % ", ".join(ids) if ids else ""


def _key_table(values: Values, patterns: Sequence[str], claims: Sequence[str]) -> str:
    rows = ["| ledger key | measured | band |", "|---|---|---|"]
    for key, value in values.items():
        if any(fnmatch.fnmatchcase(key, p) for p in patterns):
            band = [_fmt(key, x if isinstance(x, bool) else float(x))
                    for x in band_for(key, value)]
            rows.append("| `%s` | %s | %s – %s |" % (key, _fmt(key, value), *band))
    return "\n".join(rows) + "\n" + _claims_line(claims)


def _headline(v: Values) -> str:
    cocoa, rf = v["fig7.v2.cocoa.time_average_m"], v["fig7.v2.rf_only.time_average_m"]
    rows = (
        ("CoCoA time-average error", "≈ 6.5 m", "%.2f m" % cocoa),
        ("RF-only time-average error", "≈ 33 m", "%.2f m" % rf),
        ("Odometry-only error after 30 min", "> 100 m",
         "%.1f m" % v["fig7.v2.odometry_only.final_m"]),
        ("CoCoA vs RF-only factor", "≈ 5×", "%.2f×" % (rf / cocoa)),
        ("CoCoA against the paper's 6.5 m", "1×", "%.2f×" % (cocoa / 6.5)),
        ("Energy saving from coordination", "2.6×–8×", "%.2f×–%.2f×" % (
            v["fig9.T10.energy_ratio"], v["fig9.T300.energy_ratio"])),
    )
    lines = ["| Quantity (T=100 s, v_max=2 m/s, 25 anchors) | Paper | Measured |", "|---|---|---|"]
    lines += ["| %s | %s | %s |" % row for row in rows]
    return "\n".join(lines) + "\n" + _claims_line(["deviation.cocoa"])


#: block name -> (ledger key patterns, claim id prefixes)
BLOCKS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "fig1": (("fig1.*",), ("fig1.",)),
    "fig4": (("fig4.*",), ("fig4.",)),
    "fig5": (("fig5.*",), ("fig5.",)),
    "fig6": (("fig6.*",), ("fig6.",)),
    "fig7": (("fig7.*",), ("fig7.",)),
    "fig8": (("fig8.*",), ("fig8.",)),
    "fig9a": (("fig9.*.time_average_m",), ("fig9.large", "deviation.fig9a")),
    "fig9b": (("fig9.*.energy_*",), ("fig9.savings", "fig9.t10", "fig9.t300", "fig9.dim")),
    "fig10": (("fig10.*",), ("fig10.",)),
    "mrmm": (("mrmm.*",), ("mrmm.",)),
    "filter": (("filter.*",), ("filter.",)),
    "promotion": (("promotion.*",), ("promotion.",)),
    "power": (("power.*",), ("power.",)),
    "georouting": (("georouting.*",), ("georouting.",)),
    "online-routing": (("online.*",), ("online.",)),
    "robustness": (("sync.*", "attrition.*"), ("sync.", "attrition.")),
    "lifetime": (("lifetime.*",), ("lifetime.",)),
    "seeds": (("seeds.*",), ("seeds.",)),
    "resilience": (("resilience.*",), ("resilience.",)),
}


def render_blocks(values: Values) -> Dict[str, str]:
    """Every marked block of EXPERIMENTS.md, rendered from ``values``."""
    blocks = {name: _key_table(values, *spec) for name, spec in BLOCKS.items()}
    blocks["headline"] = _headline(values)
    return blocks
