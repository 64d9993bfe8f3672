"""Regeneration of every evaluation figure in the paper.

Each ``run_fig*`` function reproduces the data behind one figure and
returns plain Python/numpy structures.  ``repro figure`` prints them, and
the science ledger (:mod:`repro.experiments.ledger`) records their values
at the paper's shape and asserts their shapes (who wins, where the knees
fall).

The multi-point runners (Figures 4, 6, 7, 9, 10 and the MRMM ablation)
declare their scenario runs as :class:`~repro.orchestrator.jobs.SweepJob`
lists and execute them through
:func:`~repro.orchestrator.executor.run_sweep`: pass ``jobs=N`` to fan
the points out over worker processes and ``cache=`` a
:class:`~repro.orchestrator.cache.ResultCache` to make warm reruns skip
simulation entirely.

Figures 2 and 3 are architecture diagrams (the CoCoA time-line and the
MRMM sync mesh) and have no data to regenerate; the system behaviour they
describe is exercised by the coordination and multicast test suites.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.calibration import CALIBRATION_SAMPLES, build_pdf_table
from repro.core.config import LocalizationMode, MulticastProtocol
from repro.core.team import CoCoATeam
from repro.experiments.metrics import cdf_points, summarize_errors
from repro.experiments.presets import (
    fig4_config,
    fig6_config,
    fig7_config,
    fig9_config,
    fig10_config,
    headline_config,
)
from repro.mobility.base import ScriptedMobility
from repro.mobility.dead_reckoning import DeadReckoning
from repro.mobility.odometry import OdometryNoise, OdometrySensor
from repro.net.phy import PathLossModel, ReceiverModel
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.executor import run_sweep
from repro.orchestrator.jobs import SweepJob
from repro.orchestrator.progress import ProgressListener
from repro.sim.rng import RandomStreams
from repro.util.geometry import Vec2

#: Figure 1's two RSSI bins (dBm): a near one and a far one.
FIG1_RSSI_DBM = (-52.0, -86.0)


def run_fig1(
    n_samples: int = CALIBRATION_SAMPLES, master_seed: int = 1
) -> Dict:
    """Figure 1: the PDF-versus-distance of the two :data:`FIG1_RSSI_DBM`
    bins, over the default channel.

    Returns, for each bin, the fitted distribution's metadata plus a
    Gaussianity diagnostic (excess kurtosis and skewness of the
    calibration samples in that bin): the near bin should be approximately
    Gaussian, the far bin visibly not.
    """
    path_loss = PathLossModel()
    rng = RandomStreams(master_seed).get("calibration")
    result = build_pdf_table(path_loss, rng, n_samples=n_samples)
    table = result.table

    # Re-sample the channel to compute shape diagnostics per requested bin.
    diag_rng = RandomStreams(master_seed).get("fig1-diagnostics")
    distances = diag_rng.uniform(1.0, table.support_max_m, size=n_samples)
    rssi = np.asarray(path_loss.sample_rssi(distances, diag_rng))
    keep = rssi >= ReceiverModel().sensitivity_dbm
    distances, rssi = distances[keep], rssi[keep]

    out: Dict = {"bins": {}, "calibration": result}
    for target in FIG1_RSSI_DBM:
        key = int(round(target))
        samples = distances[np.round(rssi).astype(int) == key]
        dist = table.bin_for(target)
        xs = np.linspace(0.0, table.support_max_m, 400)
        skew = kurt = float("nan")
        if samples.size > 10:
            centered = samples - samples.mean()
            std = samples.std()
            if std > 0:
                skew = float((centered**3).mean() / std**3)
                kurt = float((centered**4).mean() / std**4 - 3.0)
        out["bins"][key] = {
            "rssi_dbm": key,
            "is_gaussian": dist.is_gaussian,
            "mean_m": dist.mean_m,
            "std_m": dist.std_m,
            "pdf_x_m": xs,
            "pdf_y": dist.pdf(xs),
            "sample_skewness": skew,
            "sample_excess_kurtosis": kurt,
            "n_samples": int(samples.size),
        }
    return out


def run_fig4(
    v_maxes: Sequence[float] = (0.5, 2.0),
    duration_s: float = 1800.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[float, Dict]:
    """Figure 4: localization error over time using only odometry."""
    sweep = [
        SweepJob(
            config=fig4_config(
                v_max, duration_s=duration_s, master_seed=master_seed
            ),
            name="fig4 v_max=%g" % v_max,
            key=v_max,
            telemetry=telemetry_path is not None,
        )
        for v_max in v_maxes
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    out: Dict[float, Dict] = {}
    for job, result in zip(sweep, outcome.results):
        out[job.key] = {
            "times": result.times,
            "mean_error": result.mean_error_series(),
            "summary": summarize_errors(result.errors),
        }
    return out


def run_fig5(
    speed: float = 1.0,
    master_seed: int = 1,
    noise: Optional[OdometryNoise] = None,
) -> Dict:
    """Figure 5: one robot's real path versus its odometry estimate.

    Drives a deterministic multi-turn path (six waypoints, like the
    paper's illustration) and records the true and dead-reckoned positions
    at every waypoint, showing how the error compounds turn by turn.
    """
    if noise is None:
        noise = OdometryNoise()
    waypoints = [
        Vec2(10.0, 10.0),
        Vec2(90.0, 20.0),
        Vec2(110.0, 80.0),
        Vec2(60.0, 120.0),
        Vec2(140.0, 150.0),
        Vec2(180.0, 90.0),
    ]
    mobility = ScriptedMobility(waypoints, speed=speed)
    rng = RandomStreams(master_seed).get("fig5")
    sensor = OdometrySensor(mobility, rng, noise=noise)
    pose0 = mobility.pose(0.0)
    reckoner = DeadReckoning(pose0.position, pose0.heading)
    estimate = reckoner.row(0)

    true_path: List[Vec2] = [pose0.position]
    est_path: List[Vec2] = [pose0.position]
    errors: List[float] = [0.0]
    horizon = mobility.travel_time
    t = 0.0
    while t < horizon:
        t = min(t + 1.0, horizon)
        reckoner.advance(sensor.read(t))
        est = estimate.position
        true = mobility.position(t)
        true_path.append(true)
        est_path.append(est)
        errors.append(est.distance_to(true))
    return {
        "waypoints": waypoints,
        "true_path": true_path,
        "estimated_path": est_path,
        "errors": np.array(errors),
        "final_error_m": errors[-1],
        "path_length_m": sum(
            a.distance_to(b) for a, b in zip(waypoints, waypoints[1:])
        ),
    }


def run_fig6(
    beacon_periods_s: Sequence[float] = (10.0, 50.0, 100.0, 300.0),
    duration_s: float = 1800.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[float, Dict]:
    """Figure 6: RF-only localization error over time for several ``T``."""
    sweep = [
        SweepJob(
            config=fig6_config(
                period, duration_s=duration_s, master_seed=master_seed
            ),
            name="fig6 T=%g" % period,
            key=period,
            telemetry=telemetry_path is not None,
        )
        for period in beacon_periods_s
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    out: Dict[float, Dict] = {}
    for job, result in zip(sweep, outcome.results):
        period = job.key
        out[period] = {
            "times": result.times,
            "mean_error": result.mean_error_series(),
            "summary": summarize_errors(
                result.errors,
                skip_first_s=min(1.1 * period + 5.0, duration_s / 2),
            ),
        }
    return out


def run_fig7(
    v_maxes: Sequence[float] = (0.5, 2.0),
    duration_s: float = 1800.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[float, Dict[str, Dict]]:
    """Figure 7: odometry vs RF-only vs CoCoA at T = 100 s."""
    modes = (
        LocalizationMode.ODOMETRY_ONLY,
        LocalizationMode.RF_ONLY,
        LocalizationMode.COCOA,
    )
    sweep = [
        SweepJob(
            config=fig7_config(
                mode, v_max, duration_s=duration_s, master_seed=master_seed
            ),
            name="fig7 v_max=%g %s" % (v_max, mode.value),
            key=(v_max, mode.value),
            telemetry=telemetry_path is not None,
        )
        for v_max in v_maxes
        for mode in modes
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    out: Dict[float, Dict[str, Dict]] = {v_max: {} for v_max in v_maxes}
    for job, result in zip(sweep, outcome.results):
        v_max, mode_value = job.key
        out[v_max][mode_value] = {
            "times": result.times,
            "mean_error": result.mean_error_series(),
            "summary": summarize_errors(result.errors),
        }
    return out


def run_fig8(
    duration_s: float = 1800.0,
    master_seed: int = 1,
    window_index: Optional[int] = None,
) -> Dict[str, Dict]:
    """Figure 8: CDF of the localization error at three instants.

    The instants are the paper's: the end of a beacon period (just before
    the next transmit window), the end of a transmit window (right after
    localization), and the middle of a beacon period (radio asleep).
    Instants are derived from the Sync robot's clock so they track the
    team's actual (drifting) schedule.
    """
    config = headline_config(duration_s=duration_s, master_seed=master_seed)
    team = CoCoATeam(config)
    result = team.run()
    sync_clock = team.nodes[0].coordinator.clock
    T, t = config.beacon_period_s, config.transmit_window_s
    if window_index is None:
        window_index = max(2, int(0.45 * duration_s / T))

    local_instants = {
        "end_of_beacon_period": window_index * T - 2.0,
        "end_of_transmit_window": window_index * T + t + 1.0,
        "middle_of_beacon_period": window_index * T + t + (T - t) / 2.0,
    }
    out: Dict[str, Dict] = {}
    for name, local in local_instants.items():
        true_time = sync_clock.true_time_of(local)
        snapshot = result.error_snapshot(true_time)
        xs, ys = cdf_points(snapshot)
        out[name] = {
            "time_s": true_time,
            "errors": snapshot,
            "cdf_x": xs,
            "cdf_y": ys,
            "median_m": float(np.median(snapshot)),
            "p90_m": float(np.percentile(snapshot, 90.0)),
        }
    return out


def run_fig9(
    beacon_periods_s: Sequence[float] = (10.0, 50.0, 100.0, 300.0),
    duration_s: float = 1800.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[float, Dict]:
    """Figure 9: impact of ``T`` on error (a) and on energy with/without
    coordination (b)."""
    sweep = [
        SweepJob(
            config=fig9_config(
                period,
                coordination=coordination,
                duration_s=duration_s,
                master_seed=master_seed,
            ),
            name="fig9 T=%g %s"
            % (period, "coord" if coordination else "no-coord"),
            key=(period, coordination),
            telemetry=telemetry_path is not None,
        )
        for period in beacon_periods_s
        for coordination in (True, False)
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    by_key = outcome.by_key()
    out: Dict[float, Dict] = {}
    for period in beacon_periods_s:
        coord = by_key[(period, True)]
        no_coord = by_key[(period, False)]
        out[period] = {
            "times": coord.times,
            "mean_error": coord.mean_error_series(),
            "summary": summarize_errors(
                coord.errors, skip_first_s=min(period, duration_s / 2)
            ),
            "energy_coordinated_j": coord.total_energy_j(),
            "energy_uncoordinated_j": no_coord.total_energy_j(),
            "energy_ratio": (
                no_coord.total_energy_j() / coord.total_energy_j()
            ),
        }
    return out


def run_fig10(
    anchor_counts: Sequence[int] = (5, 15, 25, 35),
    duration_s: float = 1800.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[int, Dict]:
    """Figure 10: impact of the number of robots with localization
    devices."""
    sweep = [
        SweepJob(
            config=fig10_config(
                count, duration_s=duration_s, master_seed=master_seed
            ),
            name="fig10 anchors=%d" % count,
            key=count,
            telemetry=telemetry_path is not None,
        )
        for count in anchor_counts
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    out: Dict[int, Dict] = {}
    for job, result in zip(sweep, outcome.results):
        count = job.key
        summary = summarize_errors(
            result.errors,
            skip_first_s=min(
                1.1 * result.config.beacon_period_s + 5.0, duration_s / 2
            ),
        )
        out[count] = {
            "times": result.times,
            "mean_error": result.mean_error_series(),
            "summary": summary,
            "windows_without_fix": result.windows_without_fix,
        }
    return out


def run_mrmm_ablation(
    duration_s: float = 900.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> Dict[str, Dict]:
    """§2.3 claim: MRMM's pruning versus plain ODMRP.

    Runs the identical CoCoA scenario with each multicast protocol and
    reports control overhead, data transmissions and SYNC delivery.
    """
    sweep = [
        SweepJob(
            config=headline_config(
                duration_s=duration_s,
                master_seed=master_seed,
                multicast=protocol,
            ),
            name="mrmm-ablation %s" % protocol.value,
            key=protocol.value,
            telemetry=telemetry_path is not None,
        )
        for protocol in (MulticastProtocol.ODMRP, MulticastProtocol.MRMM)
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    out: Dict[str, Dict] = {}
    for job, result in zip(sweep, outcome.results):
        stats = result.multicast_stats
        control = stats.jq_originated + stats.jq_forwarded + stats.jr_sent
        out[job.key] = {
            "control_packets": control,
            "data_forwarded": stats.data_forwarded,
            "data_delivered": stats.data_delivered,
            "forwards_suppressed": stats.forwards_suppressed,
            "syncs_received": result.syncs_received,
            "error_summary": summarize_errors(result.errors),
            "total_energy_j": result.total_energy_j(),
        }
    return out
