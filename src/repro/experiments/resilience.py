"""Resilience sweep: localization error versus fault intensity.

The robustness question the fault layer exists to answer: *how fast does
CoCoA degrade as the channel and sensors go bad, and how much of that
degradation do the estimator defenses buy back?*  :func:`run_resilience_sweep`
runs the same scenario at several fault intensities, once with every
defense off and once with the shipped defense profile on, and reports the
error curves side by side.

The fault plan at intensity 1.0 (:func:`example_fault_plan`) is a "bad
day in the field" composite: a jammer-like burst interferer, half the
fleet with drifting RSSI calibration, occasional corrupted beacon
payloads and transient receiver brownouts.  Intensity scales every knob
linearly (loss and corruption probabilities saturate at 1), and
intensity 0 is the exact baseline scenario — the zero-intensity,
defenses-off cell of this sweep is bit-identical to a plain
:func:`~repro.experiments.runner.run_scenario` of the base config.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core.config import CoCoAConfig
from repro.experiments.metrics import summarize_errors
from repro.experiments.presets import headline_config
from repro.faults.spec import (
    BrownoutSpec,
    BurstInterferenceSpec,
    DefenseConfig,
    FaultPlan,
    PayloadCorruptionSpec,
    RssiBiasSpec,
)
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.executor import run_sweep
from repro.orchestrator.jobs import SweepJob
from repro.orchestrator.progress import ProgressListener

#: The defense profile the resilience experiment ships with: CRC-check
#: incoming beacons, reset degenerate posteriors, and quarantine anchors
#: whose fix residuals betray drifted calibration, with suspicion
#: decaying over six minutes so a recovered anchor is re-admitted.
#:
#: The beacon gate is deliberately *off* here: a per-beacon gate judges
#: single RSSI samples against the robot's own (possibly drifted)
#: estimate, and in every composite-fault profile we measured it
#: rejected more honest tails than faulty beacons.  It remains available
#: for deployments whose dominant fault is payload corruption with no
#: checksum support.
DEFENDED_DEFAULTS = DefenseConfig(
    crc_check=True,
    watchdog=True,
    anchor_expiry_s=360.0,
)


def example_fault_plan(intensity: float) -> FaultPlan:
    """The shipped fault composite, scaled by ``intensity``.

    Intensity 0 (or below) returns the no-op plan; intensity 1 is the
    profile described in the module docstring; values in between scale
    every rate, probability and magnitude linearly.
    """
    if intensity <= 0.0:
        return FaultPlan()
    return FaultPlan(
        burst=BurstInterferenceSpec(
            mean_good_s=45.0,
            mean_bad_s=6.0,
            bad_loss_prob=min(0.3 * intensity, 1.0),
            bad_noise_db=4.0 * intensity,
        ),
        rssi_bias=RssiBiasSpec(
            bias_std_db=3.0 * intensity,
            drift_db_per_min=1.0 * intensity,
            fraction_affected=0.5,
        ),
        corruption=PayloadCorruptionSpec(
            corrupt_prob=min(0.35 * intensity, 1.0)
        ),
        brownout=BrownoutSpec(
            rate_per_hour=10.0 * intensity, mean_duration_s=12.0
        ),
    )


def run_resilience_sweep(
    intensities: Sequence[float] = (0.0, 0.5, 1.0),
    base_config: Optional[CoCoAConfig] = None,
    duration_s: float = 600.0,
    master_seed: int = 1,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    defenses: DefenseConfig = DEFENDED_DEFAULTS,
    telemetry_path: Optional[str] = None,
) -> Dict[float, Dict[str, Dict]]:
    """Error-versus-intensity curves, with and without defenses.

    Args:
        intensities: fault intensities to sweep (0 = clean baseline).
        base_config: scenario to perturb; defaults to the headline
            scenario at ``duration_s`` / ``master_seed``.
        duration_s: simulated seconds (only used for the default config).
        master_seed: master seed (only used for the default config).
        jobs: worker processes (> 1 uses the process pool).
        cache: optional result cache; every cell is fingerprinted with
            its fault plan and defense profile, so cells are reusable
            across sweeps.
        progress: optional progress listener.
        defenses: the defense profile for the "defended" cells.
        telemetry_path: when set, executed cells run with rich telemetry
            and the per-job snapshots are written to this JSONL path.

    Returns:
        ``{intensity: {"undefended": cell, "defended": cell}}`` where each
        cell has the run's ``summary`` (:class:`ErrorSummary`), the raw
        ``times``/``mean_error`` series and the defense/fault counters
        (``beacons_gated``, ``beacons_quarantined``, ``watchdog_resets``,
        ``channel_stats``).
    """
    if base_config is None:
        base_config = headline_config(
            duration_s=duration_s, master_seed=master_seed
        )
    variants = (
        ("undefended", DefenseConfig()),
        ("defended", defenses),
    )
    sweep = [
        SweepJob(
            config=replace(
                base_config,
                faults=example_fault_plan(intensity),
                defenses=defense,
            ),
            name="resilience i=%g %s" % (intensity, label),
            key=(intensity, label),
            telemetry=telemetry_path is not None,
        )
        for intensity in intensities
        for label, defense in variants
    ]
    outcome = run_sweep(
        sweep, n_jobs=jobs, cache=cache, progress=progress,
        telemetry_path=telemetry_path,
    )
    skip_s = min(
        1.1 * base_config.beacon_period_s + 5.0, base_config.duration_s / 2
    )
    out: Dict[float, Dict[str, Dict]] = {i: {} for i in intensities}
    for job, result in zip(sweep, outcome.results):
        intensity, label = job.key
        out[intensity][label] = {
            "times": result.times,
            "mean_error": result.mean_error_series(),
            "summary": summarize_errors(result.errors, skip_first_s=skip_s),
            "beacons_gated": result.beacons_gated,
            "beacons_quarantined": result.beacons_quarantined,
            "watchdog_resets": result.watchdog_resets,
            "channel_stats": result.channel_stats,
        }
    return out
