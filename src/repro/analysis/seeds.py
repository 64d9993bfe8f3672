"""Seed sweeps: one scenario, many random worlds.

:func:`run_seed_sweep` re-runs a :class:`~repro.core.config.CoCoAConfig`
under several master seeds and aggregates the headline metrics.  Because
every stochastic component derives from the master seed, each run is a
fully independent world (topologies, noise, clock drifts, calibration
campaign) while the scenario parameters stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import ConfidenceInterval, mean_confidence_interval
from repro.core.config import CoCoAConfig
from repro.experiments.metrics import summarize_errors
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.executor import run_sweep
from repro.orchestrator.jobs import seed_jobs
from repro.orchestrator.progress import ProgressListener


@dataclass(frozen=True)
class SeedSweepResult:
    """Aggregated metrics over a seed sweep.

    Attributes:
        config: the (seed-less) scenario swept.
        seeds: seeds used.
        error_time_averages_m: per-seed time-average localization error.
        energy_totals_j: per-seed team energy.
        error_ci: confidence interval over the error averages.
        energy_ci: confidence interval over the energy totals.
    """

    config: CoCoAConfig
    seeds: List[int]
    error_time_averages_m: List[float]
    energy_totals_j: List[float]
    error_ci: ConfidenceInterval
    energy_ci: ConfidenceInterval

    @property
    def relative_spread(self) -> float:
        """Std/mean of the error metric — the seed-sensitivity measure."""
        values = np.asarray(self.error_time_averages_m)
        # repro: noqa[REP004] exact-zero guard before dividing by the mean
        if values.mean() == 0.0:
            return 0.0
        return float(values.std(ddof=1) / values.mean())


def run_seed_sweep(
    config: CoCoAConfig,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    skip_first_s: Optional[float] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressListener] = None,
    telemetry_path: Optional[str] = None,
) -> SeedSweepResult:
    """Run ``config`` under each seed and aggregate the metrics.

    The per-seed runs are independent, so they fan out through
    :func:`~repro.orchestrator.executor.run_sweep`: ``jobs > 1`` executes
    them on a process pool (bit-identical to serial execution) and
    ``cache`` memoizes finished runs on disk.

    Args:
        config: the scenario; its own ``master_seed`` is ignored.
        seeds: master seeds to sweep (at least two).
        skip_first_s: warm-up to exclude from error averaging; defaults
            to just past the first beacon period.
        jobs: worker processes (1 = in-process serial execution).
        cache: optional content-addressed result cache.
        progress: optional per-job progress listener.
        telemetry_path: when set, executed jobs run with rich telemetry
            and the per-job snapshots are written to this JSONL path.

    Raises:
        ValueError: with fewer than two seeds.
    """
    if len(seeds) < 2:
        raise ValueError("need at least 2 seeds, got %d" % len(seeds))
    if skip_first_s is None:
        skip_first_s = min(
            1.1 * config.beacon_period_s + 5.0, config.duration_s / 2
        )
    outcome = run_sweep(
        seed_jobs(config, seeds, telemetry=telemetry_path is not None),
        n_jobs=jobs,
        cache=cache,
        progress=progress,
        telemetry_path=telemetry_path,
    )
    errors: List[float] = []
    energies: List[float] = []
    for result in outcome.results:
        summary = summarize_errors(result.errors, skip_first_s=skip_first_s)
        errors.append(summary.time_average_m)
        energies.append(result.total_energy_j())
    return SeedSweepResult(
        config=config,
        seeds=list(seeds),
        error_time_averages_m=errors,
        energy_totals_j=energies,
        error_ci=mean_confidence_interval(errors),
        energy_ci=mean_confidence_interval(energies),
    )


def compare_scenarios(
    a: SeedSweepResult, b: SeedSweepResult
) -> Dict[str, float]:
    """Welch-test the error metric of two sweeps.

    Returns a dict with the mean difference, t statistic and p value —
    the evidence behind "scenario A is more accurate than scenario B".
    """
    from repro.analysis.stats import welch_t_test

    t_stat, p_value = welch_t_test(
        a.error_time_averages_m, b.error_time_averages_m
    )
    return {
        "mean_difference_m": a.error_ci.mean - b.error_ci.mean,
        "t_statistic": t_stat,
        "p_value": p_value,
    }
