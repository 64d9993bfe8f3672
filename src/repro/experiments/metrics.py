"""Metric helpers shared by the figure runners and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.team import METRIC_INTERVAL_S


@dataclass(frozen=True)
class ErrorSummary:
    """Summary statistics of a localization-error series.

    Attributes:
        time_average_m: error averaged over robots and time — the scalar
            the paper quotes ("the average localization error over time").
        final_m: robot-averaged error at the last sample.
        max_m: peak of the robot-averaged error curve.
        median_m: median of all (robot, time) error samples.
        p90_m: 90th percentile of all error samples.
    """

    time_average_m: float
    final_m: float
    max_m: float
    median_m: float
    p90_m: float


def summarize_errors(
    errors: np.ndarray, skip_first_s: float = 0.0
) -> ErrorSummary:
    """Summarize an ``(n_robots, n_samples)`` error matrix, sampled every
    :data:`~repro.core.team.METRIC_INTERVAL_S`.

    Args:
        errors: per-robot, per-sample localization errors.
        skip_first_s: drop this much initial transient (e.g. the first
            beacon period, during which RF modes have no fix yet).

    Raises:
        ValueError: if skipping removes every sample.
    """
    if errors.ndim != 2:
        raise ValueError(
            "errors must be 2-D (robots x samples), got shape %r"
            % (errors.shape,)
        )
    skip = int(round(skip_first_s / METRIC_INTERVAL_S))
    if skip >= errors.shape[1]:
        raise ValueError(
            "skip_first_s=%r removes all %d samples"
            % (skip_first_s, errors.shape[1])
        )
    window = errors[:, skip:]
    # NaN-aware throughout: failure-injection runs mark dead robots NaN.
    series = np.nanmean(window, axis=0)
    return ErrorSummary(
        time_average_m=float(np.nanmean(window)),
        final_m=float(series[-1]),
        max_m=float(np.nanmax(series)),
        median_m=float(np.nanmedian(window)),
        p90_m=float(np.nanpercentile(window, 90.0)),
    )


def cdf_points(samples: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a sample vector.

    Returns:
        ``(sorted_values, cumulative_fractions)`` — the x and y series of
        the paper's Figure 8 CDF plots.
    """
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        return values, values
    fractions = np.arange(1, values.size + 1, dtype=float) / values.size
    return values, fractions
