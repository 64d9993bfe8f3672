"""Monte Carlo localization: a particle-filter alternative to the grid.

The paper stresses that CoCoA is an *architecture*, not one algorithm:

    "CoCoA is not tied to a specific localization technique.  In this
    paper, we have implemented a Bayesian technique in the CoCoA
    localization component.  Other approaches could be integrated in
    CoCoA as well."  (§5)

:class:`ParticleFilter` is exactly such another approach — the
sample-based Bayesian family the related work discusses (Monte Carlo
localization, Fox et al.).  It drops into
:class:`~repro.core.estimator.PositionEstimator` through the same
interface as :class:`~repro.core.bayes.GridBayesFilter`:
``reset_uniform`` / ``apply_beacon`` / ``estimate`` / ``position_std_m`` /
``beacons_applied``.

Compared to the grid, particles trade deterministic coverage for
constant-memory scaling with area size.  The science ledger's
``filter.*`` entries (``science_ledger.json``, ``repro ledger check``)
compare the two filters' accuracy and fix counts on one 500 s scenario;
they record no runtime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.pdf_table import PdfTable
from repro.util.geometry import Rect, Vec2


class ParticleFilter:
    """Sample-based posterior over positions in the deployment area.

    Args:
        area: deployment rectangle.
        rng: random stream for sampling and resampling.
        n_particles: sample count (the accuracy/runtime knob).
        resample_ess_fraction: resample when the effective sample size
            falls below this fraction of ``n_particles``.
        roughening_std_m: σ of the Gaussian jitter added after each
            resampling — standard "roughening" that prevents particle
            impoverishment when many beacons arrive in one window.
    """

    def __init__(
        self,
        area: Rect,
        rng: np.random.Generator,
        n_particles: int = 1500,
        resample_ess_fraction: float = 0.5,
        roughening_std_m: float = 1.0,
    ) -> None:
        if n_particles < 10:
            raise ValueError(
                "n_particles must be at least 10, got %r" % n_particles
            )
        if not 0.0 < resample_ess_fraction <= 1.0:
            raise ValueError(
                "resample_ess_fraction must be in (0, 1], got %r"
                % resample_ess_fraction
            )
        if roughening_std_m < 0:
            raise ValueError(
                "roughening_std_m must be non-negative, got %r"
                % roughening_std_m
            )
        self._area = area
        self._rng = rng
        self._n = n_particles
        self._resample_ess = resample_ess_fraction * n_particles
        self._roughening = roughening_std_m
        self._xs = np.empty(n_particles)
        self._ys = np.empty(n_particles)
        self._weights = np.empty(n_particles)
        self._beacons_applied = 0
        self.resamplings = 0
        self.reset_uniform()

    @property
    def area(self) -> Rect:
        return self._area

    @property
    def n_particles(self) -> int:
        return self._n

    @property
    def beacons_applied(self) -> int:
        """Beacons incorporated since the last reset."""
        return self._beacons_applied

    @property
    def particles(self) -> np.ndarray:
        """(n, 2) array of particle positions (copy)."""
        return np.column_stack((self._xs, self._ys))

    @property
    def weights(self) -> np.ndarray:
        """Normalized particle weights (copy)."""
        return self._weights.copy()

    def reset_uniform(self) -> None:
        """Scatter particles uniformly — the paper's uniform initial
        estimate."""
        self._xs = self._rng.uniform(
            self._area.x_min, self._area.x_max, size=self._n
        )
        self._ys = self._rng.uniform(
            self._area.y_min, self._area.y_max, size=self._n
        )
        self._weights = np.full(self._n, 1.0 / self._n)
        self._beacons_applied = 0

    def effective_sample_size(self) -> float:
        """The usual ESS = 1 / sum(w^2) degeneracy measure."""
        return float(1.0 / np.square(self._weights).sum())

    def apply_beacon(
        self, beacon: Vec2, rssi_dbm: float, table: PdfTable
    ) -> None:
        """Weight particles by the beacon's ranging likelihood (Eq. 1-2)."""
        distances = np.hypot(self._xs - beacon.x, self._ys - beacon.y)
        likelihood = table.pdf(rssi_dbm, distances)
        self._weights *= likelihood
        total = self._weights.sum()
        if total <= 1e-300 or not np.isfinite(total):
            # Same recovery policy as the grid: restart from the newest
            # constraint alone.
            self._weights = likelihood / likelihood.sum()
        else:
            self._weights /= total
        self._beacons_applied += 1
        if self.effective_sample_size() < self._resample_ess:
            self._resample()

    def _resample(self) -> None:
        """Systematic resampling plus roughening."""
        positions = (
            self._rng.random() + np.arange(self._n)
        ) / self._n
        cumulative = np.cumsum(self._weights)
        cumulative[-1] = 1.0
        indices = np.searchsorted(cumulative, positions)
        self._xs = self._xs[indices]
        self._ys = self._ys[indices]
        if self._roughening > 0.0:
            self._xs = self._xs + self._rng.normal(
                0.0, self._roughening, size=self._n
            )
            self._ys = self._ys + self._rng.normal(
                0.0, self._roughening, size=self._n
            )
            np.clip(self._xs, self._area.x_min, self._area.x_max, out=self._xs)
            np.clip(self._ys, self._area.y_min, self._area.y_max, out=self._ys)
        self._weights = np.full(self._n, 1.0 / self._n)
        self.resamplings += 1

    def estimate(self) -> Vec2:
        """Weighted-mean position — the sample analogue of Equation (3)."""
        x_hat = float(np.dot(self._weights, self._xs))
        y_hat = float(np.dot(self._weights, self._ys))
        return Vec2(x_hat, y_hat)

    def position_std_m(self, mean: Optional[Vec2] = None) -> float:
        """Scalar spread: sqrt of the weighted total variance.

        Args:
            mean: the weighted mean if the caller already has it (what
                :meth:`estimate` returns); computed when omitted.
        """
        if mean is None:
            mean = self.estimate()
        var = float(
            np.dot(self._weights, np.square(self._xs - mean.x))
            + np.dot(self._weights, np.square(self._ys - mean.y))
        )
        return float(np.sqrt(max(var, 0.0)))
