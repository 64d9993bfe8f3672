"""The PDF Table: RSSI → probability density over distance.

This is the central data structure of the localization algorithm (§2.2):

    "This phase constructs the PDF Table, which is stored at each node and
    maps every RSSI value to a Probability Distribution Function (PDF)
    versus distance."

Each 1-dBm RSSI bin holds a :class:`DistanceDistribution`.  Following the
paper's experimental finding (Figure 1), bins whose distances lie within
40 m are represented as fitted Gaussians, while far-regime bins — where
multipath breaks the Gaussian shape — fall back to a smoothed empirical
histogram.  Every distribution keeps a small uniform floor so a single
outlier beacon can never zero out the Bayesian posterior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Fraction of probability mass spread uniformly over the support to keep
#: the filter robust against outlier measurements.
UNIFORM_FLOOR_WEIGHT = 0.02

#: LUT resolution: nodes over twice the table support.
LUT_ENTRIES = 16384


@dataclass(frozen=True)
class DistanceDistribution:
    """One RSSI bin's distance PDF: Gaussian or empirical histogram.

    Exactly one representation is active: ``is_gaussian`` selects it.

    Attributes:
        is_gaussian: True for the fitted-Gaussian near regime.
        mean_m: Gaussian mean (also stored for histogram bins, as the
            empirical mean — used for diagnostics and table queries).
        std_m: Gaussian σ / empirical standard deviation.
        support_max_m: upper end of the support used for the uniform floor.
        hist_edges: histogram bin edges (empty for Gaussian bins).
        hist_density: histogram densities (empty for Gaussian bins).
        n_samples: calibration samples behind this bin.
    """

    is_gaussian: bool
    mean_m: float
    std_m: float
    support_max_m: float
    hist_edges: np.ndarray = field(default_factory=lambda: np.empty(0))
    hist_density: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_samples: int = 0

    def pdf(
        self, distances_m: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Evaluate the density at the given distances (vectorized).

        The returned density mixes the fitted shape with a uniform floor
        over ``[0, support_max_m]`` (weight
        :data:`UNIFORM_FLOOR_WEIGHT`), so it is strictly positive on the
        support.

        Args:
            distances_m: query distances.
            out: optional preallocated output buffer of the same shape
                (the Bayesian grid filter reuses one per update).
        """
        d = np.asarray(distances_m, dtype=float)
        if self.is_gaussian:
            sigma = max(self.std_m, 0.25)
            # exp(-((d - mean)/sigma)^2 / 2) / (sigma * sqrt(2*pi)),
            # computed in place to keep the grid filter's hot path cheap.
            core = np.subtract(d, self.mean_m, out=out)
            core *= 1.0 / sigma
            np.square(core, out=core)
            core *= -0.5
            np.exp(core, out=core)
            core *= 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        else:
            # Histogram bins are uniform-width (np.histogram with a fixed
            # range), so direct indexing replaces searchsorted.
            n_bins = len(self.hist_density)
            width = self.hist_edges[-1] / n_bins
            # Clip before the integer cast: corrupted coordinates can put
            # cells astronomically far from the claimed beacon origin, and
            # casting such distances to intp is undefined.
            scaled = np.clip(d * (1.0 / width), 0.0, float(n_bins - 1))
            idx = scaled.astype(np.intp)
            padded = self.hist_density[idx]
            outside = d >= self.hist_edges[-1]
            if np.any(outside):
                padded[outside] = 0.0
            if out is not None:
                out[...] = padded
                core = out
            else:
                core = padded
        floor = UNIFORM_FLOOR_WEIGHT / max(self.support_max_m, 1.0)
        core *= 1.0 - UNIFORM_FLOOR_WEIGHT
        core += floor
        return core

    @staticmethod
    def gaussian(
        mean_m: float, std_m: float, support_max_m: float, n_samples: int = 0
    ) -> "DistanceDistribution":
        """Build a Gaussian bin."""
        if std_m < 0:
            raise ValueError("std_m must be non-negative, got %r" % std_m)
        return DistanceDistribution(
            is_gaussian=True,
            mean_m=float(mean_m),
            std_m=float(std_m),
            support_max_m=float(support_max_m),
            n_samples=n_samples,
        )

    @staticmethod
    def from_samples(
        samples_m: np.ndarray,
        support_max_m: float,
        gaussian_limit_m: float = 40.0,
        hist_bins: int = 32,
    ) -> "DistanceDistribution":
        """Fit a bin from calibration samples.

        Uses the paper's rule: a Gaussian when the observed distances are
        within the near regime (mean ≤ ``gaussian_limit_m``), an empirical
        histogram otherwise.
        """
        samples = np.asarray(samples_m, dtype=float)
        if samples.size == 0:
            raise ValueError("cannot fit a distribution from zero samples")
        mean = float(samples.mean())
        std = float(samples.std())
        if mean <= gaussian_limit_m:
            return DistanceDistribution.gaussian(
                mean, std, support_max_m, n_samples=samples.size
            )
        density, edges = np.histogram(
            samples,
            bins=hist_bins,
            range=(0.0, support_max_m),
            density=True,
        )
        return DistanceDistribution(
            is_gaussian=False,
            mean_m=mean,
            std_m=std,
            support_max_m=float(support_max_m),
            hist_edges=edges,
            hist_density=density,
            n_samples=samples.size,
        )


class PdfTable:
    """The calibrated RSSI → distance-PDF lookup table.

    Bins are keyed by integer dBm values.  Lookups for RSSI values between
    populated bins snap to the nearest available bin; lookups beyond the
    table's edges clamp to the first/last bin — a beacon is never discarded
    for having an RSSI the calibration did not cover (it just gets the
    closest, widest evidence available).
    """

    def __init__(
        self,
        bins: Dict[int, DistanceDistribution],
        support_max_m: float,
    ) -> None:
        if not bins:
            raise ValueError("PdfTable needs at least one populated bin")
        if support_max_m <= 0:
            raise ValueError(
                "support_max_m must be positive, got %r" % support_max_m
            )
        self._bins = dict(bins)
        self._keys = np.array(sorted(self._bins), dtype=int)
        self._support_max_m = float(support_max_m)
        # LUT kernel state (see repro.kernels): disabled by default so
        # direct PdfTable users always get the exact densities; the team
        # switches it on per its KernelConfig.  LUTs build lazily, one
        # per *queried* bin, by sampling the bin's exact pdf() (uniform
        # floor included) on a dense grid over twice the support — grid
        # cells can sit up to the area diagonal away from a beacon, and
        # anything beyond the domain clamps to the last node, which is
        # floor-level density just like the exact evaluation.
        self._lut_enabled = False
        self._lut_entries = LUT_ENTRIES
        self._luts: Dict[int, np.ndarray] = {}

    def set_lut(self, enabled: bool, entries: Optional[int] = None) -> None:
        """Switch LUT-based density evaluation on or off.

        Args:
            enabled: route :meth:`pdf` / :meth:`pdf_for_key` through the
                per-bin lookup tables (tolerance-identical) instead of
                the exact per-call evaluation (bit-identical reference).
            entries: LUT resolution; changing it drops any cached LUTs.

        Raises:
            ValueError: if ``entries`` is below 2.
        """
        if entries is not None:
            if entries < 2:
                raise ValueError(
                    "LUT entries must be >= 2, got %r" % entries
                )
            if int(entries) != self._lut_entries:
                self._lut_entries = int(entries)
                self._luts.clear()
        self._lut_enabled = bool(enabled)

    @property
    def lut_enabled(self) -> bool:
        """True when densities come from the lookup tables."""
        return self._lut_enabled

    def __getstate__(self):
        # Keep pickles (process-pool workers, the orchestrator's result
        # cache) small and deterministic: LUTs are derived data and
        # rebuild lazily on first use after unpickling.
        state = self.__dict__.copy()
        state["_luts"] = {}
        return state

    @property
    def support_max_m(self) -> float:
        """Upper end of the distance support (metres)."""
        return self._support_max_m

    @property
    def rssi_range(self) -> Tuple[int, int]:
        """Lowest and highest populated RSSI bins (dBm)."""
        return int(self._keys[0]), int(self._keys[-1])

    @property
    def n_bins(self) -> int:
        return len(self._bins)

    def bin_for(self, rssi_dbm: float) -> DistanceDistribution:
        """Return the distribution of the bin nearest to ``rssi_dbm``."""
        return self._bins[self.bin_key_for(rssi_dbm)]

    def bin_key_for(self, rssi_dbm: float) -> int:
        """The populated integer-dBm bin an RSSI value snaps to.

        Same snap rule as :meth:`bin_for`; the key doubles as the RSSI
        component of constraint-field cache keys, so two RSSI readings
        that resolve to the same bin share one cached field.
        """
        key = int(round(rssi_dbm))
        if key in self._bins:
            return key
        idx = int(np.argmin(np.abs(self._keys - key)))
        return int(self._keys[idx])

    def pdf(
        self,
        rssi_dbm: float,
        distances_m: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Density over distance for a measured RSSI (Equation 1's
        ``PDF_RSSI``)."""
        return self.pdf_for_key(
            self.bin_key_for(rssi_dbm), distances_m, out=out
        )

    def pdf_for_key(
        self,
        key: int,
        distances_m: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Density over distance for an already-resolved bin key.

        With the LUT kernel off this is the exact evaluation; with it on,
        each distance snaps to the nearest LUT node (one ``np.take``
        instead of a grid-sized ``exp``).  Nearest-node quantization
        bounds the relative density error by roughly
        ``0.5 * step * |d - mean| / sigma^2`` for Gaussian bins, which at
        the default resolution stays far inside the 0.1 % figure-metric
        tolerance the regression suite pins.
        """
        if not self._lut_enabled:
            return self._bins[key].pdf(distances_m, out=out)
        return np.take(
            self._lut_for(key), self.lut_index_for(distances_m), out=out
        )

    def _lut_for(self, key: int) -> np.ndarray:
        lut = self._luts.get(key)
        if lut is None:
            nodes = np.linspace(
                0.0, 2.0 * self._support_max_m, self._lut_entries
            )
            lut = np.asarray(self._bins[key].pdf(nodes), dtype=float)
            lut.flags.writeable = False
            self._luts[key] = lut
        return lut

    def lut_index_for(self, distances_m: np.ndarray) -> np.ndarray:
        """Nearest-LUT-node indices for a distance field.

        The indices depend only on the distances and the LUT geometry
        (entry count and support) — not on the RSSI bin — so a caller evaluating several bins at the
        same beacon position (the constraint-field memo does, one per
        heard RSSI bin) can compute them once and feed :meth:`pdf_from_index`
        per bin, with bit-identical results to :meth:`pdf_for_key`.
        """
        d = np.asarray(distances_m, dtype=float)
        inv_step = (self._lut_entries - 1) / (2.0 * self._support_max_m)
        # Clip before the integer cast (same reasoning as the histogram
        # path: corrupted coordinates can be astronomically far away).
        scaled = np.clip(
            d * inv_step + 0.5, 0.0, float(self._lut_entries - 1)
        )
        return scaled.astype(np.intp)

    def pdf_from_index(
        self,
        key: int,
        index: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Density over distance from a precomputed LUT index field.

        Only meaningful while the LUT kernel is enabled and ``index``
        came from :meth:`lut_index_for` under the current LUT geometry.
        """
        if not self._lut_enabled:
            raise RuntimeError(
                "pdf_from_index requires the LUT kernel to be enabled"
            )
        if out is None:
            # Fancy indexing gathers the same elements as np.take (the
            # indices are in range by construction) a shade faster.
            return self._lut_for(key)[index]
        return np.take(self._lut_for(key), index, out=out)

    def expected_distance(self, rssi_dbm: float) -> float:
        """The bin's mean distance — a crude point-ranging estimate used
        by diagnostics and the power-control extension."""
        return self.bin_for(rssi_dbm).mean_m

    def items(self):
        """Iterate ``(rssi_dbm, distribution)`` pairs in RSSI order."""
        for key in self._keys:
            yield int(key), self._bins[int(key)]
