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

Densities are read from per-bin lookup tables (LUTs) sampled from each
bin's pdf.  Past a bin's support every node holds that floor, so a LUT
is stored only up to the first node of its constant floor tail: the
default 120,000-sample table stores 174,254 of its 61 × 16,384 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

#: Fraction of probability mass spread uniformly over the support to keep
#: the filter robust against outlier measurements.
UNIFORM_FLOOR_WEIGHT = 0.02

#: LUT resolution: nodes over twice the table support, per RSSI bin.
LUT_ENTRIES = 16384

#: Histogram bins over the support of a far-regime (non-Gaussian) fit.
HIST_BINS = 32


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

    def pdf(self, distances_m: np.ndarray) -> np.ndarray:
        """Evaluate the density at the given distances (vectorized).

        The returned density mixes the fitted shape with a uniform floor
        over ``[0, support_max_m]`` (weight
        :data:`UNIFORM_FLOOR_WEIGHT`), so it is strictly positive on the
        support.
        """
        d = np.asarray(distances_m, dtype=float)
        if self.is_gaussian:
            sigma = max(self.std_m, 0.25)
            # exp(-((d - mean)/sigma)^2 / 2) / (sigma * sqrt(2*pi)),
            # computed in place to keep the grid filter's hot path cheap.
            core = np.subtract(d, self.mean_m)
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
            core = self.hist_density[idx]
            outside = d >= self.hist_edges[-1]
            if np.any(outside):
                core[outside] = 0.0
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
    ) -> "DistanceDistribution":
        """Fit a bin from calibration samples.

        Uses the paper's rule: a Gaussian when the observed distances are
        within the near regime (mean ≤ ``gaussian_limit_m``), an empirical
        histogram of :data:`HIST_BINS` bins otherwise.
        """
        samples = np.asarray(samples_m, dtype=float).ravel()
        n = samples.size
        if n == 0:
            raise ValueError("cannot fit a distribution from zero samples")
        # ``samples.mean()`` and ``samples.std()`` spelled out: numpy
        # computes both as a pairwise sum divided by the count, so these
        # are the same operations and bits without the per-call
        # bookkeeping (a calibration build fits about 60 bins).
        mean = float(np.add.reduce(samples) / n)
        deviation = samples - mean
        deviation *= deviation
        std = math.sqrt(np.add.reduce(deviation) / n)
        if mean <= gaussian_limit_m:
            return DistanceDistribution.gaussian(
                mean, std, support_max_m, n_samples=n
            )
        density, edges = np.histogram(
            samples,
            bins=HIST_BINS,
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
            n_samples=n,
        )


class PdfTable:
    """The calibrated RSSI → distance-PDF lookup table.

    Bins are keyed by integer dBm values.  Lookups for RSSI values between
    populated bins snap to the nearest available bin; lookups beyond the
    table's edges clamp to the first/last bin — a beacon is never discarded
    for having an RSSI the calibration did not cover (it just gets the
    closest, widest evidence available).

    Densities are read from a per-bin lookup table of
    :data:`LUT_ENTRIES` nodes sampled from the bin's
    :meth:`DistanceDistribution.pdf`; that method stays the reference
    the LUT is tested against.  A stored LUT ends at the first node of
    its floor tail, and a gather clips later indices onto that node, so
    every density is the float the full-length LUT holds.
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
        # Densities come from per-bin LUTs, built lazily, one per
        # *queried* bin, by sampling the bin's pdf() (uniform floor
        # included) on a dense grid over twice the support — grid cells
        # can sit up to the area diagonal away from a beacon, and
        # anything beyond the domain clamps to the last node, which is
        # floor-level density just like DistanceDistribution.pdf.
        self._luts: Dict[int, np.ndarray] = {}

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
        # Past either end the nearest bin is that end's, and a key
        # outside int64 could not be subtracted from the keys array.
        if key <= self._keys[0]:
            return int(self._keys[0])
        if key >= self._keys[-1]:
            return int(self._keys[-1])
        idx = int(np.argmin(np.abs(self._keys - key)))
        return int(self._keys[idx])

    def pdf(self, rssi_dbm: float, distances_m: np.ndarray) -> np.ndarray:
        """Density over distance for a measured RSSI (Equation 1's
        ``PDF_RSSI``)."""
        return self.pdf_for_key(self.bin_key_for(rssi_dbm), distances_m)

    def pdf_for_key(self, key: int, distances_m: np.ndarray) -> np.ndarray:
        """Density over distance for an already-resolved bin key.

        Each distance snaps to the nearest node of the bin's LUT (one
        gather instead of a grid-sized ``exp``).  Nearest-node
        quantization bounds the relative density error against
        :meth:`DistanceDistribution.pdf` by roughly
        ``0.5 * step * |d - mean| / sigma^2`` for Gaussian bins, which at
        :data:`LUT_ENTRIES` stays far inside the 0.1 % figure-metric
        tolerance the regression suite pins.
        """
        return self.pdf_from_index(key, self.lut_index_for(distances_m))

    def _lut_for(self, key: int) -> np.ndarray:
        """The bin's LUT, stored up to the first node of its floor tail.

        The bin's pdf is sampled on all :data:`LUT_ENTRIES` nodes, but
        past its last non-floor node every node holds ``full[-1]``, the
        uniform floor.  Only the nodes up to and including the first
        node of that constant tail are kept; :meth:`pdf_from_index`
        clips any later index onto it, which reads the same float the
        full LUT holds there.
        """
        lut = self._luts.get(key)
        if lut is None:
            nodes = np.linspace(0.0, 2.0 * self._support_max_m, LUT_ENTRIES)
            full = np.asarray(self._bins[key].pdf(nodes), dtype=float)
            above_floor = np.flatnonzero(full != full[-1])
            stop = int(above_floor[-1]) + 2 if above_floor.size else 1
            lut = full[:stop].copy()
            lut.flags.writeable = False
            self._luts[key] = lut
        return lut

    def lut_index_for(self, distances_m: np.ndarray) -> np.ndarray:
        """Nearest-LUT-node indices for a distance field.

        The indices depend only on the distances and the LUT geometry
        (entry count and support) — not on the RSSI bin — so a caller
        evaluating several bins at the same beacon position (the
        constraint-field memo does, one per heard RSSI bin) can compute
        them once and feed :meth:`pdf_from_index` per bin, with
        bit-identical results to :meth:`pdf_for_key`.
        """
        d = np.asarray(distances_m, dtype=float)
        inv_step = (LUT_ENTRIES - 1) / (2.0 * self._support_max_m)
        # Clamp before the integer cast (same reasoning as the histogram
        # path: corrupted coordinates can be astronomically far away),
        # in place on the one scaled copy.
        scaled = d * inv_step
        scaled += 0.5
        np.maximum(scaled, 0.0, out=scaled)
        np.minimum(scaled, float(LUT_ENTRIES - 1), out=scaled)
        return scaled.astype(np.intp)

    def pdf_from_index(self, key: int, index: np.ndarray) -> np.ndarray:
        """Density over distance from a precomputed LUT index field.

        ``index`` must come from :meth:`lut_index_for` on this table.
        An index at or past the stored LUT's end reads its last node,
        the floor, which is what the full-length LUT holds there.
        """
        # take with mode="clip" costs what the unclipped take did on the
        # full LUT: about 15-16 µs for a 100×100 field against 18-21 µs
        # for fancy indexing (2-CPU Xeon VM, numpy 2.4, timeit minima).
        return self._lut_for(key).take(index, mode="clip")

    def expected_distance(self, rssi_dbm: float) -> float:
        """The bin's mean distance — a crude point-ranging estimate used
        by diagnostics and the power-control extension."""
        return self.bin_for(rssi_dbm).mean_m

    def items(self):
        """Iterate ``(rssi_dbm, distribution)`` pairs in RSSI order."""
        for key in self._keys:
            yield int(key), self._bins[int(key)]
