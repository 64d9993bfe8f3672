"""The grid-based Bayesian localization filter (Equations 1-3).

The deployment area is discretized into square cells; the filter maintains
a probability mass per cell.  For every received beacon the filter

1. looks the beacon's RSSI up in the PDF Table to get a density over
   distance,
2. evaluates that density at every cell's distance to the beacon origin —
   the ``Constraint(x, y)`` of Equation (1),
3. multiplies the constraint into the posterior and renormalizes —
   Equation (2)'s Bayesian update.

The position estimate is the posterior mean — Equation (3)'s expectation —
and, per the paper, is only trusted once at least three beacons have been
incorporated.

All operations are vectorized numpy.  Measured on a 2-CPU Xeon VM with
numpy 2.4, one update of a 100×100 grid costs about 80 µs when the filter
evaluates its own constraint through the PDF table's lookup tables
(about 180 µs on the exact path), and about 23 µs when a team's shared
constraint-field memo supplies it: what is left is the multiply, sum and
divide over the grid.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.pdf_table import PdfTable
from repro.util.geometry import Rect, Vec2
from repro.util.validation import check_positive


class GridBayesFilter:
    """Posterior over positions on a regular grid.

    Args:
        area: the deployment rectangle (the paper's
            ``[x_min, x_max] x [y_min, y_max]`` bounds).
        resolution_m: cell side length.
    """

    def __init__(self, area: Rect, resolution_m: float = 2.0) -> None:
        check_positive("resolution_m", resolution_m)
        if resolution_m > min(area.width, area.height):
            raise ValueError("resolution exceeds the deployment area")
        self._area = area
        self._resolution = resolution_m
        nx = max(1, int(round(area.width / resolution_m)))
        ny = max(1, int(round(area.height / resolution_m)))
        # Cell centres as broadcastable axes: x along a (1, nx) row, y
        # down a (ny, 1) column.  Every per-cell field is built by
        # broadcasting one against the other.
        self._x_axis = (
            area.x_min + (np.arange(nx) + 0.5) * (area.width / nx)
        ).reshape(1, nx)
        self._y_axis = (
            area.y_min + (np.arange(ny) + 0.5) * (area.height / ny)
        ).reshape(ny, 1)
        self._posterior = np.full((ny, nx), 1.0 / (nx * ny))
        self._beacons_applied = 0
        self._annihilations = 0
        # Scratch buffers reused by apply_beacon's uncached path.
        self._dist_buf = np.empty((ny, nx))
        self._constraint_buf = np.empty((ny, nx))
        self._cache = None

    @property
    def area(self) -> Rect:
        return self._area

    @property
    def resolution_m(self) -> float:
        return self._resolution

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape as (rows, cols) = (ny, nx)."""
        return self._posterior.shape

    @property
    def grid_signature(self) -> str:
        """Exact identifier of this filter's grid geometry.

        Two filters with equal signatures index identical cell-center
        arrays, so they may share cached distance/constraint fields.
        Encoded from the exact area bounds (``float.hex`` — no rounding)
        plus the grid shape.
        """
        return "%s:%s:%s:%s:%dx%d" % (
            float(self._area.x_min).hex(),
            float(self._area.y_min).hex(),
            float(self._area.x_max).hex(),
            float(self._area.y_max).hex(),
            self._posterior.shape[0],
            self._posterior.shape[1],
        )

    def attach_constraint_cache(self, cache) -> None:
        """Share beacon fields with other filters on an identical grid.

        Args:
            cache: a :class:`~repro.core.constraint_cache.ConstraintFieldCache`
                (or anything with its ``bind_grid`` / ``constraint_field``
                protocol).  The cached path is bit-identical to the
                uncached one; see the cache module.
        """
        cache.bind_grid(self.grid_signature)
        self._cache = cache

    @property
    def posterior(self) -> np.ndarray:
        """The posterior mass grid (read-only view)."""
        view = self._posterior.view()
        view.flags.writeable = False
        return view

    @property
    def beacons_applied(self) -> int:
        """Beacons incorporated since the last reset."""
        return self._beacons_applied

    @property
    def annihilations(self) -> int:
        """Constraint annihilations (rescue restarts) since the last
        reset — mutually inconsistent evidence arrived this round."""
        return self._annihilations

    def reset_uniform(self) -> None:
        """Restart from the uniform prior (Equation 2's initial estimate:
        "a robot is equally likely to be in any position")."""
        self._posterior.fill(1.0 / self._posterior.size)
        self._beacons_applied = 0
        self._annihilations = 0

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """The filter's evolving state as a picklable mapping.

        Captures exactly what :meth:`restore_state` needs to continue
        bit-identically: the posterior mass (copied, so later updates
        cannot mutate the checkpoint) and the per-round counters.  The
        grid geometry itself is *not* captured — it is construction
        state, and the ``grid_signature`` guard at restore refuses a
        mismatched geometry instead of silently resampling.
        """
        return {
            "grid_signature": self.grid_signature,
            "posterior": self._posterior.copy(),
            "beacons_applied": self._beacons_applied,
            "annihilations": self._annihilations,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` mapping (bit-exact resume).

        Raises:
            ValueError: the snapshot came from a different grid geometry.
        """
        if state.get("grid_signature") != self.grid_signature:
            raise ValueError(
                "filter snapshot geometry %r does not match this grid %r"
                % (state.get("grid_signature"), self.grid_signature)
            )
        np.copyto(self._posterior, state["posterior"])
        self._beacons_applied = int(state["beacons_applied"])
        self._annihilations = int(state["annihilations"])

    def compute_distance_field(
        self, beacon: Vec2, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Cell-center distances to ``beacon`` (Equation 1's geometry).

        Squares the two axis offsets, then one broadcast add and one
        sqrt: two grid-sized passes.  Each cell gets
        ``sqrt((x - bx)**2 + (y - by)**2)`` with the same operands in the
        same order whether the output lands in a scratch buffer or a
        cacheable fresh array.
        """
        dx = np.subtract(self._x_axis, beacon.x)
        np.square(dx, out=dx)
        dy = np.subtract(self._y_axis, beacon.y)
        np.square(dy, out=dy)
        distances = np.add(dx, dy, out=out)
        np.sqrt(distances, out=distances)
        return distances

    def apply_beacon(
        self, beacon: Vec2, rssi_dbm: float, table: PdfTable
    ) -> None:
        """Incorporate one beacon: Equations (1) and (2).

        If the constraint annihilates the posterior (numerically zero mass
        everywhere — mutually inconsistent evidence), the filter restarts
        from the newest constraint alone rather than dividing by zero; the
        newest measurement is the one most consistent with the robot's
        current position.

        Args:
            beacon: the anchor's claimed position.
            rssi_dbm: measured signal strength.
            table: the calibrated PDF table.
        """
        cache = self._cache
        if cache is None:
            distances = self.compute_distance_field(
                beacon, out=self._dist_buf
            )
            constraint = table.pdf(
                rssi_dbm, distances, out=self._constraint_buf
            )
        else:
            constraint = cache.constraint_field(
                self, beacon, table, table.bin_key_for(rssi_dbm)
            )
        self._posterior *= constraint
        total = self._posterior.sum()
        if total <= 1e-300 or not np.isfinite(total):
            self._annihilations += 1
            np.divide(constraint, constraint.sum(), out=self._posterior)
        else:
            self._posterior /= total
        self._beacons_applied += 1

    def estimate(self) -> Vec2:
        """Posterior-mean position — Equation (3)."""
        x_hat = float((self._posterior * self._x_axis).sum())
        y_hat = float((self._posterior * self._y_axis).sum())
        return Vec2(x_hat, y_hat)

    def mode(self) -> Vec2:
        """Maximum a-posteriori cell center (diagnostic alternative to
        the paper's expectation estimator)."""
        row, col = np.unravel_index(
            int(np.argmax(self._posterior)), self._posterior.shape
        )
        return Vec2(
            float(self._x_axis[0, col]), float(self._y_axis[row, 0])
        )

    def covariance(self, mean: Optional[Vec2] = None) -> np.ndarray:
        """2x2 posterior covariance — a confidence measure for extensions
        (e.g. beacon promotion only trusts low-variance fixes).

        Args:
            mean: the posterior mean if the caller already has it (what
                :meth:`estimate` returns); computed when omitted.
        """
        if mean is None:
            mean = self.estimate()
        dx = self._x_axis - mean.x
        dy = self._y_axis - mean.y
        w = self._posterior
        w_dx = w * dx
        cxx = float((w_dx * dx).sum())
        cyy = float((w * dy * dy).sum())
        cxy = float((w_dx * dy).sum())
        return np.array([[cxx, cxy], [cxy, cyy]])

    def position_std_m(self, mean: Optional[Vec2] = None) -> float:
        """Scalar spread: sqrt of the posterior's total variance.

        Args:
            mean: as for :meth:`covariance`.
        """
        cov = self.covariance(mean)
        return float(np.sqrt(max(cov[0, 0] + cov[1, 1], 0.0)))

    def entropy_bits(self) -> float:
        """Shannon entropy of the posterior in bits (uniform = max)."""
        p = self._posterior[self._posterior > 0]
        return float(-(p * np.log2(p)).sum())

    def is_degenerate(self) -> bool:
        """Has the posterior stopped being a trustworthy distribution?

        Degeneracy means either the mass is no longer normalizable
        (NaN/inf crept in, or it no longer sums to one) or the round's
        evidence was mutually inconsistent (a constraint annihilated the
        posterior) *and* the surviving mass has collapsed to near-zero
        entropy — a confidently wrong spike.  The posterior-health
        watchdog resets to the prior in either case rather than adopting
        a junk fix.
        """
        total = float(self._posterior.sum())
        if not np.isfinite(total) or abs(total - 1.0) > 1e-6:
            return True
        return (
            self._beacons_applied >= 2
            and self._annihilations > 0
            and self.entropy_bits() < 1.0
        )
