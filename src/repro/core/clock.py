"""Drifting local clocks and their coarse synchronization.

CoCoA only requires "coarse-grained synchronization achievable through
wireless communication" (§2.3).  Each robot's local clock runs at a slightly
wrong rate; SYNC messages received over MRMM re-anchor the local clock to
the Sync robot's timeline.  The coordinator converts between local and true
(simulation) time when scheduling wake-ups, so a robot whose clock has
drifted genuinely wakes early or late — which is why the wake guard exists
and why it must cover twice the drift rate.
"""

from __future__ import annotations

import numpy as np

#: Largest magnitude of a robot's clock rate error (fraction of elapsed
#: time).  The coordinator's wake guard
#: (:data:`~repro.core.coordinator.GUARD_FRACTION`) covers twice it.
MAX_CLOCK_DRIFT_RATE = 0.02


class DriftingClock:
    """A local clock with a constant rate error, re-anchored by SYNC.

    Local time evolves as::

        local(t) = anchor_local + (1 + rate) * (t - anchor_true)

    where ``rate`` is this robot's drift (e.g. +0.01 = runs 1% fast) and
    the anchor point moves whenever :meth:`synchronize` is called.  The
    first anchor is (0, 0): robots are synchronized at deployment, at the
    start of the simulation.

    Args:
        drift_rate: this clock's rate error; drawn by the caller, typically
            uniform in ``[-max_drift, +max_drift]``.
    """

    def __init__(self, drift_rate: float) -> None:
        if abs(drift_rate) >= 1.0:
            raise ValueError(
                "drift_rate must be a small fraction, got %r" % drift_rate
            )
        self._rate = drift_rate
        self._anchor_true = 0.0
        self._anchor_local = 0.0

    @property
    def drift_rate(self) -> float:
        return self._rate

    def local_time(self, true_time: float) -> float:
        """Local clock reading at a given true time."""
        return self._anchor_local + (1.0 + self._rate) * (
            true_time - self._anchor_true
        )

    def true_time_of(self, local_time: float) -> float:
        """Invert :meth:`local_time`: when (in true time) the local clock
        will read ``local_time``."""
        return self._anchor_true + (local_time - self._anchor_local) / (
            1.0 + self._rate
        )

    def offset(self, true_time: float) -> float:
        """Current error ``local - true`` in seconds."""
        return self.local_time(true_time) - true_time

    def synchronize(self, true_time: float, reference_local: float) -> None:
        """Re-anchor: at ``true_time`` the reference timeline reads
        ``reference_local``.

        Called when a SYNC message arrives; the reference value is the
        Sync robot's timestamp (propagation delay through the mesh is the
        residual synchronization error, which is what makes the
        synchronization "coarse").
        """
        self._anchor_true = true_time
        self._anchor_local = reference_local

    @staticmethod
    def random(rng: np.random.Generator) -> "DriftingClock":
        """Draw a clock with rate error uniform in
        ``[-MAX_CLOCK_DRIFT_RATE, +MAX_CLOCK_DRIFT_RATE]``."""
        rate = float(rng.uniform(-MAX_CLOCK_DRIFT_RATE, MAX_CLOCK_DRIFT_RATE))
        return DriftingClock(rate)
