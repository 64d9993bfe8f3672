"""Physical-layer signal model: path loss, RSSI noise, receiver thresholds.

The paper calibrates its localization model from outdoor 802.11b
measurements and reports (Figure 1) that:

- for signal strengths down to about -80 dBm — distances up to about 40 m —
  the PDF of distance given RSSI is well approximated by a Gaussian;
- beyond 40 m, multipath and fading distort the measurements and the PDF is
  no longer Gaussian.

:class:`PathLossModel` reproduces exactly those two regimes: a log-distance
mean with Gaussian shadowing near the transmitter, plus an additional
occasional deep-fade component beyond ``far_threshold_m``.  The default
constants place -80 dBm at 40 m and give a usable communication range of
roughly 150+ m at the receiver sensitivity, matching the paper's hardware
description.

Everything is vectorized over numpy arrays because the calibration phase
(:mod:`repro.core.calibration`) samples the channel hundreds of thousands of
times, and the Bayesian grid filter evaluates distances for every grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.util.validation import check_positive

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PathLossModel:
    """Log-distance path loss with two-regime measurement noise.

    Mean RSSI at distance ``d`` (metres):

        ``rssi(d) = rssi_at_1m_dbm - 10 * path_loss_exponent * log10(d)``

    Sampled RSSI adds zero-mean Gaussian shadowing with
    ``gaussian_sigma_db`` everywhere; beyond ``far_threshold_m`` each sample
    additionally suffers, with probability ``far_fade_prob``, a deep fade
    drawn from ``N(far_fade_mean_db, far_fade_sigma_db)`` and the baseline
    sigma widens to ``far_sigma_db`` — which is what breaks the Gaussian
    shape of the distance PDF in the far regime (Figure 1(b)).

    Attributes:
        rssi_at_1m_dbm: mean RSSI one metre from the transmitter.
        path_loss_exponent: log-distance exponent (outdoor ground-level
            802.11b links typically fall in 2.7-4).
        gaussian_sigma_db: shadowing σ in the near (Gaussian) regime.
        far_threshold_m: boundary between the regimes (paper: 40 m).
        far_sigma_db: shadowing σ beyond the boundary.
        far_fade_prob: probability a far-regime sample hits a deep fade.
        far_fade_mean_db: mean extra attenuation of a deep fade.
        far_fade_sigma_db: σ of the deep-fade attenuation.
    """

    rssi_at_1m_dbm: float = -32.0
    path_loss_exponent: float = 3.0
    gaussian_sigma_db: float = 2.5
    far_threshold_m: float = 40.0
    far_sigma_db: float = 3.5
    far_fade_prob: float = 0.08
    far_fade_mean_db: float = 5.0
    far_fade_sigma_db: float = 2.5

    def __post_init__(self) -> None:
        check_positive("path_loss_exponent", self.path_loss_exponent)
        check_positive("far_threshold_m", self.far_threshold_m)
        for name in ("gaussian_sigma_db", "far_sigma_db", "far_fade_sigma_db"):
            if getattr(self, name) < 0:
                raise ValueError(
                    "%s must be non-negative, got %r"
                    % (name, getattr(self, name))
                )
        if not 0.0 <= self.far_fade_prob <= 1.0:
            raise ValueError(
                "far_fade_prob must be in [0, 1], got %r" % self.far_fade_prob
            )

    def mean_rssi(self, distance_m: ArrayLike) -> ArrayLike:
        """Mean RSSI (dBm) at ``distance_m``; distances below 1 m clamp to 1 m."""
        if isinstance(distance_m, (float, int)):
            # Scalar fast path: carrier sensing and interference summation
            # call this once per active transmission.  ``np.log10`` on a
            # Python float is bit-identical to the array ufunc (pinned by
            # a test), so this skips only the array round-trip.
            d = float(distance_m)
            if d < 1.0:
                d = 1.0
            return float(
                self.rssi_at_1m_dbm
                - 10.0 * self.path_loss_exponent * np.log10(d)
            )
        # In place on one fresh copy; same operations and order as the
        # scalar path.
        result = np.array(distance_m, dtype=float)
        np.maximum(result, 1.0, out=result)
        np.log10(result, out=result)
        result *= 10.0 * self.path_loss_exponent
        np.subtract(self.rssi_at_1m_dbm, result, out=result)
        if np.isscalar(distance_m):
            return float(result)
        return result

    def distance_for_mean_rssi(self, rssi_dbm: float) -> float:
        """Invert :meth:`mean_rssi`: the distance whose mean RSSI is given."""
        exponent = (self.rssi_at_1m_dbm - rssi_dbm) / (
            10.0 * self.path_loss_exponent
        )
        return max(1.0, float(10.0 ** exponent))

    def sample_rssi(
        self, distance_m: ArrayLike, rng: np.random.Generator
    ) -> ArrayLike:
        """Draw noisy RSSI samples for the given distances.

        Args:
            distance_m: scalar or array of true transmitter-receiver
                distances in metres.
            rng: random stream for the shadowing/fading draws.

        Returns:
            Sampled RSSI in dBm with the same shape as the input.
        """
        if isinstance(distance_m, (float, int)):
            # Scalar path for one-off draws (the calibration example's
            # spot checks, and the tests that hold sample_rssi_batch to
            # sequential scalar draws); the channel draws a frame's
            # receivers at once through sample_rssi_batch, and
            # calibration and Fig. 1 pass arrays.
            # Draws and arithmetic replicate the array path bit for bit:
            # scalar Generator draws consume the stream exactly like
            # size-(1,) draws, and scalar np.log10/np ops match the array
            # ufuncs (both pinned by tests).
            d = float(distance_m)
            mean = self.mean_rssi(d)
            far = d > self.far_threshold_m
            sigma = self.far_sigma_db if far else self.gaussian_sigma_db
            rssi = mean + rng.normal(0.0, 1.0) * sigma
            if far and self.far_fade_prob > 0.0:
                if rng.random() < self.far_fade_prob:
                    rssi = rssi - abs(
                        rng.normal(
                            self.far_fade_mean_db, self.far_fade_sigma_db
                        )
                    )
            return float(rssi)
        # Array path (calibration and Fig. 1), worked in place so that at
        # most three input-sized arrays are alive at once.  The draws and
        # values match the out-of-place form bit for bit: the mean takes
        # no draw, ``standard_normal`` draws exactly what ``normal(0, 1)``
        # would (see sample_rssi_batch), and subtracting the fade only
        # where it hit equals subtracting 0.0 elsewhere.
        d = np.atleast_1d(np.asarray(distance_m, dtype=float))
        far = d > self.far_threshold_m
        noise = rng.standard_normal(d.shape)
        noise *= np.where(far, self.far_sigma_db, self.gaussian_sigma_db)
        rssi = self.mean_rssi(d)
        rssi += noise
        if self.far_fade_prob > 0.0 and far.any():
            # The fade uniforms overwrite the spent shadowing deviates.
            hit = rng.random(out=noise) < self.far_fade_prob
            del noise
            hit &= far
            if hit.any():
                fades = rng.normal(
                    self.far_fade_mean_db,
                    self.far_fade_sigma_db,
                    size=d.shape,
                )
                np.abs(fades, out=fades)
                np.subtract(rssi, fades, out=rssi, where=hit)
        if np.isscalar(distance_m):
            return float(rssi[0])
        return rssi.reshape(np.shape(distance_m))

    def sample_rssi_batch(
        self, distances_m: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw noisy RSSI for many receivers of **one** frame at once.

        Bit-identical to calling :meth:`sample_rssi` once per scalar
        distance, in order — including the consumed RNG stream.  A scalar
        call draws its shadowing normal, then (far regime only) a fade
        uniform, then (on a fade hit) the fade normal, so the draws of
        consecutive receivers interleave.  The batch replays exactly that
        order: one ``normal(size=n)`` covers each run of receivers up to
        and including the next far receiver (a size-``n`` array draw
        consumes the Generator stream exactly like ``n`` sequential
        scalar draws — pinned by a property test), then that receiver's
        fade draws happen scalar-wise.  When no receiver is in the far
        regime this collapses to a single ``normal(size=k)`` draw.

        Args:
            distances_m: 1-D array of transmitter-receiver distances.
            rng: the channel's RSSI-noise stream.

        Returns:
            Sampled RSSI in dBm, one per input distance.
        """
        d = np.asarray(distances_m, dtype=float)
        k = d.size
        if k == 0:
            return np.empty(0)
        mean = self.mean_rssi(d)
        far = d > self.far_threshold_m
        any_far = bool(far.any())
        # With no far receiver sigma is uniform, and multiplying by the
        # scalar is bit-identical to multiplying by an array filled with
        # it — the common case (most frames are in-area) then skips the
        # np.where materialization.
        sigma = (
            np.where(far, self.far_sigma_db, self.gaussian_sigma_db)
            if any_far
            else self.gaussian_sigma_db
        )
        fade_db = None
        # ``standard_normal()`` replaces ``normal(0.0, 1.0)`` throughout:
        # it consumes the Generator stream identically and returns the
        # raw deviate that loc=0/scale=1 would pass through unchanged
        # (0.0 + 1.0*z == z exactly), while skipping the loc/scale
        # machinery — the draws are bit-identical and ~25% cheaper.
        if self.far_fade_prob <= 0.0 or not any_far:
            noise = rng.standard_normal(k)
        else:
            noise = np.empty(k)
            fade_db = np.zeros(k)
            standard_normal = rng.standard_normal
            normal = rng.normal
            random = rng.random
            fade_prob = self.far_fade_prob
            start = 0
            # Single-element runs use scalar draws — a scalar draw
            # consumes the Generator stream exactly like a size-1 array
            # draw (pinned by a property test) and skips the array
            # construction, which dominates when most receivers are far.
            for j in np.flatnonzero(far).tolist():
                if j == start:
                    noise[j] = standard_normal()
                else:
                    noise[start:j + 1] = standard_normal(j + 1 - start)
                start = j + 1
                if random() < fade_prob:
                    fade_db[j] = abs(
                        normal(
                            self.far_fade_mean_db, self.far_fade_sigma_db
                        )
                    )
            if start == k - 1:
                noise[start] = standard_normal()
            elif start < k:
                noise[start:] = standard_normal(k - start)
        rssi = mean + noise * sigma
        if fade_db is not None:
            rssi = rssi - fade_db
        return rssi


@dataclass(frozen=True)
class ReceiverModel:
    """Receiver-side reception thresholds.

    Attributes:
        sensitivity_dbm: weakest decodable RSSI (2 Mbps 802.11b cards sit
            near -93 dBm, giving ~150+ m range under the default channel).
        carrier_sense_dbm: weakest signal that still marks the medium busy
            for CSMA (a few dB below sensitivity).
        capture_threshold_db: SINR margin by which the strongest overlapping
            frame must beat the sum of interferers to survive a collision.
    """

    sensitivity_dbm: float = -93.0
    carrier_sense_dbm: float = -96.0
    capture_threshold_db: float = 10.0

    def __post_init__(self) -> None:
        if self.carrier_sense_dbm > self.sensitivity_dbm:
            raise ValueError(
                "carrier_sense_dbm (%r) should not exceed sensitivity_dbm "
                "(%r)" % (self.carrier_sense_dbm, self.sensitivity_dbm)
            )
        if self.capture_threshold_db < 0:
            raise ValueError(
                "capture_threshold_db must be non-negative, got %r"
                % self.capture_threshold_db
            )

    def can_decode(self, rssi_dbm: float) -> bool:
        """True if a frame at this RSSI is decodable in a clean channel."""
        return rssi_dbm >= self.sensitivity_dbm

    def senses_busy(self, rssi_dbm: float) -> bool:
        """True if energy at this level marks the medium busy."""
        return rssi_dbm >= self.carrier_sense_dbm
