"""Runtime fault models: the stochastic machinery behind each spec.

Each model owns its own seeded RNG stream (handed in by the
:class:`~repro.faults.injector.FaultInjector`), so adding or removing a
fault never perturbs the draws of any other component — the property the
zero-intensity bit-identity guarantee rests on.

All models are queried with monotonically non-decreasing simulation
times, which lets the time-driven ones (burst state, brownout windows)
advance lazily: RNG consumption depends only on simulated time, not on
how often the model is asked.
"""

from __future__ import annotations

import struct
from dataclasses import is_dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.faults.spec import (
    BrownoutSpec,
    BurstInterferenceSpec,
    RssiBiasSpec,
)


class GilbertElliottChannel:
    """Two-state Markov burst-interference process (channel-wide).

    The chain alternates GOOD/BAD with exponential sojourns; state is
    advanced lazily as time is queried.  While BAD, each offered frame is
    independently lost with ``spec.bad_loss_prob`` and survivors decode
    against a noise floor elevated by ``spec.bad_noise_db``.
    """

    def __init__(
        self, spec: BurstInterferenceSpec, rng: np.random.Generator
    ) -> None:
        self._spec = spec
        self._rng = rng
        self._good = True
        self._until = float(rng.exponential(spec.mean_good_s))
        self.bad_time_entered = 0

    def in_bad_state(self, now: float) -> bool:
        """Advance the chain to ``now`` and report the state there."""
        while now >= self._until:
            self._good = not self._good
            if not self._good:
                self.bad_time_entered += 1
            mean = (
                self._spec.mean_good_s
                if self._good
                else self._spec.mean_bad_s
            )
            self._until += float(self._rng.exponential(mean))
        return not self._good

    def offer(self, now: float) -> Optional[float]:
        """Per-frame verdict: ``None`` = frame jammed, else the decode
        penalty in dB (0.0 while GOOD)."""
        if not self.in_bad_state(now):
            return 0.0
        if (
            self._spec.bad_loss_prob > 0.0
            and self._rng.random() < self._spec.bad_loss_prob
        ):
            return None
        return self._spec.bad_noise_db


class RadioCalibrationFault:
    """One receiver's RSSI measurement bias and slow drift."""

    def __init__(self, spec: RssiBiasSpec, rng: np.random.Generator) -> None:
        self.affected = bool(rng.random() < spec.fraction_affected)
        self._bias_db = (
            float(rng.normal(0.0, spec.bias_std_db))
            if spec.bias_std_db > 0.0
            else 0.0
        )
        sign = 1.0 if rng.random() < 0.5 else -1.0
        self._drift_db_per_s = sign * spec.drift_db_per_min / 60.0

    def reported_rssi(self, now: float, rssi_dbm: float) -> float:
        if not self.affected:
            return rssi_dbm
        return rssi_dbm + self._bias_db + self._drift_db_per_s * now


class BrownoutGenerator:
    """One radio's deaf windows: Poisson arrivals, exponential durations.

    Windows are materialized lazily in time order, so :meth:`is_deaf`
    must be queried with non-decreasing times (simulation time is).
    """

    def __init__(self, spec: BrownoutSpec, rng: np.random.Generator) -> None:
        self._rng = rng
        self._arrival_mean_s = 3600.0 / spec.rate_per_hour
        self._duration_mean_s = spec.mean_duration_s
        self.affected = bool(rng.random() < spec.fraction_affected)
        self._window_start = float(rng.exponential(self._arrival_mean_s))
        self._window_end = self._window_start + float(
            rng.exponential(self._duration_mean_s)
        )
        self.windows_entered = 0
        self._counted_current = False

    def is_deaf(self, now: float) -> bool:
        if not self.affected:
            return False
        while now >= self._window_end:
            self._window_start = self._window_end + float(
                self._rng.exponential(self._arrival_mean_s)
            )
            self._window_end = self._window_start + float(
                self._rng.exponential(self._duration_mean_s)
            )
            self._counted_current = False
        if now >= self._window_start:
            if not self._counted_current:
                self.windows_entered += 1
                self._counted_current = True
            return True
        return False


#: Bit positions eligible for a flip: bit 51 is the top mantissa bit of
#: an IEEE-754 double, bit 52 the lowest exponent bit.  Flipping one
#: displaces the value by 25-100% of its magnitude — wrong enough to
#: genuinely mislead the
#: Bayesian filter, finite and plausible-looking enough that nothing
#: short of a checksum catches it (high exponent flips would produce
#: astronomically wrong values the uniform floor in the PDF table
#: already shrugs off, and low-mantissa flips would be
#: indistinguishable from ordinary measurement noise).
_FLIP_BIT_LOW = 51
_FLIP_BIT_HIGH = 52


def flip_float_bit(value: float, bit: int) -> float:
    """Flip one bit of a double's IEEE-754 representation."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    (flipped,) = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))
    return flipped


class PayloadCorrupter:
    """Damages one float field of a dataclass payload via a bit flip."""

    def __init__(self, corrupt_prob: float, rng: np.random.Generator) -> None:
        self._prob = corrupt_prob
        self._rng = rng

    def _draw_flip(self, payload: object) -> Optional[Tuple[str, int]]:
        """One corruption decision's stream draws: the uniform, then for
        a damaged payload the field index and the bit.

        Returns the ``(field name, bit)`` to flip, or ``None`` to leave
        the payload.  Only dataclass payloads with at least one float
        field can be damaged (beacons and SYNCs are; opaque payloads
        pass through).
        """
        if self._rng.random() >= self._prob:
            return None
        if not is_dataclass(payload) or isinstance(payload, type):
            return None
        float_fields = [
            name
            for name, value in vars(payload).items()
            if isinstance(value, float)
        ]
        if not float_fields:
            return None
        field_name = float_fields[
            int(self._rng.integers(0, len(float_fields)))
        ]
        bit = int(self._rng.integers(_FLIP_BIT_LOW, _FLIP_BIT_HIGH + 1))
        return field_name, bit

    def corrupts(self, payload: object) -> bool:
        """Would :meth:`maybe_corrupt` damage ``payload``?

        Makes exactly the draws :meth:`maybe_corrupt` makes, so the
        stream stays in step, but builds no damaged copy — for a
        receiver that discards a damaged frame unread.
        """
        return self._draw_flip(payload) is not None

    def maybe_corrupt(self, payload: object) -> Optional[object]:
        """Return a damaged copy of ``payload``, or ``None`` to leave it."""
        flip = self._draw_flip(payload)
        if flip is None:
            return None
        field_name, bit = flip
        damaged = flip_float_bit(getattr(payload, field_name), bit)
        return replace(payload, **{field_name: damaged})
