"""Unit conversion helpers for RF power and energy.

The wireless stack works internally in dBm for signal strength (matching the
paper's RSSI plots) and in joules for energy.  These helpers keep the
conversions in one place and guard against the classic dBm/mW mix-ups.
"""

from __future__ import annotations

import math

#: Floor used when converting a zero/negative power ratio to dB.  -200 dBm is
#: far below any thermal noise floor and is treated as "no signal".
DBM_MIN = -200.0


def dbm_to_mw(dbm: float) -> float:
    """Convert a power level in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power level in milliwatts to dBm.

    Non-positive powers map to :data:`DBM_MIN` rather than raising, because
    summed interference can legitimately be zero.
    """
    if mw <= 0.0:
        return DBM_MIN
    return 10.0 * math.log10(mw)


def joules(milliwatts: float, seconds: float) -> float:
    """Energy in joules consumed by drawing ``milliwatts`` for ``seconds``."""
    if seconds < 0:
        raise ValueError("duration must be non-negative, got %r" % seconds)
    return milliwatts * 1e-3 * seconds
