"""Shared utilities: planar geometry, unit conversion and validation helpers.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""

from repro.util.geometry import (
    Rect,
    Vec2,
    distance,
    normalize_angle,
)
from repro.util.units import (
    DBM_MIN,
    dbm_to_mw,
    joules,
    mw_to_dbm,
)
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "Vec2",
    "Rect",
    "distance",
    "normalize_angle",
    "dbm_to_mw",
    "mw_to_dbm",
    "joules",
    "DBM_MIN",
    "check_positive",
    "check_non_negative",
    "check_in_range",
]
