"""Shared utilities: planar geometry, unit conversion and validation helpers.

These helpers are deliberately dependency-light; every other subpackage of
:mod:`repro` builds on them.
"""

from repro.util.geometry import (
    Rect,
    Vec2,
    distance,
    heading_between,
    normalize_angle,
    wrap_angle_deg,
)
from repro.util.units import (
    DBM_MIN,
    db_to_ratio,
    dbm_to_mw,
    joules,
    mw_to_dbm,
    ratio_to_db,
)
from repro.util.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
)

__all__ = [
    "Vec2",
    "Rect",
    "distance",
    "heading_between",
    "normalize_angle",
    "wrap_angle_deg",
    "dbm_to_mw",
    "mw_to_dbm",
    "db_to_ratio",
    "ratio_to_db",
    "joules",
    "DBM_MIN",
    "check_positive",
    "check_non_negative",
    "check_finite",
    "check_in_range",
]
