"""Unit tests for repro.util.units and repro.util.validation."""

import pytest

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


class TestPowerConversions:
    def test_zero_dbm_is_one_mw(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)

    def test_thirty_dbm_is_one_watt(self):
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)

    def test_negative_dbm(self):
        assert dbm_to_mw(-30.0) == pytest.approx(1e-3)

    def test_roundtrip(self):
        for dbm in (-95.0, -52.0, 0.0, 15.0):
            assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm)

    def test_mw_to_dbm_of_zero_is_floor(self):
        assert mw_to_dbm(0.0) == DBM_MIN
        assert mw_to_dbm(-1.0) == DBM_MIN

    def test_joules(self):
        # 900 mW for 1800 s = 1620 J: the paper's idle baseline per node.
        assert joules(900.0, 1800.0) == pytest.approx(1620.0)

    def test_joules_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            joules(100.0, -1.0)


class TestValidation:
    def test_check_positive_accepts_and_returns(self):
        assert check_positive("x", 3) == 3

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)
