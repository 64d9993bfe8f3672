"""Unit tests for repro.util.geometry."""

import math

import pytest

from repro.util.geometry import (
    Rect,
    Vec2,
    distance,
    normalize_angle,
)


class TestVec2:
    def test_addition(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)

    def test_subtraction(self):
        assert Vec2(5, 7) - Vec2(2, 3) == Vec2(3, 4)

    def test_scalar_multiplication_both_sides(self):
        assert Vec2(1, 2) * 3 == Vec2(3, 6)
        assert 3 * Vec2(1, 2) == Vec2(3, 6)

    def test_division(self):
        assert Vec2(4, 6) / 2 == Vec2(2, 3)

    def test_negation(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)

    def test_iteration_unpacks_coordinates(self):
        x, y = Vec2(3.5, -1.5)
        assert (x, y) == (3.5, -1.5)

    def test_dot_product(self):
        assert Vec2(1, 2).dot(Vec2(3, 4)) == 11

    def test_norm(self):
        assert Vec2(3, 4).norm() == pytest.approx(5.0)

    def test_distance_to(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Vec2(1.5, -2.0), Vec2(-3.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_heading_to_east(self):
        assert Vec2(0, 0).heading_to(Vec2(1, 0)) == pytest.approx(0.0)

    def test_heading_to_north(self):
        assert Vec2(0, 0).heading_to(Vec2(0, 5)) == pytest.approx(
            math.pi / 2
        )

    def test_unit_has_norm_one(self):
        u = Vec2(3, 4).unit()
        assert u.norm() == pytest.approx(1.0)
        assert u.x == pytest.approx(0.6)

    def test_unit_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Vec2.zero().unit()

    def test_rotated_quarter_turn(self):
        r = Vec2(1, 0).rotated(math.pi / 2)
        assert r.x == pytest.approx(0.0, abs=1e-12)
        assert r.y == pytest.approx(1.0)

    def test_rotation_preserves_norm(self):
        v = Vec2(3.3, -4.4)
        assert v.rotated(1.234).norm() == pytest.approx(v.norm())

    def test_from_polar(self):
        v = Vec2.from_polar(2.0, math.pi)
        assert v.x == pytest.approx(-2.0)
        assert v.y == pytest.approx(0.0, abs=1e-12)

    def test_hashable(self):
        assert len({Vec2(1, 2), Vec2(1, 2), Vec2(2, 1)}) == 2


class TestRect:
    def test_dimensions(self):
        r = Rect(10, 20, 110, 70)
        assert r.width == 100
        assert r.height == 50
        assert r.area == 5000

    def test_center(self):
        assert Rect(0, 0, 10, 20).center == Vec2(5, 10)

    def test_diagonal(self):
        assert Rect(0, 0, 30, 40).diagonal == pytest.approx(50.0)

    def test_contains_interior_and_boundary(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains(Vec2(5, 5))
        assert r.contains(Vec2(0, 0))
        assert r.contains(Vec2(10, 10))

    def test_contains_outside(self):
        r = Rect(0, 0, 10, 10)
        assert not r.contains(Vec2(10.01, 5))
        assert not r.contains(Vec2(5, -0.01))

    def test_contains_with_tolerance(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains(Vec2(10.5, 5), tolerance=1.0)

    def test_square_factory(self):
        s = Rect.square(200.0)
        assert s.area == pytest.approx(40000.0)  # the paper's area

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 10)
        with pytest.raises(ValueError):
            Rect(0, 5, 10, 5)

    def test_square_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rect.square(0.0)


class TestAngleHelpers:
    def test_normalize_angle_identity_in_range(self):
        assert normalize_angle(1.0) == pytest.approx(1.0)

    def test_normalize_angle_wraps_positive(self):
        assert normalize_angle(math.pi + 0.5) == pytest.approx(
            -math.pi + 0.5
        )

    def test_normalize_angle_wraps_many_turns(self):
        assert normalize_angle(7 * math.pi) == pytest.approx(math.pi)

    def test_normalize_angle_boundary_is_pi(self):
        assert normalize_angle(math.pi) == pytest.approx(math.pi)
        assert normalize_angle(-math.pi) == pytest.approx(math.pi)

    def test_module_level_helpers(self):
        assert distance(Vec2(0, 0), Vec2(0, 2)) == pytest.approx(2.0)
