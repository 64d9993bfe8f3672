"""Planar geometry primitives used throughout the simulator.

The simulation world is a 2-D Euclidean plane.  Robots are points, headings
are angles in radians measured counter-clockwise from the positive x axis,
and the deployment area is an axis-aligned rectangle (:class:`Rect`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

TWO_PI = 2.0 * math.pi


class Vec2:
    """An immutable 2-D vector / point with float coordinates.

    ``Vec2`` supports the usual vector arithmetic and is hashable, which
    makes it convenient both as a position and as a dictionary key in
    trajectory bookkeeping.

    Implemented as a plain ``__slots__`` class rather than a frozen
    dataclass: vector arithmetic creates hundreds of thousands of
    instances per run, and the frozen-dataclass ``__init__`` (two
    ``object.__setattr__`` calls) tripled the construction cost.
    Immutability is by convention — nothing may assign to ``x``/``y``
    after construction (the hash and every cached position depend on it).
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __repr__(self) -> str:
        return "Vec2(x=%r, y=%r)" % (self.x, self.y)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Vec2:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        """Return the dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        """Return the Euclidean length of this vector."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Return the Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def heading_to(self, other: "Vec2") -> float:
        """Return the heading (radians, CCW from +x) pointing at ``other``."""
        return math.atan2(other.y - self.y, other.x - self.x)

    def unit(self) -> "Vec2":
        """Return a unit-length copy.

        Raises:
            ZeroDivisionError: if this is the zero vector.
        """
        n = self.norm()
        # repro: noqa[REP004] exact-zero check before dividing by the norm
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def rotated(self, angle: float) -> "Vec2":
        """Return this vector rotated CCW by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    @staticmethod
    def from_polar(radius: float, angle: float) -> "Vec2":
        """Build a vector from polar coordinates (radians)."""
        return Vec2(radius * math.cos(angle), radius * math.sin(angle))

    @staticmethod
    def zero() -> "Vec2":
        """Return the origin."""
        return Vec2(0.0, 0.0)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle describing the deployment area.

    Follows the paper's convention of bounding coordinates
    ``[x_min, x_max] x [y_min, y_max]``.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(
                "degenerate Rect: (%r, %r, %r, %r)"
                % (self.x_min, self.y_min, self.x_max, self.y_max)
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Vec2:
        return Vec2(
            (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0
        )

    @property
    def diagonal(self) -> float:
        """Length of the rectangle's diagonal — the maximum possible
        distance between two points inside it."""
        return math.hypot(self.width, self.height)

    def contains(self, point: Vec2, tolerance: float = 0.0) -> bool:
        """Return True if ``point`` lies inside (or within ``tolerance``)."""
        return (
            self.x_min - tolerance <= point.x <= self.x_max + tolerance
            and self.y_min - tolerance <= point.y <= self.y_max + tolerance
        )

    @staticmethod
    def square(side: float) -> "Rect":
        """Return a square ``side x side`` area anchored at the origin."""
        if side <= 0:
            raise ValueError("side must be positive, got %r" % side)
        return Rect(0.0, 0.0, side, side)


def distance(a: Vec2, b: Vec2) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def normalize_angle(angle: float) -> float:
    """Normalize an angle in radians into ``(-pi, pi]``."""
    angle = math.fmod(angle, TWO_PI)
    if angle <= -math.pi:
        angle += TWO_PI
    elif angle > math.pi:
        angle -= TWO_PI
    return angle


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """:func:`normalize_angle` over an array, element for element.

    ``np.fmod`` is exact like ``math.fmod``, and each branch adds or
    subtracts the same ``TWO_PI``, so every element equals the scalar
    result bit for bit.
    """
    angles = np.fmod(angles, TWO_PI)
    low = angles <= -math.pi
    high = angles > math.pi
    angles[low] += TWO_PI
    angles[high] -= TWO_PI
    return angles
