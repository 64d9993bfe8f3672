"""Small argument-validation helpers.

Configuration objects throughout the library validate eagerly at construction
time so that a bad parameter fails with a clear message instead of producing
a silently wrong simulation.
"""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def check_positive(name: str, value: Number) -> Number:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError("%s must be positive, got %r" % (name, value))
    return value


def check_non_negative(name: str, value: Number) -> Number:
    """Require ``value >= 0``; return it for chaining."""
    if not value >= 0:
        raise ValueError("%s must be non-negative, got %r" % (name, value))
    return value


def check_in_range(
    name: str, value: Number, low: Number, high: Number
) -> Number:
    """Require ``low <= value <= high``; return it for chaining."""
    if not (low <= value <= high):
        raise ValueError(
            "%s must be in [%r, %r], got %r" % (name, low, high, value)
        )
    return value


def check_probability(name: str, p: Number) -> Number:
    """Require ``0 <= p <= 1`` (a probability); return it for chaining.

    NaN fails too: every comparison against NaN is false, so the range
    test rejects it with the same message.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(
            "%s must be a probability in [0, 1], got %r" % (name, p)
        )
    return p
