"""Shared test fixtures."""

import math
from fractions import Fraction

import pytest

from altzeta import pochhammer


def _magnitude_layers(z, depth: int, k_max: int) -> list[list[float]]:
    """The layer recurrence (t + 1) r_i(t + 1) = |z + t| r_i(t) + i r_(i-1)(t)
    run on magnitudes, for i <= depth and t <= k_max.

    Every product that makes up g_i(t) enters r_i(t) with its absolute
    value, so r_i(t) >= |g_i(t)| is the scale against which rounding acts:
    a float g_i(t) lies within a few ulps of r_i(t) of the exact value,
    and where that vanishes only this noise is left.
    """
    z = complex(z)
    rows = [[1.0] + [0.0] * k_max] + [[0.0] * (k_max + 1) for _ in range(depth)]
    for t in range(k_max):
        size = abs(z + t)
        for i, row in enumerate(rows):
            lower = i * rows[i - 1][t] if i else 0.0
            row[t + 1] = (size * row[t] + lower) / (t + 1)
    return rows


@pytest.fixture
def magnitude_layers():
    return _magnitude_layers


def _exact_nested_layers(z, depth: int, k_max: int) -> list[list[Fraction]]:
    """Layers 0..depth at j = 0..k_max from their nested-sum definition in
    exact rational arithmetic: g_0(j) = (z)_j / j!, and
    g_i(j) = sum_{l<j} g_{i-1}(l) / (j - l).  No jet recurrence is shared,
    so this is an independent oracle for the jets."""
    z = Fraction(z)
    rows = [[pochhammer(z, j) / math.factorial(j) for j in range(k_max + 1)]]
    for _ in range(depth):
        prev = rows[-1]
        rows.append(
            [sum((prev[l] / (j - l) for l in range(j)), Fraction(0)) for j in range(k_max + 1)]
        )
    return rows


@pytest.fixture
def exact_nested_layers():
    return _exact_nested_layers
