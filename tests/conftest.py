"""Shared test fixtures."""

import pytest


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
