"""Exactly rounded floating-point summation.

Every series in this package is summed by one call to :func:`math.fsum`
(Shewchuk's adaptive-precision algorithm), which returns the correctly
rounded sum of its inputs whatever their order.  The result is
deterministic, so repeated runs produce bit-identical values.
"""

from __future__ import annotations

import math


def _fsum(values: list[float]) -> float:
    try:
        return math.fsum(values)
    except ValueError:  # inf - inf: NaN, as plain addition gives
        return math.nan


def complex_fsum(parts) -> complex:
    """Correctly rounded sum of complex values, component by component; a
    component whose parts hold both infinities is NaN."""
    parts = list(parts)  # read twice, so a generator must be materialised
    return complex(_fsum([p.real for p in parts]), _fsum([p.imag for p in parts]))
