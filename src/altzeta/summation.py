"""Exactly rounded floating-point summation.

Every series in this package is summed by one call to :func:`math.fsum`
(Shewchuk's adaptive-precision algorithm), which returns the correctly
rounded sum of its inputs whatever their order.  The result is
deterministic, so repeated runs produce bit-identical values.
"""

from __future__ import annotations

import math


def complex_fsum(parts) -> complex:
    """Correctly rounded sum of complex values, component by component."""
    parts = list(parts)  # read twice, so a generator must be materialised
    return complex(math.fsum([p.real for p in parts]), math.fsum([p.imag for p in parts]))
