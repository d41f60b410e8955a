"""Compensated floating-point accumulation.

All series in this package are summed in a fixed (ascending) order with
Kahan-Neumaier compensation, so repeated runs produce bit-identical results.
"""

from __future__ import annotations


class CompensatedSum:
    """Neumaier variant of Kahan summation for real values."""

    __slots__ = ("_sum", "_comp")

    def __init__(self) -> None:
        self._sum = 0.0
        self._comp = 0.0

    def add(self, value: float) -> None:
        t = self._sum + value
        if abs(self._sum) >= abs(value):
            self._comp += (self._sum - t) + value
        else:
            self._comp += (value - t) + self._sum
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


class ComplexCompensatedSum:
    """Compensated accumulation of complex values, component-wise."""

    __slots__ = ("_re", "_im")

    def __init__(self) -> None:
        self._re = CompensatedSum()
        self._im = CompensatedSum()

    def add(self, value: complex) -> None:
        value = complex(value)
        self._re.add(value.real)
        self._im.add(value.imag)

    @property
    def value(self) -> complex:
        return complex(self._re.value, self._im.value)
