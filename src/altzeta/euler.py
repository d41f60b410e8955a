"""Exact Euler-number and Euler-polynomial machinery.

Everything downstream is built on the numbers E_k(0), the values at zero of
the Euler polynomials E_k(q) generated by 2*exp(q*t)/(exp(t) + 1).  Since
2/(exp(t) + 1) = 1 - tanh(t/2), they are the tangent numbers T_k (the
Taylor coefficients of tan, times k!) up to sign and a power of two:

    E_0(0) = 1,   E_(2j-1)(0) = (-1)^j * T_(2j-1) / 2^(2j-1),
    E_k(0) = 0    for even k >= 2.

The table holds the integer numerators a_k = 2^k * E_k(0), which are the
signed tangent numbers.  It is built from the integer tangent-number
recurrence of Knuth and Buckholtz (Math. Comp. 21 (1967), 663-688) only as
far as the largest index asked for so far, so no rational arithmetic
enters its construction.  Floating point enters only at evaluation time,
through a single correctly rounded integer division; ``Fraction`` objects
are formed only by the exact public functions.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import CapacityError, DomainError

#: Largest index held by the exact table.  Smallest-term truncation of the
#: large-q expansions never reaches beyond this at double precision.
K_MAX = 256

#: a_0, a_1, ... with E_k(0) = a_k / 2^k, through a power of two (at least
#: 64, at most K_MAX); grown by ``_numerators``.
_table: tuple[int, ...] = ()


def _numerators(k: int) -> tuple[int, ...]:
    """The numerator table through index k at least (k <= K_MAX).

    When k is past its end, the table is rebuilt through the next power of
    two.  t[j] runs through the tangent numbers T_(2j-1) by the
    Knuth-Buckholtz recurrence: seed t[j] = (j-1)*t[j-1] (the factorials),
    then for k = 2, 3, ... sweep t[j] = (j-k)*t[j-1] + (j-k+2)*t[j] over
    j >= k.  A sweep never changes t[j] for j < k, so a longer build
    extends a shorter one entry for entry.
    """
    global _table
    if k < len(_table):
        return _table
    top = min(max(64, 1 << (k - 1).bit_length()), K_MAX)
    half = top // 2
    t = [0, 1] + [0] * (half - 1)
    for i in range(2, half + 1):
        t[i] = (i - 1) * t[i - 1]
    for i in range(2, half + 1):
        for j in range(i, half + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    values = [0] * (top + 1)
    values[0] = 1
    for j in range(1, half + 1):
        values[2 * j - 1] = -t[j] if j % 2 else t[j]
    _table = tuple(values)
    return _table


def _check_index(k: int, name: str = "k") -> None:
    if k < 0:
        raise DomainError(f"{name} must be non-negative, got {k}")
    if k > K_MAX:
        raise CapacityError(f"{name}={k} exceeds the exact table capacity K_MAX={K_MAX}")


def euler_number_at_zero(k: int) -> Fraction:
    """Exact E_k(0): 1, -1/2, 0, 1/4, 0, -1/2, ... (zero for even k >= 2)."""
    from fractions import Fraction

    _check_index(k)
    return Fraction(_numerators(k)[k], 1 << k)


@lru_cache(maxsize=None)
def euler_number_over_factorial(k: int) -> float:
    """float(E_k(0) / k!) = a_k / (2^k * k!).

    This ratio decays like 4/pi^(k+1), so it stays representable for every
    k <= K_MAX even where E_k(0) itself overflows a double.  Integer true
    division is correctly rounded, so no Fraction is formed.
    """
    _check_index(k)
    return _numerators(k)[k] / ((1 << k) * math.factorial(k))


@lru_cache(maxsize=None)
def _scaled_polynomial_coefficients(n: int) -> tuple[int, ...]:
    """Integer coefficients of 2^n * E_n(q), ascending powers of q.

    E_n(q) = sum_{k=0}^{n} C(n, k) * E_k(0) * q^(n-k), so the coefficient
    of q^i is C(n, i) * a_(n-i) * 2^i.
    """
    _check_index(n, "n")
    a = _numerators(n)
    return tuple(math.comb(n, i) * a[n - i] << i for i in range(n + 1))


@lru_cache(maxsize=None)
def euler_polynomial_coefficients(n: int) -> tuple[Fraction, ...]:
    """Exact coefficients of E_n(q), ascending powers of q.

    E_n(q) = sum_{k=0}^{n} C(n, k) * E_k(0) * q^(n-k); the leading
    coefficient is 1 and the constant term is E_n(0).
    """
    from fractions import Fraction

    return tuple(Fraction(c, 1 << n) for c in _scaled_polynomial_coefficients(n))


@lru_cache(maxsize=None)
def _euler_polynomial_float_coefficients(n: int) -> tuple[float, ...]:
    # Exact coefficients are rounded here exactly once (a correctly rounded
    # integer division); evaluation is then a plain Horner recurrence,
    # keeping results reproducible.
    try:
        return tuple(c / (1 << n) for c in _scaled_polynomial_coefficients(n))
    except OverflowError:
        raise CapacityError(f"the coefficients of E_{n}(q) overflow double precision") from None


def euler_polynomial(n: int, q: float) -> float:
    """E_n(q) by Horner evaluation of the exact coefficients."""
    coeffs = _euler_polynomial_float_coefficients(n)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def quasi_periodic_euler(n: int, x: float) -> float:
    """The sign-flipping periodic extension of E_n from [0, 1) to the line.

    The extension satisfies value(x + 1) = -value(x); on [0, 1) it equals
    E_n(x).
    """
    shift = math.floor(x)
    frac = x - shift
    sign = -1.0 if shift % 2 else 1.0
    return sign * euler_polynomial(n, frac)


def fourier_partial_sum(n: int, x: float, k_max: int) -> float:
    """Truncated sine expansion of the quasi-periodic extension.

    Sums (4*n!/pi^(n+1)) * sin((2k+1)*pi*x - n*pi/2) / (2k+1)^(n+1) over
    k = 0..k_max.  The expansion is valid for 0 <= x < 1 when n >= 1 and for
    0 < x < 1 when n = 0; x = 0 with n = 0 is rejected rather than assigned
    a principal value.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be positive, got {k_max}")
    if n == 0:
        if not 0.0 < x < 1.0:
            raise DomainError(f"x={x} outside (0, 1), the validity range for n=0")
    else:
        if not 0.0 <= x < 1.0:
            raise DomainError(f"x={x} outside [0, 1), the validity range for n>=1")
    if n <= 150:
        prefactor = 4.0 * math.factorial(n) / math.pi ** (n + 1)
    else:
        prefactor = 4.0 * math.exp(math.lgamma(n + 1) - (n + 1) * math.log(math.pi))
    phase = 0.5 * math.pi * n
    terms = [
        math.sin(odd * math.pi * x - phase) / float(odd) ** (n + 1)
        for odd in range(1, 2 * k_max + 2, 2)
    ]
    return prefactor * math.fsum(terms)
