"""Pochhammer jets: the coefficients of the large-q expansions.

The tail of the m-th derivative expansion carries coefficients
E_k(0) * g_m(k), where g_i(k) is the i-th z-derivative of (z)_k / k!.
All of them come from one object, the jet of

    P_k(eps) = (z + eps)_k / k!

to order eps^m: its entry P_k[i] is g_i(k) / i!.  Each jet follows from
the one before by one multiplication,

    P_k = P_(k-1) (z + k - 1 + eps) / k,    P_0 = 1,

O(m) work per k with none of the cancellation the nested-sum form of the
layers, g_i(k) = sum_{l<k} g_(i-1)(l) / (k - l), suffers at negative z.
:func:`pochhammer_jets` is the only implementation of this recurrence: the
expansions in :mod:`altzeta.zeta` sum over its jets, the ``coeffs``
tables and the ``verify`` ladders take one pass each, and
:func:`pochhammer_derivative` and :func:`expansion_coefficient` read one
entry of it.  Arithmetic is exact (Fraction) when z is an int or Fraction
and floating point otherwise.

:func:`expansion_coefficient_at_neg_int` builds the same coefficients at
z = -n from the nested sums instead, as an independent exact check.
"""

from __future__ import annotations

import itertools
import math
import sys

from .errors import CapacityError, DomainError
from .euler import euler_number_at_zero


def _is_exact(z) -> bool:
    """True for an int or Fraction z.  A Fraction can exist only once its
    module is loaded, so the test needs no import of its own."""
    fractions = sys.modules.get("fractions")
    return isinstance(z, int) or (fractions is not None and isinstance(z, fractions.Fraction))


def pochhammer(z, k: int):
    """Rising factorial (z)_k = z (z+1) ... (z+k-1), with (z)_0 = 1.

    Exact for int or Fraction inputs, floating otherwise.
    """
    if k < 0:
        raise DomainError(f"order must be non-negative, got {k}")
    result = z * 0 + 1  # one, in the arithmetic of z
    for j in range(k):
        result = result * (z + j)
    return result


def pochhammer_jets(z, m: int):
    """The jets P_0, P_1, ... of P_k(eps) = (z+eps)_k / k! to order eps^m,
    as lists [P_k[0], ..., P_k[m]], so that g_j(k) = j! P_k[j]: an endless
    generator, one jet per k.

    Entries are Fractions at int or Fraction z.  Otherwise they are floats
    at real z, with the values complex arithmetic gives, and complex at
    complex z.  At z = -n the factor z+n+eps has an exact zero constant
    term, so P_k[0] = (z)_k / k! vanishes exactly for k > n.
    """
    if m < 0:
        raise DomainError(f"jet order must be non-negative, got {m}")
    if _is_exact(z):
        from fractions import Fraction

        zero, one = Fraction(0), Fraction(1)
    else:
        z = complex(z)
        z = z.real if z.imag == 0.0 else z
        zero = 0.0 * z
        one = zero + 1.0
    jet = [one] + [zero] * m
    k = 0
    while True:
        yield jet
        k += 1
        shift = z + (k - 1)
        jet = [(shift * x + y) / k for x, y in zip(jet, [zero] + jet)]


def pochhammer_derivative(z, k: int):
    """Derivative in z of (z)_k / k!, which is g_1(k).

    Exact for int or Fraction inputs, complex otherwise.
    """
    if k < 1:
        raise DomainError(f"order must be positive, got {k}")
    value = next(itertools.islice(pochhammer_jets(z, 1), k, None))[1]
    return value if _is_exact(z) else complex(value)


def _expansion_coefficients(z, m: int):
    """E_k(0) g_m(k) for k = 2, 3, ... from one pass of the jets: exact for
    int or Fraction z, complex otherwise.

    In floating mode E_k(0) overflows a double near k = 220, so the first
    nonzero coefficient past k = 170 raises CapacityError; the evaluators
    use a scaled form internally.  A nonzero g_m(k) needs k >= m, so m!
    stays a double wherever it is used.
    """
    if m < 0:
        raise DomainError(f"derivative order must be non-negative, got {m}")
    exact = _is_exact(z)
    scale = math.factorial(m)
    for k, jet in enumerate(itertools.islice(pochhammer_jets(z, m), 2, None), 2):
        ek = euler_number_at_zero(k)
        if exact:
            yield ek * scale * jet[m]
        elif not ek or not jet[m]:
            yield 0j
        elif k > 170:
            raise CapacityError(
                f"E_k(0) overflows double precision near k=220; got k={k} in floating mode"
            )
        else:
            yield complex(float(ek) * scale * jet[m])


def expansion_coefficient(z, k: int, m: int):
    """Coefficient of q^(-z-k) in the m-th derivative tail at z:
    E_k(0) * g_m(k), read from the jets as in ``_expansion_coefficients``.

    Exact for int or Fraction z, complex otherwise.  Zero for every even k
    because E_k(0) vanishes there.
    """
    if k < 2:
        raise DomainError(f"tail index starts at k=2, got {k}")
    return next(itertools.islice(_expansion_coefficients(z, m), k - 2, None))


def _neg_int_inner_layer(n: int, m: int, k: int) -> Fraction:
    """The braces of the truncated nested sum at z = -n, exact.

    Innermost layer: h_1(j) = sum_{l=0}^{min(n, j-1)} C(n, l) (-1)^l / (j-l);
    outer layers convolve with harmonic weights as in the nested-sum form
    of the layers.  Returns h_m(k).  Built from the nested sums rather than
    the jet recurrence, this is an independent exact check on
    :func:`pochhammer_jets`.
    """
    from fractions import Fraction

    h = [Fraction(0)] * (k + 1)
    for j in range(1, k + 1):
        h[j] = alternating_binomial_partial_sum(n, j)
    for _ in range(m - 1):
        nxt = [Fraction(0)] * (k + 1)
        for j in range(1, k + 1):
            acc = Fraction(0)
            for l in range(j):
                acc += h[l] / (j - l)
            nxt[j] = acc
        h = nxt
    return h[k]


def expansion_coefficient_at_neg_int(k: int, m: int, n: int) -> Fraction:
    """Exact tail coefficient at z = -n with the inner sum truncated at n.

    The truncation removes only terms whose Pochhammer factor vanishes, so
    the result equals :func:`expansion_coefficient` evaluated at z = -n.
    Requires m >= 1.
    """
    from fractions import Fraction

    if k < 2:
        raise DomainError(f"tail index starts at k=2, got {k}")
    if m < 1:
        raise DomainError(f"derivative order must be positive, got {m}")
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    ek = euler_number_at_zero(k)
    if ek == 0:
        return Fraction(0)
    return ek * _neg_int_inner_layer(n, m, k)


def alternating_binomial_sum(n: int, k: int) -> Fraction:
    """sum_{j=0}^{n} C(n, j) (-1)^j / (k - j), exact; requires k > n >= 0.

    Equals (-1)^n * n! / (k (k-1) ... (k-n)) in closed form.
    """
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if k <= n:
        raise DomainError(f"need k > n to avoid a zero denominator, got k={k}, n={n}")
    return alternating_binomial_partial_sum(n, k)


def alternating_binomial_partial_sum(n: int, k: int) -> Fraction:
    """sum_{j=0}^{min(n, k-1)} C(n, j) (-1)^j / (k - j), exact.

    For k > n this coincides with :func:`alternating_binomial_sum`; for
    k <= n it is the partial sum that appears in the finite block of the
    negative-integer expansions.
    """
    from fractions import Fraction

    if n < 0 or k < 1:
        raise DomainError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    total = Fraction(0)
    for j in range(min(n, k - 1) + 1):
        total += Fraction(math.comb(n, j) * (-1) ** j, k - j)
    return total
