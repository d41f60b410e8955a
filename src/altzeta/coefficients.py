"""Pochhammer symbols and the layered coefficients of the large-q expansions.

The tail of the m-th derivative expansion carries coefficients
E_k(0) * g_m(k), where the layer g_i(j) is the coefficient of x^j in

    G_i(x) = (1 - x)^(-z) * (-log(1 - x))^i.

So g_0(j) = (z)_j / j!, and since d/dz G_i = G_{i+1}, g_i(j) is the i-th
z-derivative of (z)_j / j!: the layer index counts derivative order, and
the plain expansion tail is the m = 0 case of the same family.  Expanding
the product gives the nested harmonic-weighted sums
g_i(j) = sum_{l<j} g_{i-1}(l) / (j - l); differentiating in x gives
(1 - x) G_i' = z G_i + i G_{i-1}, hence the first-order recurrence

    (j + 1) g_i(j + 1) = (z + j) g_i(j) + i g_{i-1}(j),    g_i(0) = [i = 0],

which is how the layers are computed: O(1) work per entry, and none of the
cancellation the nested sums suffer at negative z.

Layers are memoized per evaluation point in :class:`CoefficientCache`;
arithmetic is exact (Fraction) when z is an integer or Fraction and complex
floating point otherwise.
"""

from __future__ import annotations

import math
import sys

from .errors import CapacityError, DomainError
from .euler import euler_number_at_zero


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


def pochhammer_derivative(z, k: int):
    """Derivative in z of (z)_k / k!, which is the layer entry g_1(k).

    Exact for int or Fraction inputs, complex otherwise.
    """
    if k < 1:
        raise DomainError(f"order must be positive, got {k}")
    return CoefficientCache(z).layer(1, k)


def _grow(rows: list[list], m: int, j: int, factors: list) -> None:
    """Extend rows[0..m] through index j by the layer recurrence
    (t + 1) r_i(t + 1) = factors[t] r_i(t) + i r_{i-1}(t)."""
    while len(rows) <= m:
        rows.append([rows[0][0] * 0])
    for i in range(m + 1):
        row = rows[i]
        v = row[-1]
        if i:
            prev = rows[i - 1]
            for t in range(len(row) - 1, j):
                v = (factors[t] * v + i * prev[t]) / (t + 1)
                row.append(v)
        else:
            for t in range(len(row) - 1, j):
                v = factors[t] * v / (t + 1)
                row.append(v)


class CoefficientCache:
    """Memoized layers g_i(j) for one fixed evaluation point z.

    Each layer is grown by the first-order recurrence of the module
    docstring, a whole row at a time over the shared factors z + t.  A
    cache must not be shared across threads; recomputation from a fresh
    cache is always safe.
    """

    def __init__(self, z):
        self.z = z
        # A Fraction can exist only once its module is loaded, so the test
        # needs no import of its own.
        fractions = sys.modules.get("fractions")
        self.exact = isinstance(z, int) or (
            fractions is not None and isinstance(z, fractions.Fraction)
        )
        if self.exact:
            from fractions import Fraction

            one = Fraction(1)
        else:
            one = complex(z) * 0 + (1.0 + 0.0j)
        self._layers: list[list] = [[one]]
        self._shifts: list = []  # z + t

    def layer(self, m: int, j: int):
        """g_m(j), growing the underlying tables as needed."""
        return self.rows(m, j)[j]

    def rows(self, m: int, j: int) -> list:
        """Layer m, grown through index j at least.  The list is the
        cache's own: read it, never write to it."""
        if m < 0 or j < 0:
            raise DomainError(f"layer indices must be non-negative, got m={m}, j={j}")
        layers = self._layers
        if m >= len(layers) or j >= len(layers[m]):
            shifts = self._shifts
            shifts.extend(self.z + t for t in range(len(shifts), j))
            _grow(layers, m, j, shifts)
        return layers[m]


def expansion_coefficient(cache: CoefficientCache, k: int, m: int):
    """Coefficient of q^(-z-k) in the m-th derivative tail: E_k(0) * g_m(k).

    Zero for every even k because E_k(0) vanishes there.  In floating mode
    the E_k(0) factor overflows a double near k = 220; the evaluators use a
    scaled form internally, so this entry point is intended for moderate k.
    """
    if k < 2:
        raise DomainError(f"tail index starts at k=2, got {k}")
    ek = euler_number_at_zero(k)
    if ek == 0:
        return cache.layer(0, 0) * 0
    if cache.exact:
        return ek * cache.layer(m, k)
    if k > 170:
        raise CapacityError(
            f"E_k(0) overflows double precision near k=220; got k={k} in floating mode"
        )
    return float(ek) * cache.layer(m, k)


def _neg_int_inner_layer(n: int, m: int, k: int) -> Fraction:
    """The braces of the truncated nested sum at z = -n, exact.

    Innermost layer: h_1(j) = sum_{l=0}^{min(n, j-1)} C(n, l) (-1)^l / (j-l);
    outer layers convolve with harmonic weights as in the nested-sum form
    of the layers.  Returns h_m(k).  Built from the nested sums rather than
    the recurrence, this is an independent exact check on
    :class:`CoefficientCache`.
    """
    from fractions import Fraction

    h = [Fraction(0)] * (k + 1)
    for j in range(1, k + 1):
        acc = Fraction(0)
        for l in range(min(n, j - 1) + 1):
            acc += Fraction(math.comb(n, l) * (-1) ** l, j - l)
        h[j] = acc
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
    from fractions import Fraction

    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if k <= n:
        raise DomainError(f"need k > n to avoid a zero denominator, got k={k}, n={n}")
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction(math.comb(n, j) * (-1) ** j, k - j)
    return total


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

