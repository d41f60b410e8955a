"""Boole summation: alternating sums from boundary derivatives plus a
quadrature remainder.

The identity evaluated here expresses 2 * sum_{n=alpha}^{beta-1} (-1)^n f(n)
through derivatives of f at the two endpoints, weighted by E_k(0)/k!, plus
an integral remainder against the quasi-periodic Euler kernel.  Closing the
identity numerically makes this module a desk-scale oracle for the large-q
expansions: the residual |lhs - boundary - remainder| measures everything
at once.

Derivatives are always supplied analytically by the caller through
:class:`SmoothFunction`; nothing here differentiates numerically.  Complex
values are accepted throughout (the identity extends by linearity to real
and imaginary parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import AccuracyError, CapacityError, DomainError
from .euler import euler_number_at_zero, quasi_periodic_euler
from .summation import complex_fsum

_GAUSS_ORDER = 32
_CHECK_ORDER = 24


@dataclass(frozen=True)
class SmoothFunction:
    """A function together with its derivatives on a real interval.

    ``derivative(order, t)`` returns the order-th derivative at t; order 0
    is the function itself.  ``max_order`` bounds the orders available
    (None means unlimited).
    """

    derivative: Callable[[int, float], complex]
    max_order: int | None = None

    def deriv(self, order: int, t: float) -> complex:
        if order < 0:
            raise DomainError(f"derivative order must be non-negative, got {order}")
        if self.max_order is not None and order > self.max_order:
            raise CapacityError(
                f"derivative order {order} exceeds the declared maximum {self.max_order}"
            )
        return self.derivative(order, t)

    def __call__(self, t: float) -> complex:
        return self.deriv(0, t)


def power_function(z, q) -> SmoothFunction:
    """f(t) = (t + q)^(-z) with all derivatives, valid where t + q > 0.

    The j-th derivative is (-1)^j (z)_j (t + q)^(-z - j).
    """
    from .coefficients import pochhammer

    zc = complex(z)

    def deriv(order: int, t: float) -> complex:
        base = t + q
        sign = -1.0 if order % 2 else 1.0
        return sign * pochhammer(zc, order) * base ** (-zc - order)

    return SmoothFunction(deriv)


def polynomial_function(coeffs) -> SmoothFunction:
    """Polynomial with the given ascending coefficients; derivatives of any
    order are available (zero beyond the degree)."""
    base = [complex(c) for c in coeffs]

    @lru_cache(maxsize=None)
    def deriv_coeffs(order: int) -> tuple[complex, ...]:
        cur = tuple(base)
        for _ in range(order):
            cur = tuple(cur[i] * i for i in range(1, len(cur)))
        return cur

    def deriv(order: int, t: float) -> complex:
        cs = deriv_coeffs(order)
        acc = 0j
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    return SmoothFunction(deriv)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence (n >= 1, |x| < 1)."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gauss_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights mapped to (0, 1), ascending.

    Each root of P_n is polished by Newton iteration from
    -cos(pi (i + 3/4) / (n + 1/2)); its weight on [-1, 1] is
    2 / ((1 - x^2) P_n'(x)^2).
    """
    nodes, weights = [], []
    for i in range(order):
        x = -math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p, dp = _legendre(order, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        _, dp = _legendre(order, x)
        nodes.append(0.5 * (x + 1.0))
        weights.append(1.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


def _kernel_integral(f: SmoothFunction, n_terms: int, alpha: int, beta: int, order: int) -> complex:
    """integral over [alpha, beta] of kernel(N, -t) * f^(N+1)(t), one
    Gauss-Legendre panel per unit subinterval.

    The kernel restricted to a unit interval is a polynomial, so a fixed
    high-order rule is near-exact there.
    """
    nodes, weights = _gauss_rule(order)
    return complex_fsum(
        w * quasi_periodic_euler(n_terms, -(j + x)) * f.deriv(n_terms + 1, j + x)
        for j in range(alpha, beta)
        for x, w in zip(nodes, weights)
    )


def boole_remainder(f: SmoothFunction, n_terms: int, alpha: int, beta: int) -> complex:
    """(1/N!) * integral over [alpha, beta] of kernel(N, -t) f^(N+1)(t) dt.

    Two quadrature orders are compared; disagreement beyond a loose bound
    signals a non-smooth integrand and raises :class:`AccuracyError` with
    the achieved estimate attached.
    """
    if n_terms < 0:
        raise DomainError(f"N must be non-negative, got {n_terms}")
    if alpha >= beta:
        raise DomainError(f"need alpha < beta, got [{alpha}, {beta}]")
    scale = 1.0 / math.factorial(n_terms)
    fine = scale * _kernel_integral(f, n_terms, alpha, beta, _GAUSS_ORDER)
    coarse = scale * _kernel_integral(f, n_terms, alpha, beta, _CHECK_ORDER)
    disagreement = abs(fine - coarse)
    if disagreement > max(1e-8, 1e-8 * abs(fine)):
        raise AccuracyError(
            f"quadrature did not converge on [{alpha}, {beta}] with N={n_terms}: "
            f"rule disagreement {disagreement:.3e}",
            best=fine,
            achieved=disagreement,
        )
    return fine


@dataclass(frozen=True)
class BooleReport:
    """The three pieces of the summation identity and their residual."""

    lhs: complex
    rhs_main: complex
    remainder: complex

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs_main - self.remainder)


def boole_sum(f: SmoothFunction, alpha: int, beta: int, n_terms: int) -> BooleReport:
    """Evaluate both sides of the summation identity on [alpha, beta].

    lhs is 2 * sum_{n=alpha}^{beta-1} (-1)^n f(n); rhs_main is the boundary
    sum sum_{k=0}^{N} E_k(0)/k! * ((-1)^(beta-1) f^(k)(beta)
    + (-1)^alpha f^(k)(alpha)); the remainder is the kernel integral.  For
    valid inputs the residual is at quadrature accuracy.
    """
    if n_terms < 1:
        raise DomainError(f"N must be a positive integer, got {n_terms}")
    if alpha >= beta:
        raise DomainError(f"need alpha < beta, got [{alpha}, {beta}]")

    lhs = complex_fsum((-2.0 if n % 2 else 2.0) * f(n) for n in range(alpha, beta))

    sign_beta = -1.0 if (beta - 1) % 2 else 1.0
    sign_alpha = -1.0 if alpha % 2 else 1.0
    parts = []
    for k in range(n_terms + 1):
        ek = euler_number_at_zero(k)
        if ek == 0:
            continue
        weight = float(ek) / math.factorial(k)
        parts.append(weight * (sign_beta * f.deriv(k, beta) + sign_alpha * f.deriv(k, alpha)))
    rhs_main = complex_fsum(parts)

    remainder = boole_remainder(f, n_terms, alpha, beta)
    return BooleReport(lhs=lhs, rhs_main=rhs_main, remainder=remainder)


def delta_expansion_value(f: SmoothFunction, n_terms: int):
    """Reconstruct f(0) from the alternating boundary expansion on [0, 1].

    With D_k = f^(k)(1) + f^(k)(0), returns

        D_0/2 - D_1/4 - (1/2) sum_{k=2}^{N} (-1)^k E_k(0)/k! * D_k + R

    where R is half the kernel-integral remainder.  The result equals f(0)
    up to quadrature accuracy, which is what the reported error estimate
    tracks; the routine serves as an independent check on the expansion
    evaluators, hence the ``oracle`` method tag.
    """
    from .zeta import METHOD_ORACLE, EvalResult

    if n_terms < 1:
        raise DomainError(f"N must be a positive integer, got {n_terms}")

    deltas = [f.deriv(k, 1.0) + f.deriv(k, 0.0) for k in range(n_terms + 1)]
    parts = [0.5 * deltas[0], -0.25 * deltas[1]]
    for k in range(2, n_terms + 1):
        ek = euler_number_at_zero(k)
        if ek == 0:
            continue
        sign = 1.0 if k % 2 == 0 else -1.0
        parts.append(-0.5 * sign * float(ek) / math.factorial(k) * deltas[k])

    scale = 0.5 / math.factorial(n_terms)
    fine = scale * _kernel_integral(f, n_terms, 0, 1, _GAUSS_ORDER)
    coarse = scale * _kernel_integral(f, n_terms, 0, 1, _CHECK_ORDER)
    parts.append(fine)

    magnitude = sum(abs(d) for d in deltas) + abs(fine)
    estimate = abs(fine - coarse) + 8e-16 * magnitude
    return EvalResult(
        value=complex_fsum(parts),
        error_estimate=estimate,
        terms_used=n_terms,
        method=METHOD_ORACLE,
    )
