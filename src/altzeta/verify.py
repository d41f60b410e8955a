"""Self-verification suites driven by the identities the evaluators satisfy.

Each suite runs a battery of cross-checks (reflection identity, q-derivative
identity, closed forms at non-positive integers, derivative ladders, Boole
closure, the reflection identity for the explicit second derivatives) and
reports the worst residual against a pinned tolerance.  The n = 0 second-derivative
check is an adjudication: two published-looking variants of the tail are
evaluated against the series oracle and the suite reports which one the
oracle supports, as a finding rather than a failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import boole, coefficients, zeta
from .errors import DomainError
from .euler import euler_polynomial
from .zeta import EvalRequest, evaluate

SUITE_NAMES = ("identities", "derivatives", "section5")

_GRID_Z = (-3.0, -1.0, 0.5, 2.0, complex(1.0, 1.0))
_GRID_Q = (1.0, 2.0, 5.0, 10.0, 20.0)
_LADDER_Z = (0.0, 1.0, 2.5, -0.5, complex(1.0, 2.0))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    kind: str = "check"  # "check" or "finding"
    detail: str = ""


@dataclass
class _Worst:
    value: float = 0.0
    where: str = ""

    def update(self, value: float, where: str) -> None:
        if value > self.value:
            self.value = value
            self.where = where


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_functional_equation() -> CheckResult:
    """value(z, q+1, m) + value(z, q, m) == (-log q)^m q^(-z) over the grid."""
    worst = _Worst()
    for z in _GRID_Z:
        for q in _GRID_Q:
            for m in (0, 1, 2):
                left = evaluate(EvalRequest(z, q + 1.0, m)).value + evaluate(
                    EvalRequest(z, q, m)
                ).value
                rhs = ((-math.log(q)) ** m if m else 1.0) * cmath.exp(
                    -complex(z) * math.log(q)
                )
                worst.update(_rel(left, rhs), f"z={z}, q={q}, m={m}")
    return CheckResult(
        "reflection identity over the (z, q, m) grid",
        worst.value <= 1e-11,
        worst.value,
        1e-11,
        detail=f"worst at {worst.where}",
    )


def check_q_derivative() -> CheckResult:
    """Central difference in q matches -z * value(z+1, q)."""
    h = 1e-6
    worst = _Worst()
    for z in _GRID_Z:
        for q in _GRID_Q:
            plus = evaluate(EvalRequest(z, q + h)).value
            minus = evaluate(EvalRequest(z, q - h)).value
            rhs = -complex(z) * evaluate(EvalRequest(complex(z) + 1.0, q)).value
            worst.update(_rel((plus - minus) / (2.0 * h), rhs), f"z={z}, q={q}")
    return CheckResult(
        "q-derivative identity (finite difference)",
        worst.value <= 1e-5,
        worst.value,
        1e-5,
        detail=f"worst at {worst.where}",
    )


def check_closed_form_neg_int() -> CheckResult:
    """value(-n, q, 0) equals half the Euler polynomial, n <= 10."""
    worst = _Worst()
    for n in range(11):
        for q in (0.5, 1.0, 2.5, 10.0):
            got = evaluate(EvalRequest(complex(-n), q)).value
            want = 0.5 * euler_polynomial(n, q)
            res = abs(got - want) / max(1.0, abs(euler_polynomial(n, q)))
            worst.update(res, f"n={n}, q={q}")
    return CheckResult(
        "closed form at z = -n",
        worst.value <= 1e-11,
        worst.value,
        1e-11,
        detail=f"worst at {worst.where}",
    )


def check_pochhammer_derivative_ladder() -> CheckResult:
    """Finite difference of (z)_k/k! matches the explicit derivative sum."""
    h = 1e-6
    worst = _Worst()
    for k in range(1, 13):
        fact = math.factorial(k)
        for z in _LADDER_Z:
            zc = complex(z)
            fd = (
                coefficients.pochhammer(zc + h, k) - coefficients.pochhammer(zc - h, k)
            ) / (2.0 * h * fact)
            exact = coefficients.pochhammer_derivative(zc, k)
            worst.update(abs(fd - exact), f"k={k}, z={z}")
    return CheckResult(
        "rising-factorial derivative vs finite difference",
        worst.value <= 1e-6,
        worst.value,
        1e-6,
        detail=f"worst at {worst.where}",
    )


def check_coefficient_ladder() -> CheckResult:
    """d/dz of the order-m tail coefficient is the order-(m+1) coefficient."""
    h = 1e-6
    worst = _Worst()
    for z in _LADDER_Z:
        zc = complex(z)
        cache_p = coefficients.CoefficientCache(zc + h)
        cache_m = coefficients.CoefficientCache(zc - h)
        cache_0 = coefficients.CoefficientCache(zc)
        for k in range(2, 13):
            for m in range(4):
                fd = (
                    coefficients.expansion_coefficient(cache_p, k, m)
                    - coefficients.expansion_coefficient(cache_m, k, m)
                ) / (2.0 * h)
                up = coefficients.expansion_coefficient(cache_0, k, m + 1)
                worst.update(abs(fd - up) / max(1.0, abs(up)), f"k={k}, m={m}, z={z}")
    return CheckResult(
        "tail-coefficient derivative ladder",
        worst.value <= 1e-6,
        worst.value,
        1e-6,
        detail=f"worst at {worst.where}",
    )


def check_alternating_binomial_closed_form() -> CheckResult:
    """The alternating binomial sum equals its collapsed product form, exactly."""
    from fractions import Fraction

    failures = 0
    for n in range(9):
        for k in range(n + 1, 25):
            got = coefficients.alternating_binomial_sum(n, k)
            denom = 1
            for i in range(k - n, k + 1):
                denom *= i
            want = Fraction((-1) ** n * math.factorial(n), denom)
            if got != want:
                failures += 1
    return CheckResult(
        "alternating binomial sum, exact closed form",
        failures == 0,
        float(failures),
        0.0,
        detail="exact rational comparison, n <= 8, n < k <= 24",
    )


def check_boole_closure() -> CheckResult:
    """|lhs - boundary - remainder| small on the power-function battery."""
    worst = _Worst()
    for q in (5.0, 10.0, 20.0):
        for z in (1.5, 3.0, complex(2.0, 1.0)):
            for n in (2, 4, 8):
                report = boole.boole_sum(boole.power_function(z, q), 0, 6, n)
                worst.update(report.residual, f"q={q}, z={z}, N={n}")
    return CheckResult(
        "Boole summation closure (power functions)",
        worst.value <= 1e-11,
        worst.value,
        1e-11,
        detail=f"worst at {worst.where}",
    )


def check_boole_polynomial_exactness() -> CheckResult:
    """Remainder vanishes and the identity closes for polynomials of degree <= N."""
    worst = _Worst()
    polys = (
        [1.0],
        [0.0, 1.0],
        [2.0, -1.0, 3.0],
        [1.0, 0.0, 0.0, -2.0],
        [0.5, 1.0, -1.0, 2.0, 0.25],
    )
    for coeffs in polys:
        n = max(len(coeffs) - 1, 1)
        f = boole.polynomial_function(coeffs)
        report = boole.boole_sum(f, 0, 4, n)
        worst.update(abs(report.remainder), f"deg={len(coeffs) - 1}, remainder")
        worst.update(report.residual, f"deg={len(coeffs) - 1}, residual")
    return CheckResult(
        "Boole summation, polynomial exactness",
        worst.value <= 1e-12,
        worst.value,
        1e-12,
        detail=f"worst at {worst.where}",
    )


def suite_identities() -> list[CheckResult]:
    return [
        check_functional_equation(),
        check_q_derivative(),
        check_closed_form_neg_int(),
        check_pochhammer_derivative_ladder(),
        check_coefficient_ladder(),
        check_alternating_binomial_closed_form(),
        check_boole_closure(),
        check_boole_polynomial_exactness(),
    ]


def check_first_derivative_complex_step() -> CheckResult:
    """First-derivative expansion vs complex-step differentiation of the series."""
    h = 1e-20
    worst = _Worst()
    for z in (0.5, 1.5, 3.0):
        for q in (25.0, 50.0, 100.0):
            step = zeta.zeta_series(complex(z, h), q, 0, 1e-14).value.imag / h
            direct = zeta.deriv1_asymptotic(z, q).value.real
            worst.update(abs(direct - step) / max(1e-300, abs(step)), f"z={z}, q={q}")
    return CheckResult(
        "first derivative vs complex step",
        worst.value <= 1e-10,
        worst.value,
        1e-10,
        detail=f"worst at {worst.where}",
    )


def check_higher_derivatives_termwise() -> CheckResult:
    """Recurrence evaluation of m = 2, 3 vs the termwise-weighted series."""
    worst = _Worst()
    for m in (2, 3):
        for q in (25.0, 40.0):
            got = zeta.deriv_m_asymptotic(1.5, q, m).value
            want = zeta.zeta_series(1.5, q, m, 1e-14).value
            worst.update(abs(got - want) / max(1e-300, abs(want)), f"m={m}, q={q}")
    return CheckResult(
        "derivative recurrence (m = 2, 3) vs termwise series",
        worst.value <= 1e-9,
        worst.value,
        1e-9,
        detail=f"worst at {worst.where}",
    )


def check_second_derivative_difference() -> CheckResult:
    """m = 2 at z = 0 vs a central difference of complex-step first derivatives.

    The inner derivative is exact in its imaginary step; the outer one uses
    the five-point central stencil so the real step h = 1e-4 leaves only an
    O(h^4) truncation error, well inside the 1e-9 target (a two-point
    stencil at the same h would sit near 2e-8).
    """
    q = 30.0
    h_im = 1e-20
    h_re = 1e-4

    def first(z_re: float) -> float:
        return zeta.zeta_series(complex(z_re, h_im), q, 0, 1e-14).value.imag / h_im

    fd = (
        8.0 * (first(h_re) - first(-h_re)) - (first(2.0 * h_re) - first(-2.0 * h_re))
    ) / (12.0 * h_re)
    got = zeta.deriv_m_asymptotic(0.0, q, 2).value.real
    residual = abs(got - fd) / max(1.0, abs(fd))
    return CheckResult(
        "second derivative at z = 0 vs differenced complex step",
        residual <= 1e-9,
        residual,
        1e-9,
        detail=f"q={q}, h={h_re}",
    )


def suite_derivatives() -> list[CheckResult]:
    return [
        check_first_derivative_complex_step(),
        check_higher_derivatives_termwise(),
        check_second_derivative_difference(),
    ]


def check_explicit_reflection() -> CheckResult:
    """Explicit second derivatives at z = -n satisfy the reflection identity
    value(q) + value(q+1) == log^2(q) q^n."""
    q = 30.0
    worst = _Worst()
    for n in (1, 2, 3):
        lhs = zeta.deriv2_at_neg_int(n, q).value + zeta.deriv2_at_neg_int(n, q + 1.0).value
        worst.update(_rel(lhs, math.log(q) ** 2 * q**n), f"n={n}")
    return CheckResult(
        "explicit second derivative, reflection identity, n = 1, 2, 3",
        worst.value <= 1e-10,
        worst.value,
        1e-10,
        detail=f"q={q}; worst at {worst.where}",
    )


def adjudicate_n0_variants(q: float = 30.0) -> CheckResult:
    """Decide which n = 0 second-derivative tail the series oracle supports.

    Both the recurrence-consistent tail and the doubled-tail variant are
    evaluated and compared against the accelerated series (an empirical
    continuation at z = 0, itself cross-validated against the generic
    recurrence to guard the verdict).  Reported as a finding.
    """
    standard = zeta.deriv2_at_neg_int(0, q).value
    log_q = math.log(q)
    # The variant doubles the series after the heads log^2(q)/2 - log(q)/(2q).
    doubled = 2.0 * standard - (0.5 * log_q * log_q - 0.5 * log_q / q)
    oracle = zeta.zeta_series(0.0, q, 2, 1e-15).value
    generic = zeta.deriv_m_asymptotic(0.0, q, 2).value

    guard = abs(oracle - generic)
    res_standard = abs(standard - oracle)
    res_doubled = abs(doubled - oracle)
    winner = "standard" if res_standard < res_doubled else "doubled-tail"
    detail = (
        f"q={q}: standard-tail residual {res_standard:.3e}, doubled-tail residual "
        f"{res_doubled:.3e}; oracle vs recurrence guard {guard:.3e}; "
        f"the oracle supports the {winner} form"
    )
    # The finding is reproducible only if the oracle itself is trustworthy
    # here, so the guard doubles as the pass criterion.
    return CheckResult(
        "n = 0 second-derivative tail adjudication",
        guard <= 1e-9 and min(res_standard, res_doubled) <= 1e-9,
        min(res_standard, res_doubled),
        1e-9,
        kind="finding",
        detail=detail,
    )


def suite_section5() -> list[CheckResult]:
    return [
        check_explicit_reflection(),
        adjudicate_n0_variants(),
    ]


def run_suite(name: str) -> list[CheckResult]:
    if name == "identities":
        return suite_identities()
    if name == "derivatives":
        return suite_derivatives()
    if name == "section5":
        return suite_section5()
    if name == "all":
        out: list[CheckResult] = []
        for suite in SUITE_NAMES:
            out.extend(run_suite(suite))
        return out
    raise DomainError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
