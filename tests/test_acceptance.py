"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
from fractions import Fraction

from altzeta import (
    EvalRequest,
    alternating_binomial_partial_sum,
    alternating_binomial_sum,
    boole_sum,
    deriv1_asymptotic,
    deriv2_at_neg_int,
    deriv_m_asymptotic,
    euler_number_at_zero,
    euler_polynomial,
    evaluate,
    polynomial_function,
    power_function,
    zeta_asymptotic,
    zeta_series,
)
from altzeta.coefficients import CoefficientCache, expansion_coefficient, pochhammer
from altzeta.verify import adjudicate_n0_variants
from altzeta.zeta import _jet_tail


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_known_closed_values():
    tol = 1e-12
    log2 = evaluate(EvalRequest(1.0, 1.0, 0, tol)).value.real
    eta2 = evaluate(EvalRequest(2.0, 1.0, 0, tol)).value.real
    r1 = abs(log2 - math.log(2.0)) / math.log(2.0)
    r2 = abs(eta2 - math.pi**2 / 12.0) / (math.pi**2 / 12.0)
    assert r1 <= tol and r2 <= tol
    report(1, f"log 2 and pi^2/12 reproduced; relative errors {r1:.2e}, {r2:.2e}")


def test_criterion_02_closed_form_at_neg_int():
    worst = 0.0
    for n in range(11):
        for q in (0.5, 1.0, 2.5, 10.0):
            got = evaluate(EvalRequest(complex(-n), q, 0)).value
            poly = euler_polynomial(n, q)
            worst = max(worst, abs(got - 0.5 * poly) / max(1.0, abs(poly)))
    assert worst <= 1e-11
    report(2, f"half-Euler-polynomial closed form, worst residual {worst:.2e}")


def test_criterion_03_reflection_identity():
    worst = 0.0
    for z in (-3.0, -1.0, 0.5, 2.0, complex(1, 1)):
        for q in (1.0, 2.0, 5.0, 10.0, 20.0):
            for m in (0, 1, 2):
                left = (
                    evaluate(EvalRequest(z, q + 1.0, m)).value
                    + evaluate(EvalRequest(z, q, m)).value
                )
                weight = (-math.log(q)) ** m if m else 1.0
                right = weight * cmath.exp(-complex(z) * math.log(q))
                worst = max(worst, abs(left - right) / max(1.0, abs(right)))
    assert worst <= 1e-11
    report(3, f"reflection identity across grid, worst residual {worst:.2e}")


def test_criterion_04_q_derivative_identity():
    h = 1e-6
    worst = 0.0
    for z in (-3.0, -1.0, 0.5, 2.0, complex(1, 1)):
        for q in (1.0, 2.0, 5.0, 10.0, 20.0):
            fd = (
                evaluate(EvalRequest(z, q + h)).value - evaluate(EvalRequest(z, q - h)).value
            ) / (2.0 * h)
            rhs = -complex(z) * evaluate(EvalRequest(complex(z) + 1.0, q)).value
            worst = max(worst, abs(fd - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-5
    report(4, f"q-derivative identity, worst residual {worst:.2e}")


def test_criterion_05_first_derivative_vs_complex_step():
    h = 1e-20
    worst = 0.0
    for z in (0.5, 1.5, 3.0):
        for q in (25.0, 50.0, 100.0):
            step = zeta_series(complex(z, h), q, 0, 1e-14).value.imag / h
            got = deriv1_asymptotic(z, q).value.real
            worst = max(worst, abs(got - step) / abs(step))
    assert worst <= 1e-10
    report(5, f"first derivative vs complex step, worst residual {worst:.2e}")


def test_criterion_06_higher_derivatives_vs_termwise():
    worst = 0.0
    for m in (2, 3):
        for q in (25.0, 40.0):
            got = deriv_m_asymptotic(1.5, q, m).value
            want = zeta_series(1.5, q, m, 1e-14).value
            worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-9
    report(6, f"derivative recurrence m=2,3 vs termwise series, worst {worst:.2e}")


def test_criterion_07_exact_constants():
    # constant term of the first derivative at z = -3
    constant = (
        Fraction(-1, 2) * euler_number_at_zero(3) * alternating_binomial_partial_sum(3, 3)
    )
    assert constant == Fraction(-11, 48)
    assert euler_number_at_zero(3) == Fraction(1, 4)
    assert euler_number_at_zero(5) == Fraction(-1, 2)
    report(7, "constants -11/48, 1/4, -1/2 reproduced exactly")


def test_criterion_08_exact_identities_and_ladders():
    # exact closed form of the alternating binomial sum
    for n in range(9):
        for k in range(n + 1, 25):
            denom = 1
            for i in range(k - n, k + 1):
                denom *= i
            assert alternating_binomial_sum(n, k) == Fraction(
                (-1) ** n * math.factorial(n), denom
            )
    # finite-difference ladders
    h = 1e-6
    worst = 0.0
    for z in (0.0, 1.0, 2.5, -0.5, complex(1, 2)):
        zc = complex(z)
        for k in range(1, 13):
            fd = (pochhammer(zc + h, k) - pochhammer(zc - h, k)) / (
                2 * h * math.factorial(k)
            )
            from altzeta import pochhammer_derivative

            worst = max(worst, abs(fd - pochhammer_derivative(zc, k)))
        cache_p, cache_m, cache_0 = (
            CoefficientCache(zc + h),
            CoefficientCache(zc - h),
            CoefficientCache(zc),
        )
        for k in range(2, 13):
            for m in range(4):
                fd = (
                    expansion_coefficient(cache_p, k, m)
                    - expansion_coefficient(cache_m, k, m)
                ) / (2 * h)
                up = expansion_coefficient(cache_0, k, m + 1)
                worst = max(worst, abs(fd - up) / max(1.0, abs(up)))
    assert worst <= 1e-6
    report(8, f"exact binomial identity and derivative ladders, worst {worst:.2e}")


def test_criterion_09_boole_closure():
    worst_power = 0.0
    for q in (5.0, 10.0, 20.0):
        for z in (1.5, 3.0, complex(2, 1)):
            for n in (2, 4, 8):
                worst_power = max(
                    worst_power, boole_sum(power_function(z, q), 0, 6, n).residual
                )
    assert worst_power <= 1e-11
    worst_poly = 0.0
    for coeffs in ([1.0], [0.0, 1.0], [2.0, -1.0, 3.0], [1.0, 0.0, 0.0, -2.0]):
        n = max(len(coeffs) - 1, 1)
        rep = boole_sum(polynomial_function(coeffs), 0, 4, n)
        worst_poly = max(worst_poly, rep.residual, abs(rep.remainder))
    assert worst_poly <= 1e-12
    report(
        9,
        f"Boole closure: power battery {worst_power:.2e}, polynomials {worst_poly:.2e}",
    )


def test_criterion_10_section5_adjudication():
    q = 30.0
    worst = 0.0
    for n in (1, 2, 3):
        explicit = deriv2_at_neg_int(n, q).value
        generic = deriv_m_asymptotic(complex(-n), q, 2).value
        worst = max(worst, abs(explicit - generic) / max(1.0, abs(generic)))
    assert worst <= 1e-10
    finding = adjudicate_n0_variants(q)
    assert finding.passed
    assert "the oracle supports the standard form" in finding.detail
    report(
        10,
        f"explicit vs recurrence n=1..3 worst {worst:.2e}; n=0 finding: "
        f"{finding.detail}",
    )


def test_criterion_11_divergence_and_optimal_truncation():
    z, q0 = complex(2.5), 10.0
    mags = [abs(t) for t in _jet_tail(z, q0, 0, 73)[0][1:] if abs(t) > 0]  # odd k from 1
    low = mags.index(min(mags))
    assert 0 < low < len(mags) - 1
    assert all(mags[i + 1] < mags[i] for i in range(low))
    assert all(mags[i + 1] > mags[i] for i in range(low, len(mags) - 1))

    got = zeta_asymptotic(2.5, q0)
    want = zeta_series(2.5, q0, 0, 1e-15)
    actual = abs(got.value - want.value)
    assert actual <= got.error_estimate

    errors, estimates = [], []
    for q in (10.0, 20.0, 40.0, 80.0):
        a = zeta_asymptotic(2.5, q)
        o = zeta_series(2.5, q, 0, 1e-15)
        errors.append(abs(a.value - o.value) / abs(o.value))
        estimates.append(a.error_estimate)
    # the estimate (first omitted term plus floor) decreases strictly; the
    # measured error matches until it reaches the double-precision floor
    assert estimates[0] > estimates[1] > estimates[2] > estimates[3]
    assert errors[1] < errors[0]
    assert all(e <= 5e-15 for e in errors[1:])
    report(
        11,
        f"terms fall then rise (min at k={low * 2 + 1}); actual {actual:.2e} <= "
        f"estimate {got.error_estimate:.2e}; q-doubling estimates {estimates[0]:.1e} "
        f"> {estimates[1]:.1e} > {estimates[2]:.1e} > {estimates[3]:.1e}",
    )
