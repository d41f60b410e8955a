"""Independent high-precision reference values from mpmath.

zeta(z, q) = 2^(-z) * [zeta_H(z, q/2) - zeta_H(z, (q+1)/2)], and its m-th
z-derivative follows by the product rule:

    sum_j C(m, j) (-log 2)^(m-j) 2^(-z) [zeta_H^(j)(z, q/2) - zeta_H^(j)(z, (q+1)/2)]

with zeta_H^(j) from ``mpmath.zeta(s, a, derivative=j)``.  The benchmark
uses this outside its timed regions only; altzeta never imports mpmath.
"""

from __future__ import annotations

import mpmath

DIGITS = 30


def alt_zeta(z: complex, q: float, m: int) -> mpmath.mpc:
    """d^m/dz^m zeta(z, q) at DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        s = mpmath.mpc(z.real, z.imag)
        a = mpmath.mpf(q)
        log2 = -mpmath.log(2)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            diff = mpmath.zeta(s, a / 2, j) - mpmath.zeta(s, (a + 1) / 2, j)
            total += mpmath.binomial(m, j) * log2 ** (m - j) * diff
        return total * mpmath.power(2, -s)


def abs_error(value: complex, ref: mpmath.mpc) -> float:
    """|value - ref| without first rounding ref to double precision."""
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpc(value.real, value.imag) - ref))


def self_check() -> list[str]:
    """Problems found checking the reference against closed forms; empty
    when it can be trusted: zeta(2, 1) = pi^2/12 and zeta(-n, q) = E_n(q)/2."""
    problems = []
    tol = mpmath.mpf(10) ** (3 - DIGITS)
    with mpmath.workdps(DIGITS):
        cases = [("zeta(2, 1) vs pi^2/12", alt_zeta(2 + 0j, 1.0, 0), mpmath.pi ** 2 / 12)]
        for n in range(13):
            for q in (0.7, 3.25):
                cases.append((f"zeta(-{n}, {q}) vs E_{n}({q})/2", alt_zeta(complex(-n), q, 0),
                              mpmath.eulerpoly(n, mpmath.mpf(q)) / 2))
        for what, got, want in cases:
            if abs(got - want) > tol * max(1, abs(want)):
                problems.append(f"{what}: {mpmath.nstr(got, 20)} != {mpmath.nstr(want, 20)}")
    return problems
