"""Error estimates against an independent high-precision reference (mpmath).

zeta(z, q) = 2^(-z) [zeta_H(z, q/2) - zeta_H(z, (q+1)/2)], differentiated in
z by the product rule with zeta_H^(j) from ``mpmath.zeta(s, a, j)``.
"""

import pytest

from altzeta import (
    EvalRequest,
    TruncationPolicy,
    deriv1_asymptotic,
    deriv1_at_neg_int,
    deriv2_at_neg_int,
    deriv_m_asymptotic,
    evaluate,
    zeta_asymptotic,
)

mpmath = pytest.importorskip("mpmath")

DIGITS = 30


def reference(z: complex, q: float, m: int):
    """d^m/dz^m zeta(z, q) at DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        s = mpmath.mpc(z.real, z.imag)
        a = mpmath.mpf(q)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            diff = mpmath.zeta(s, a / 2, j) - mpmath.zeta(s, (a + 1) / 2, j)
            total += mpmath.binomial(m, j) * (-mpmath.log(2)) ** (m - j) * diff
        return total * mpmath.power(2, -s)


def error(value: complex, ref) -> float:
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpc(value.real, value.imag) - ref))


@pytest.mark.parametrize("env", [None, "1"], ids=["no-cap", "env-cap-1"])
@pytest.mark.parametrize(
    "policy", [TruncationPolicy.optimal(), TruncationPolicy.fixed(0)], ids=["optimal", "fixed-0"]
)
@pytest.mark.parametrize(
    "z,m,call",
    [
        (2.5, 0, lambda policy: zeta_asymptotic(2.5, 30.0, policy)),
        (2.5, 1, lambda policy: deriv1_asymptotic(2.5, 30.0, policy)),
        (-2.5, 0, lambda policy: evaluate(EvalRequest(-2.5, 30.0, 0, 1e-8), policy)),
    ],
    ids=["zeta_asymptotic", "deriv1_asymptotic", "evaluate"],
)
def test_shortest_tail_still_sees_first_omitted_term(monkeypatch, env, policy, z, m, call):
    # A tail list that stops at k = 2 holds only an exact zero, so the
    # first omitted term must come from k = 3.
    if env is None:
        monkeypatch.delenv("ZETAE_MAX_TERMS", raising=False)
    else:
        monkeypatch.setenv("ZETAE_MAX_TERMS", env)
    result = call(policy)
    assert error(result.value, reference(complex(z), 30.0, m)) <= result.error_estimate


@pytest.mark.parametrize(
    "n,q,m",
    [(8, 0.5, 1), (12, 1.0, 2), (20, 2.0, 2), (40, 5.0, 2)],
)
def test_neg_int_block_summed_in_full_below_regime(n, q, m):
    # Below the regime the smallest-term scan must not cut the k <= n block.
    if m == 1:
        result = deriv1_asymptotic(complex(-n), q)
    else:
        result = deriv_m_asymptotic(complex(-n), q, m)
    assert error(result.value, reference(complex(-n), q, m)) <= result.error_estimate


@pytest.mark.parametrize(
    "call,n,q,m",
    [
        (deriv2_at_neg_int, 4, 100.0, 2),
        (deriv1_at_neg_int, 6, 170.5, 1),
    ],
    ids=["deriv2-n4-q100", "deriv1-n6-q170.5"],
)
def test_explicit_neg_int_keeps_full_precision(call, n, q, m):
    ref = reference(complex(-n), q, m)
    got = call(n, q).value
    assert error(got, ref) <= 1e-15 * float(abs(ref))
