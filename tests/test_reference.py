"""Error estimates against an independent high-precision reference (mpmath).

zeta(z, q) = 2^(-z) [zeta_H(z, q/2) - zeta_H(z, (q+1)/2)], differentiated in
z by the product rule with zeta_H^(j) from ``mpmath.zeta(s, a, j)``.
"""

import importlib.util
import itertools
import math
import statistics
from pathlib import Path

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
from altzeta import zeta

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
    "policy",
    [
        TruncationPolicy.optimal(),
        TruncationPolicy.fixed(0),
        TruncationPolicy.fixed(50),
        TruncationPolicy.fixed(300),
    ],
    ids=["optimal", "fixed-0", "fixed-50", "fixed-300"],
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
    # The shortest scan still reaches k = 3, the first tail index past
    # k = 1 with E_k(0) != 0, so an omitted term is seen; and a fixed:N
    # whose index N + 1 lies past the scan cap (ZETAE_MAX_TERMS, or
    # K_MAX = 256) must end the sum before the last term the scan builds.
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
    "call,z,q,m",
    [
        (deriv_m_asymptotic, -3.0, 1.0, 2),
        (lambda z, q, m: deriv2_at_neg_int(3, q), -3.0, 1.0, 2),
        (deriv_m_asymptotic, -3.0, 1.0 + 1e-9, 2),
        (deriv_m_asymptotic, -8.0, 1.0 + 1e-9, 2),
        (deriv_m_asymptotic, 2.5, 1.0 + 1e-9, 2),
        (deriv_m_asymptotic, -2.5, 2.0, 8),
        (deriv_m_asymptotic, -8.5, 2.0, 7),
        (deriv_m_asymptotic, -3.3, 1.0, 8),
    ],
    ids=["-3-q1", "deriv2_at_neg_int-3-q1", "-3-q1+", "-8-q1+", "2.5-q1+", "-2.5-q2", "-8.5-q2",
         "-3.3-q1"],
)
def test_vanishing_envelope_is_no_truncation_estimate(call, z, q, m):
    # Far below the regime the envelope of order m can be small at a k
    # where the later ones are not: at q = 1 it is m! |w_k| |P_k[m]|, zero
    # for k < m and rounding noise where g_2(7) = 0 at z = -3; just above
    # q = 1 the c_j, j < m, carry powers of log q, so the envelope is as
    # small as log q there; at q = 2 the envelope at k < m, which lacks
    # the layer-m part, lies below the hump after it.  None of these may
    # stand in for the omitted terms.
    result = call(complex(z), q, m)
    assert error(result.value, reference(complex(z), q, m)) <= result.error_estimate


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


def _expansion_result(z: complex, q: float, m: int, policy=None):
    if m == 0:
        return zeta_asymptotic(z, q, policy)
    return deriv_m_asymptotic(z, q, m, policy)


@pytest.mark.parametrize("m", [0, 2, 8])
@pytest.mark.parametrize("q", [10.0, 30.0, 100.0, 170.5])
@pytest.mark.parametrize("z", [2.5, -2.5, complex(1, 8), -5.0], ids=["2.5", "-2.5", "1+8i", "-5"])
def test_rounding_stop_stays_within_estimate(monkeypatch, z, q, m):
    # The optimal tail ends at the rounding floor; the scan it replaces
    # runs to scan_limit.  Both must agree within the estimate, and the
    # estimate must bound the true error.
    z = complex(z)
    stopped = _expansion_result(z, q, m)
    assert error(stopped.value, reference(z, q, m)) <= stopped.error_estimate
    # The optimal policy with the stop switched off scans to scan_limit at
    # every q; fixed:scan_limit is a full scan too, except at q = 10, where
    # index scan_limit lies far past the smallest term.
    scans = [TruncationPolicy.fixed(TruncationPolicy.optimal().scan_limit(q))] if q >= 30 else []
    monkeypatch.setattr(zeta, "_ROUNDING_STOP", 0.0)
    scans.append(TruncationPolicy.optimal())
    for policy in scans:
        full = _expansion_result(z, q, m, policy)
        assert abs(stopped.value - full.value) <= stopped.error_estimate, policy.describe()


@pytest.mark.parametrize("m", [7, 8])
@pytest.mark.parametrize("q", [0.5, 5.3, 10.3])
def test_late_dip_past_the_smallest_term_stop(monkeypatch, q, m):
    # At z = -1.5 the layer-7 coefficient nearly vanishes at k = 59, a dip
    # past the smallest-term stop that a full scan of the layer tail planned
    # at.  The order-m envelope has no such dip: the full scan plans where
    # the stopped one does, and the values agree bit for bit.
    z = complex(-1.5)
    request = EvalRequest(z, q, m, 1e-10)
    ref = reference(z, q, m)
    stopped = evaluate(request)
    assert error(stopped.value, ref) <= stopped.error_estimate
    monkeypatch.setattr(zeta, "_ROUNDING_STOP", 0.0)
    full = evaluate(request)
    assert full.value == stopped.value
    assert error(full.value, ref) <= full.error_estimate
    assert abs(stopped.value - full.value) <= stopped.error_estimate


def _point_mix(seed: int, count: int):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return list(itertools.islice(workloads.point_mix(seed), count))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_point_mix_estimates_bound_the_error(seed):
    # The benchmark's request mix: every result off the oracle route must
    # carry an estimate at least its true error, and on each expansion
    # route the median estimate must be within 100 times the true error.
    under = []
    ratios = {zeta.METHOD_ASYMPTOTIC: [], zeta.METHOD_SHIFTED: []}
    for z, q, m, tol in _point_mix(seed, 60):
        result = evaluate(EvalRequest(z, q, m, tol))
        if result.method == zeta.METHOD_ORACLE:
            continue
        err = error(result.value, reference(z, q, m))
        if not err <= result.error_estimate:
            under.append((z, q, m, result.method, err, result.error_estimate))
        if result.method in ratios:
            ratios[result.method].append(result.error_estimate / err if err else math.inf)
    assert not under
    for method, route in ratios.items():
        assert statistics.median(route) <= 100.0, method


@pytest.mark.parametrize("z,q,m", [(-9.0, 170.5, 8), (-3.0, 30.0, 6)])
def test_order_m_estimate_is_calibrated(z, q, m):
    # One truncation index and one envelope for order m: the estimate is
    # neither below the true error nor far above it (adding propagated
    # lower-order estimates overstated these errors 7,400 and 720 times).
    z = complex(z)
    result = deriv_m_asymptotic(z, q, m)
    err = error(result.value, reference(z, q, m))
    assert err <= result.error_estimate <= 100.0 * err
