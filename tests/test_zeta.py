"""Tests for the zeta evaluators: series oracle, expansions, closed forms,
shift reduction, and the dispatcher."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from altzeta import (
    AccuracyError,
    CapacityError,
    DomainError,
    EvalRequest,
    EvalResult,
    TruncationPolicy,
    alternating_binomial_partial_sum,
    deriv1_asymptotic,
    deriv1_at_neg_int,
    deriv1_neg_int_constant_term,
    deriv2_at_neg_int,
    deriv_m_asymptotic,
    euler_number_at_zero,
    euler_polynomial,
    euler_polynomial_coefficients,
    evaluate,
    optimal_truncation_index,
    regime_threshold,
    shift_reduce,
    zeta_asymptotic,
    zeta_series,
    zeta_special_value,
)
from altzeta import zeta as zeta_module
from altzeta.coefficients import CoefficientCache
from altzeta.zeta import _jet_tail, _pochhammer_jets


def brute_force_series(z, q, m, terms=2_000_000):
    """Plain partial sums with one Euler-transform step at the end.

    Independent of the accelerated scheme; good to ~1e-12 for Re(z) >= 1
    with modest q.
    """
    zc = complex(z)
    partial = 0j
    tail = []
    for n in range(terms):
        base = n + q
        a = ((-math.log(base)) ** m if m else 1.0) * cmath.exp(-zc * math.log(base))
        term = (-1.0) ** n * a
        if n < terms - 64:
            partial += term
        else:
            tail.append(term)
    # average consecutive partial sums of the oscillating tail (64 times)
    sums = []
    acc = partial
    for t in tail:
        acc += t
        sums.append(acc)
    while len(sums) > 1:
        sums = [(sums[i] + sums[i + 1]) / 2.0 for i in range(len(sums) - 1)]
    return sums[0]


class TestSeriesOracle:
    def test_alternating_harmonic(self):
        result = zeta_series(1.0, 1.0, 0, 1e-13)
        assert result.value.real == pytest.approx(math.log(2.0), abs=1e-13)
        assert result.method == "oracle"
        assert result.note is None

    def test_eta_two(self):
        result = zeta_series(2.0, 1.0, 0, 1e-13)
        assert result.value.real == pytest.approx(math.pi**2 / 12.0, abs=1e-13)

    def test_leibniz(self):
        result = zeta_series(1.0, 0.5, 0, 1e-13)
        assert result.value.real == pytest.approx(math.pi / 2.0, abs=1e-13)

    def test_against_brute_force(self):
        got = zeta_series(1.5, 3.0, 0, 1e-13).value
        want = brute_force_series(1.5, 3.0, 0, 200_000)
        assert abs(got - want) <= 1e-11

    def test_termwise_derivative_against_brute_force(self):
        got = zeta_series(2.0, 2.0, 1, 1e-13).value
        want = brute_force_series(2.0, 2.0, 1, 200_000)
        assert abs(got - want) <= 1e-10

    def test_continuation_is_flagged(self):
        result = zeta_series(-1.0, 5.0, 0, 1e-12)
        assert result.note is not None
        assert "empirical continuation" in result.note
        assert result.value.real == pytest.approx(0.5 * euler_polynomial(1, 5.0), abs=1e-9)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setenv("ZETAE_MAX_TERMS", "5")
        with pytest.raises(AccuracyError) as info:
            zeta_series(2.0, 1.0, 0, 1e-13)
        assert isinstance(info.value.best, EvalResult)
        assert info.value.best.terms_used == 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            zeta_series(1.0, 0.0, 0, 1e-10)
        with pytest.raises(DomainError):
            zeta_series(1.0, 1.0, 0, -1.0)
        with pytest.raises(CapacityError):
            zeta_series(1.0, 1.0, 9, 1e-10)


class TestOptimalTruncation:
    def test_monotone_decreasing_keeps_everything_but_last(self):
        assert optimal_truncation_index([3.0, 2.0, 1.0]) == 2

    def test_forced_interior_minimum(self):
        assert optimal_truncation_index([1.0, 0.1, 0.01, 0.5, 3.0]) == 2

    def test_zeros_are_skipped(self):
        assert optimal_truncation_index([0.0, 1.0, 0.0, 0.25, 5.0]) == 3

    def test_all_zero(self):
        assert optimal_truncation_index([0.0, 0.0]) == 2

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            optimal_truncation_index([])

    def test_expansion_minimum_sits_near_pi_q(self):
        z, q = complex(2.5), 10.0
        terms = _jet_tail(z, q, 0, 73)[0]
        idx = 1 + optimal_truncation_index(terms[1:])  # terms[0] is the head
        assert abs(idx - math.pi * q) <= 5.0


def _smallest(bounds, k_min=1):
    """First odd k >= k_min with the smallest envelope."""
    return min(range(k_min | 1, len(bounds), 2), key=bounds.__getitem__)


def _rounding_stop_only(zc, q, m, k_hi, k_min=1, stop=0.0, fixed=None):
    """``_jet_tail`` without the smallest-term stop: the full lists, cut at
    the second of two successive nonzero envelopes at odd k >= k_min below
    ``stop`` times the envelope sum before them, and planned at their first
    smallest envelope at odd k >= k_min."""
    terms, bounds, best = _jet_tail(zc, q, m, k_hi, k_min, 0.0, fixed)
    if fixed is not None or bounds[best] == 0.0:
        return terms, bounds, best
    below, total = 0, 0.0
    for k, b in enumerate(bounds):
        if k >= k_min and k % 2:
            below = below + 1 if b < stop * total else 0
            if below == 2:
                terms, bounds = terms[: k + 1], bounds[: k + 1]
                break
        total += b
    return terms, bounds, _smallest(bounds, k_min)


def _bits(result):
    return (
        result.value.real.hex(),
        result.value.imag.hex(),
        result.error_estimate.hex(),
        result.terms_used,
        result.method,
        result.note,
    )


class TestSmallestTermStop:
    # Under the optimal policy the tail also ends shortly past its smallest
    # envelope, once the envelopes rise above ten times it while the
    # weights -1/2 * E_k(0)/q^k grow.

    @staticmethod
    def _lists(z, q, m):
        zc = complex(z)
        cap = TruncationPolicy.optimal().scan_limit(q)
        return _jet_tail(zc, q, m, cap), _jet_tail(zc, q, m, cap, stop=1e-300)

    def test_early_dip_does_not_end_the_tail(self):
        # Below the regime the order-7 envelope at k = 1 lies under a hump
        # that rises to 14 and 21 times it at k = 5 and 7; the weights still
        # fall at k = 5, and the envelope reaches its true minimum at k = 15.
        # A stop without the weight gate ends these lists at k = 7 and plans
        # at k = 1.
        (full, bounds, full_best), (terms, stopped, best) = self._lists(-7.5, 2.0, 7)
        assert full_best == _smallest(bounds) == 15
        assert bounds[5] > 10 * bounds[1] and bounds[7] > 20 * bounds[1]
        assert best == _smallest(stopped) == full_best
        assert (terms, stopped) == (full[: len(terms)], bounds[: len(stopped)])
        assert len(terms) < len(full)

    @pytest.mark.parametrize(
        "z,q,m,end,best_k",
        [(-33 / 7, 10.37, 6, 53, 37), (-1.5, 10.3, 7, 49, 33)],
        ids=["-33/7", "-1.5"],
    )
    def test_late_dip_past_the_stop(self, z, q, m, end, best_k):
        # Here the layer-6 and layer-7 coefficients nearly vanish at k = 59,
        # so a tail of that layer alone dips there, far past the stop, behind
        # terms 14 and 80 times its minimum.  The order-m envelope falls to
        # one minimum and rises from it to the scan cap, so the stop ends
        # the lists where a full scan plans.
        (full, bounds, full_best), (terms, stopped, best) = self._lists(z, q, m)
        assert full_best == _smallest(bounds) == best_k
        odd = bounds[1::2]
        low = odd.index(min(odd))
        assert all(odd[i + 1] < odd[i] for i in range(low))
        assert all(odd[i + 1] > odd[i] for i in range(low, len(odd) - 1))
        assert len(terms) == end + 1
        assert best == _smallest(stopped) == best_k

    def test_late_dip_does_not_reach_evaluate_at_z_minus_33_over_7(self, monkeypatch):
        # With or without the smallest-term stop these requests plan at the
        # same index, so the results agree bit for bit.  (At z = -1.5 too:
        # test_reference.py.)
        requests = [EvalRequest(-33 / 7, 10.37, m, 1e-10) for m in (6, 7, 8)]
        got = [_bits(evaluate(r)) for r in requests]
        monkeypatch.setattr(zeta_module, "_jet_tail", _rounding_stop_only)
        assert got == [_bits(evaluate(r)) for r in requests]

    @pytest.mark.parametrize(
        "z",
        [2.5, -2.9157946501335568, -33 / 7, -7.5, complex(1, 8), complex(-1.5, 14), -3.0],
        ids=["2.5", "seed3", "-33/7", "-7.5", "1+8i", "-1.5+14i", "-3"],
    )
    def test_bit_identical_to_the_rounding_stop_alone(self, monkeypatch, z):
        # The stop ends a tail only past its smallest envelope, so no result
        # changes: shifted requests, requests at the regime threshold and
        # above it, every third order, two tolerances.
        threshold = regime_threshold(z)
        requests = [
            EvalRequest(z, q, m, tol)
            for q in (4.536338620494451, threshold, threshold + 0.37, 3.0 * threshold)
            for m in (0, 2, 5, 7, 8)
            for tol in (1e-8, 1e-12)
        ]
        got = [_bits(evaluate(r)) for r in requests]
        monkeypatch.setattr(zeta_module, "_jet_tail", _rounding_stop_only)
        assert got == [_bits(evaluate(r)) for r in requests]

    def test_stops_off_builds_every_tail_to_its_cap(self, monkeypatch):
        # With the rounding-stop level at zero neither stop fires, so the
        # tests that switch it off compare against a true full scan.  The
        # shifted request plans at the same index either way; at q = 100 the
        # rounding stop ends the tail before its smallest envelope.
        lengths = []

        def spy(zc, q, m, k_hi, *args, **kwargs):
            terms, bounds, best = _jet_tail(zc, q, m, k_hi, *args, **kwargs)
            lengths.append((len(terms), k_hi + 1))
            return terms, bounds, best

        monkeypatch.setattr(zeta_module, "_jet_tail", spy)
        requests = [
            EvalRequest(-2.9157946501335568, 4.536338620494451, 7, 1e-10),
            EvalRequest(2.5, 100.0, 3, 1e-10),
        ]
        stopped = [evaluate(r) for r in requests]
        assert len(lengths) == 2 and all(n < cap for n, cap in lengths)
        lengths.clear()
        monkeypatch.setattr(zeta_module, "_ROUNDING_STOP", 0.0)
        full = [evaluate(r) for r in requests]
        assert len(lengths) == 2 and all(n == cap for n, cap in lengths)
        assert full[0].terms_used == stopped[0].terms_used
        assert full[1].terms_used > stopped[1].terms_used


@pytest.mark.parametrize("z", [0.0, 3.0, -3.0, -12.0, 2.5, -2.75, 1 / 3, -33 / 7])
def test_jets_match_the_exact_layers(z, magnitude_layers):
    # i! [eps^i] P_k is the layer g_i(k); the exact oracle runs at the
    # rational value of the double z, so the difference is rounding alone,
    # a few ulps of the layer's magnitude.  At z = -n the jets keep the
    # exact zeros of (z)_k / k! for k > n.
    exact = CoefficientCache(Fraction(z))
    mags = magnitude_layers(z, 8, 60)
    n = -int(z) if z <= 0 and z == int(z) else None
    for k, jet in zip(range(61), _pochhammer_jets(complex(z), 8)):
        for i in range(9):
            want = float(exact.layer(i, k))
            got = math.factorial(i) * jet[i]
            assert abs(got - want) <= 64 * 2.2e-16 * mags[i][k], (k, i)
        if n is not None and k > n:
            assert jet[0] == 0


class TestAsymptotic:
    def test_z_zero_is_exactly_half(self):
        for q in (0.5, 3.0, 17.0):
            assert zeta_asymptotic(0.0, q).value == 0.5 + 0j

    def test_terminating_polynomial_case(self):
        result = zeta_asymptotic(-2.0, 5.0)
        assert result.value.real == pytest.approx(10.0, rel=1e-14)
        assert result.error_estimate <= 1e-12

    @pytest.mark.parametrize("policy", [TruncationPolicy.optimal(), TruncationPolicy.fixed(50)])
    def test_terminating_exact_regardless_of_policy(self, policy):
        for n in range(11):
            for q in (0.5, 1.0, 2.5, 10.0):
                got = zeta_asymptotic(complex(-n), q, policy).value
                want = 0.5 * euler_polynomial(n, q)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_matches_oracle_at_large_q(self):
        got = zeta_asymptotic(2.5, 50.0)
        want = zeta_series(2.5, 50.0, 0, 1e-14)
        assert abs(got.value - want.value) <= 1e-12 * abs(want.value)

    def test_fixed_policy_controls_length(self):
        short = zeta_asymptotic(2.5, 30.0, TruncationPolicy.fixed(5))
        long = zeta_asymptotic(2.5, 30.0, TruncationPolicy.fixed(21))
        assert short.terms_used < long.terms_used
        assert short.error_estimate > long.error_estimate

    def test_divergence_profile(self):
        # magnitudes fall to a minimum near pi*q and grow afterwards
        z, q = complex(2.5), 10.0
        mags = [abs(t) for t in _jet_tail(z, q, 0, 73)[0][1:] if abs(t) > 0]
        low = mags.index(min(mags))
        assert all(mags[i + 1] < mags[i] for i in range(low))
        assert all(mags[i + 1] > mags[i] for i in range(low, len(mags) - 1))

    def test_optimal_truncation_error_below_first_omitted(self):
        got = zeta_asymptotic(2.5, 10.0)
        want = zeta_series(2.5, 10.0, 0, 1e-15)
        assert abs(got.value - want.value) <= got.error_estimate

    def test_accuracy_improves_as_q_doubles(self):
        # strict decrease of the reported estimate; the measured error
        # plateaus at the double-precision floor past q = 20
        errors, estimates = [], []
        for q in (10.0, 20.0, 40.0, 80.0):
            got = zeta_asymptotic(2.5, q)
            want = zeta_series(2.5, q, 0, 1e-15)
            errors.append(abs(got.value - want.value) / abs(want.value))
            estimates.append(got.error_estimate)
        assert estimates[0] > estimates[1] > estimates[2] > estimates[3]
        assert errors[1] < errors[0]
        assert all(e <= 5e-15 for e in errors[1:])


class TestDerivativeExpansions:
    def test_first_derivative_z0_series_form(self):
        # -log(q)/2 + 1/(4q) - (1/2) sum E_k(0)/k q^(-k)
        q = 30.0
        want = -0.5 * math.log(q) + 0.25 / q
        for k in range(2, 40):
            ek = euler_number_at_zero(k)
            if ek:
                want -= 0.5 * float(ek) / k * q ** (-k)
        got = deriv1_asymptotic(0.0, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)

    def test_first_derivative_z_minus_one_series_form(self):
        # 1/4 - (q - 1/2) log(q)/2 + (1/2) sum E_k(0)/(k(k-1)) q^(1-k)
        q = 25.0
        want = 0.25 - 0.5 * (q - 0.5) * math.log(q)
        for k in range(2, 40):
            ek = euler_number_at_zero(k)
            if ek:
                want += 0.5 * float(ek) / (k * (k - 1)) * q ** (1 - k)
        got = deriv1_asymptotic(-1.0, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("z", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("q", [25.0, 50.0, 100.0])
    def test_first_derivative_vs_complex_step(self, z, q):
        h = 1e-20
        step = zeta_series(complex(z, h), q, 0, 1e-14).value.imag / h
        got = deriv1_asymptotic(z, q).value.real
        assert abs(got - step) <= 1e-10 * abs(step)

    def test_second_derivative_vs_differenced_complex_step(self):
        q, h_im, h_re = 30.0, 1e-20, 1e-4

        def first(z_re):
            return zeta_series(complex(z_re, h_im), q, 0, 1e-14).value.imag / h_im

        fd = (8.0 * (first(h_re) - first(-h_re)) - (first(2 * h_re) - first(-2 * h_re))) / (
            12.0 * h_re
        )
        got = deriv_m_asymptotic(0.0, q, 2).value.real
        assert abs(got - fd) <= 1e-9 * max(1.0, abs(fd))

    def test_third_derivative_vs_termwise_oracle(self):
        got = deriv_m_asymptotic(1.5, 40.0, 3)
        want = zeta_series(1.5, 40.0, 3, 1e-14)
        assert abs(got.value - want.value) <= 1e-9 * abs(want.value)

    def test_second_derivative_leading_structure_at_minus_one(self):
        # q log^2(q) / 2 - log(q)/2 - log^2(q)/4 + O(q^-2)
        q = 1.0e5
        log_q = math.log(q)
        got = deriv_m_asymptotic(-1.0, q, 2).value.real
        main = 0.5 * q * log_q**2 - 0.5 * log_q - 0.25 * log_q**2
        assert abs(got - main) <= 1.0 / q

    def test_order_cap(self):
        with pytest.raises(CapacityError):
            deriv_m_asymptotic(1.0, 30.0, 9)
        with pytest.raises(DomainError):
            deriv_m_asymptotic(1.0, 30.0, 1)


class TestSpecialValues:
    def test_half_at_zero(self):
        result = zeta_special_value(0, 7.0)
        assert result.value == 0.5 + 0j
        assert result.method == "special_value"

    def test_small_cases(self):
        assert zeta_special_value(1, 1.0).value.real == pytest.approx(0.25)
        assert zeta_special_value(3, 1.0).value.real == pytest.approx(-0.125)

    def test_matches_polynomial_for_range(self):
        for n in range(12):
            for q in (0.25, 1.0, 4.5):
                assert zeta_special_value(n, q).value.real == pytest.approx(
                    0.5 * euler_polynomial(n, q), rel=1e-15, abs=1e-15
                )


class TestExplicitNegativeInteger:
    def test_constant_terms_exact(self):
        assert deriv1_neg_int_constant_term(3) == Fraction(-11, 48)
        assert deriv1_neg_int_constant_term(1) == Fraction(1, 4)
        assert deriv1_neg_int_constant_term(0) == 0
        assert deriv1_neg_int_constant_term(4) == 0  # even n: E_n(0) = 0

    def test_first_derivative_literal_n2(self):
        # q/4 - (q^2 - q) log(q)/2 - sum_{k>=3} E_k(0)/(k(k-1)(k-2)) q^(2-k)
        q = 30.0
        want = 0.25 * q - 0.5 * (q * q - q) * math.log(q)
        for k in range(3, 44):
            ek = euler_number_at_zero(k)
            if ek:
                want -= float(ek) / (k * (k - 1) * (k - 2)) * q ** (-(k - 2))
        got = deriv1_at_neg_int(2, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)
        assert got.method == "explicit_neg_int"

    def test_first_derivative_literal_n3(self):
        # -11/48 + q^2/4 - (q^3 - 1.5 q^2 + 1/4) log(q)/2
        # + 3 sum_{k>=4} E_k(0)/(k(k-1)(k-2)(k-3)) q^(3-k)
        q = 30.0
        want = -11.0 / 48.0 + 0.25 * q * q - 0.5 * (q**3 - 1.5 * q * q + 0.25) * math.log(q)
        for k in range(4, 44):
            ek = euler_number_at_zero(k)
            if ek:
                want += 3.0 * float(ek) / (k * (k - 1) * (k - 2) * (k - 3)) * q ** (-(k - 3))
        got = deriv1_at_neg_int(3, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_first_derivative_matches_expansion_route(self, n):
        q = 30.0
        explicit = deriv1_at_neg_int(n, q)
        generic = deriv1_asymptotic(complex(-n), q)
        assert abs(explicit.value - generic.value) <= 1e-11 * max(1.0, abs(generic.value))

    def test_first_derivative_vs_complex_step_at_zero(self):
        # the step is purely imaginary, so Re(z)=0 stays on the certified
        # boundary's continuation; the guard is the expansion route itself
        q, h = 100.0, 1e-20
        step = zeta_series(complex(0.0, h), q, 0, 1e-14).value.imag / h
        got = deriv1_at_neg_int(0, q)
        assert abs(got.value.real - step) <= 1e-11 * max(1.0, abs(step))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_second_derivative_matches_recurrence(self, n):
        q = 30.0
        explicit = deriv2_at_neg_int(n, q)
        generic = deriv_m_asymptotic(complex(-n), q, 2)
        assert abs(explicit.value - generic.value) <= 1e-10 * max(1.0, abs(generic.value))

    def test_second_derivative_literal_n1(self):
        q = 30.0
        log_q = math.log(q)
        want = 0.5 * q * log_q**2 - 0.5 * (log_q + 0.5 * log_q**2)
        for k in range(3, 44):
            ek = euler_number_at_zero(k)
            if not ek:
                continue
            inner = (
                sum(1.0 / ((k - j) * j * (j - 1)) for j in range(2, k))
                - 1.0 / (k - 1)
                - 2.0 * log_q / (k * (k - 1))
            )
            want += 0.5 * float(ek) * inner * q ** (-k + 1)
        got = deriv2_at_neg_int(1, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)

    def test_second_derivative_literal_n0(self):
        # log^2(q)/2 - log(q)/(2q) + sum_k E_k(0) [log(q)/k - H_(k-1)/k] q^(-k)
        q = 30.0
        log_q = math.log(q)
        want = 0.5 * log_q**2 - 0.5 * log_q / q
        for k in range(2, 44):
            ek = euler_number_at_zero(k)
            if ek:
                harmonic = sum(1.0 / j for j in range(1, k))
                want += float(ek) * (log_q / k - harmonic / k) * q ** (-k)
        got = deriv2_at_neg_int(0, q)
        assert got.value.real == pytest.approx(want, rel=1e-13)
        assert got.method == "explicit_neg_int"

    @pytest.mark.parametrize("n", [13, 20, 40])
    def test_first_derivative_exact_weights_large_n(self, n):
        # q^(n-1)/4 - E_n(q) log(q)/2 - (1/2) sum_k E_k(0) w_k q^(n-k) with
        # the exact binomial weights w_k, summed in rationals: the block
        # k <= n in full, the tail k > n up to its smallest exact term
        q = 60
        weighted = [
            (k, euler_number_at_zero(k) * alternating_binomial_partial_sum(n, k))
            for k in range(2, 257)
        ]
        terms = [(k, c * Fraction(q) ** (n - k)) for k, c in weighted]
        stop = min((abs(t), k) for k, t in terms if k > n and t)[1]
        series = sum(t for k, t in terms if k < stop)
        e_n = sum(c * Fraction(q) ** i for i, c in enumerate(euler_polynomial_coefficients(n)))
        ref = float(Fraction(q) ** (n - 1) / 4 - series / 2) - 0.5 * float(e_n) * math.log(q)
        got = deriv1_at_neg_int(n, float(q))
        assert abs(got.value - ref) <= got.error_estimate

    def test_second_derivative_leading_structure_n3(self):
        # q^3 log^2(q)/2 - ((3/2) log^2(q) + log(q)) q^2 / 2 + ...
        q = 1.0e5
        log_q = math.log(q)
        got = deriv2_at_neg_int(3, q).value.real
        main = (
            0.5 * q**3 * log_q**2
            - 0.5 * (1.5 * log_q**2 + log_q) * q * q
            + 0.125 * log_q**2
            + 11.0 / 24.0 * log_q
            + 0.25
        )
        # remaining terms are O(q^-2); the value itself is ~1e17, so the
        # comparison bottoms out at the rounding of the leading term
        assert abs(got - main) <= 1e-12 * abs(got)

    def test_interior_zero_coefficients_do_not_stop_truncation(self, magnitude_layers):
        # the order-2 tail coefficient at k = 2n+1 vanishes exactly at
        # z = -n; evaluated in floats it leaves ~1e-19-scale noise, which
        # must neither cut the expansion short nor stand in for its error
        from altzeta import expansion_coefficient_at_neg_int

        assert expansion_coefficient_at_neg_int(7, 2, 3) == 0
        zc = complex(-3.0)
        jet = next(itertools.islice(_pochhammer_jets(zc, 2), 7, None))
        scale = magnitude_layers(zc, 2, 7)[2][7]
        assert 0 < abs(2 * jet[2]) <= 64 * 2.2e-16 * scale  # noise, not snapped
        terms, bounds, best = _jet_tail(zc, 10.0, 2, 17, 4)
        assert best == 15 and bounds[7] > 1e3 * bounds[15]  # the envelope does not dip at k = 7
        # at q = 1 only c_2 is nonzero, so the envelope at k = 7 is that
        # noise alone and the smallest; the estimate takes the one after it
        terms, bounds, best = _jet_tail(zc, 1.0, 2, 17, 4)
        assert best == 7 and bounds[7] < 1e-15 * bounds[9]
        assert deriv2_at_neg_int(3, 1.0).error_estimate >= bounds[9]

        # reference built from exact rational coefficients, truncated at
        # their true smallest magnitude (no float noise anywhere)
        q, log_q = 15.0, math.log(15.0)
        head = (
            -2.0 * deriv1_at_neg_int(3, q).value.real * log_q
            - 0.5 * euler_polynomial(3, q) * log_q**2
        )
        exact = [
            (k, expansion_coefficient_at_neg_int(k, 2, 3)) for k in range(2, 61)
        ]
        mags = [(abs(c) * Fraction(15) ** (3 - k), i) for i, (k, c) in enumerate(exact) if c]
        stop = min(mags)[1]
        ref = head - 0.5 * sum(
            float(c) * q ** (3 - k) for k, c in exact[:stop] if c
        )
        for route in (
            deriv2_at_neg_int(3, q).value.real,
            deriv_m_asymptotic(complex(-3.0), q, 2).value.real,
        ):
            assert abs(route - ref) <= 1e-9  # pre-fix both were ~4e-7 off

    def test_n0_variants_adjudicated_by_oracle(self):
        q = 30.0
        oracle = zeta_series(0.0, q, 2, 1e-15).value
        standard = deriv2_at_neg_int(0, q).value
        log_q = math.log(q)
        doubled = 2.0 * standard - (0.5 * log_q * log_q - 0.5 * log_q / q)
        assert abs(standard - oracle) <= 1e-9
        assert abs(doubled - oracle) > 1e-6  # the variant misses by the tail scale


class TestShiftReduce:
    def test_no_shift_needed(self):
        partial, shifted, sign = shift_reduce(1.0, 12.0, 0, 10.0)
        assert partial == 0
        assert shifted == 12.0
        assert sign == 1

    def test_single_step_identity(self):
        partial, shifted, sign = shift_reduce(1.0, 1.0, 0, 2.0)
        assert shifted == 2.0
        assert sign == -1
        assert partial == pytest.approx(1.0)
        left = zeta_series(1.0, 1.0, 0, 1e-13).value
        right = partial + sign * zeta_series(1.0, 2.0, 0, 1e-13).value
        assert abs(left - right) <= 1e-12

    def test_derivative_shift_identity(self):
        # first derivative at (0, 1) equals minus the one at (0, 2)
        partial, shifted, sign = shift_reduce(0.0, 1.0, 1, 2.0)
        assert partial == 0.0  # -log(1) weight kills the only term
        assert sign == -1
        left = evaluate(EvalRequest(0.0, 1.0, 1)).value
        right = -evaluate(EvalRequest(0.0, 2.0, 1)).value
        assert abs(left - right) <= 1e-12

    def test_telescoping_consistency(self):
        z, m = complex(1.5, 0.5), 1
        for q in (0.7, 3.2):
            partial, shifted, sign = shift_reduce(z, q, m, 10.0)
            direct = evaluate(EvalRequest(z, q, m)).value
            back = partial + sign * evaluate(EvalRequest(z, shifted, m)).value
            assert abs(direct - back) <= 1e-12 * max(1.0, abs(direct))


class TestEvaluateDispatch:
    def test_special_value_route(self):
        result = evaluate(EvalRequest(0.0, 7.0, 0))
        assert result.method == "special_value"
        assert result.value == 0.5 + 0j

    def test_asymptotic_route(self):
        assert evaluate(EvalRequest(2.5, 30.0, 0)).method == "asymptotic"

    def test_shifted_route(self):
        result = evaluate(EvalRequest(2.0, 1.0, 0, 1e-12))
        assert result.method == "shifted_asymptotic"
        assert result.value.real == pytest.approx(math.pi**2 / 12.0, rel=1e-12)
        assert result.note is None

    def test_known_log_value(self):
        result = evaluate(EvalRequest(1.0, 1.0, 0, 1e-12))
        assert result.value.real == pytest.approx(math.log(2.0), rel=1e-12)

    def test_classical_derivative_constant(self):
        # d/dz at (0, 1) is log(pi/2)/2
        result = evaluate(EvalRequest(0.0, 1.0, 1))
        assert result.value.real == pytest.approx(0.5 * math.log(math.pi / 2.0), abs=1e-12)

    def test_neg_int_derivative_agrees_with_explicit_within_estimates(self):
        request = evaluate(EvalRequest(-3.0, 2.0, 1))
        explicit = deriv1_at_neg_int(3, 2.0)
        assert abs(request.value - explicit.value) <= (
            request.error_estimate + explicit.error_estimate
        )

    def test_threshold_scales_with_z(self):
        assert regime_threshold(1.0) == 10.0
        assert regime_threshold(complex(0, 12)) == 24.0

    def test_accuracy_warning_is_flagged(self):
        result = evaluate(EvalRequest(-0.5, 5.0, 0, 1e-18))
        assert result.note is not None and "accuracy warning" in result.note

    def test_oracle_fallback_for_tight_tolerance(self):
        # at small q with Re(z) > 0 the oracle beats the shifted expansion
        coarse = evaluate(EvalRequest(1.5, 0.5, 0, 1e-3))
        tight = evaluate(EvalRequest(1.5, 0.5, 0, 1e-14))
        assert tight.method in ("oracle", "shifted_asymptotic")
        assert tight.error_estimate <= coarse.error_estimate
        assert abs(tight.value - coarse.value) <= 1e-10

    @pytest.mark.parametrize("policy", ["fixed:5", "fixed:40"])
    @pytest.mark.parametrize(
        "z,q,m",
        [(2.5, 100.0, 0), (2.5, 100.0, 3), (complex(1, 8), 30.0, 8), (-5.0, 170.5, 2), (-2.5, 4.0, 1)],
    )
    def test_fixed_policy_builds_the_full_tail(self, monkeypatch, policy, z, q, m):
        # fixed:N builds through index N + 2 whatever the term sizes: the
        # rounding-floor stop of the optimal policy must not cut it short.
        request, policy = EvalRequest(z, q, m), TruncationPolicy.parse(policy)
        got = evaluate(request, policy)
        monkeypatch.setattr(zeta_module, "_ROUNDING_STOP", 0.0)
        want = evaluate(request, policy)
        assert got.method == want.method
        assert got.terms_used == want.terms_used
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert (got.value.real.hex(), got.value.imag.hex()) == (
            want.value.real.hex(),
            want.value.imag.hex(),
        )

    def test_request_validation(self):
        with pytest.raises(DomainError):
            EvalRequest(1.0, -1.0)
        with pytest.raises(CapacityError):
            EvalRequest(1.0, 1.0, 9)
        with pytest.raises(DomainError):
            EvalRequest(1.0, 1.0, 0, 0.0)


GRID_Z = [-3.0, -1.0, 0.5, 2.0, complex(1, 1)]
GRID_Q = [1.0, 2.0, 5.0, 10.0, 20.0]


class TestIdentities:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_reflection_identity_grid(self, m):
        for z in GRID_Z:
            for q in GRID_Q:
                left = (
                    evaluate(EvalRequest(z, q + 1.0, m)).value
                    + evaluate(EvalRequest(z, q, m)).value
                )
                weight = (-math.log(q)) ** m if m else 1.0
                right = weight * cmath.exp(-complex(z) * math.log(q))
                assert abs(left - right) <= 1e-11 * max(1.0, abs(right))

    def test_q_derivative_identity_grid(self):
        h = 1e-6
        for z in GRID_Z:
            for q in GRID_Q:
                fd = (
                    evaluate(EvalRequest(z, q + h)).value
                    - evaluate(EvalRequest(z, q - h)).value
                ) / (2.0 * h)
                rhs = -complex(z) * evaluate(EvalRequest(complex(z) + 1.0, q)).value
                assert abs(fd - rhs) <= 1e-5 * max(1.0, abs(rhs))

    def test_closed_form_grid(self):
        for n in range(11):
            for q in (0.5, 1.0, 2.5, 10.0):
                got = evaluate(EvalRequest(complex(-n), q)).value
                want = 0.5 * euler_polynomial(n, q)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(euler_polynomial(n, q)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_derivative_consistency_with_termwise_series(self, m):
        for z in (0.5, 2.0):
            for q in (25.0, 60.0):
                got = evaluate(EvalRequest(z, q, m)).value
                want = zeta_series(z, q, m, 1e-13).value
                assert abs(got - want) <= 1e-9 * max(1e-300, abs(want))

    def test_complex_step_agreement(self):
        h = 1e-20
        for z in (0.5, 1.5, 3.0):
            for q in (5.0, 25.0, 80.0):
                step = evaluate(EvalRequest(complex(z, h), q, 0)).value.imag / h
                got = evaluate(EvalRequest(z, q, 1)).value.real
                assert abs(step - got) <= 1e-10 * max(1e-300, abs(got))


class TestErrorEstimateSoundness:
    def test_statistical_soundness(self):
        # actual error within the reported estimate plus the reference's own
        # uncertainty for at least 95% of sampled points
        rng = random.Random(20240817)
        covered = 0
        total = 200
        for _ in range(total):
            q = 10.0 ** rng.uniform(1.0, 2.0)
            z = complex(rng.uniform(-4.0, 4.0), rng.choice([0.0, 0.0, 0.0, 1.0]))
            result = zeta_asymptotic(z, q)
            partial, shifted, sign = shift_reduce(z, q, 0, q + 40.0)
            ref = zeta_asymptotic(z, shifted)
            ref_value = partial + sign * ref.value
            # the reference carries its own rounding: the alternating block
            # sums terms (q+j)^(-z) whose powers amplify eps by |z log q|
            block_scale = sum((q + j) ** (-z.real) for j in range(int(shifted - q)))
            conditioning = (1.0 + abs(z) * math.log(shifted)) * 4e-16
            ref_uncertainty = ref.error_estimate + conditioning * (
                block_scale + abs(ref_value)
            )
            if abs(result.value - ref_value) <= result.error_estimate + ref_uncertainty:
                covered += 1
        assert covered >= 0.95 * total


class TestEnvironmentCap:
    def test_cap_limits_expansion(self, monkeypatch):
        monkeypatch.setenv("ZETAE_MAX_TERMS", "6")
        capped = zeta_asymptotic(2.5, 30.0)
        monkeypatch.delenv("ZETAE_MAX_TERMS")
        free = zeta_asymptotic(2.5, 30.0)
        assert capped.terms_used < free.terms_used
        assert capped.error_estimate > free.error_estimate

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("ZETAE_MAX_TERMS", "many")
        with pytest.raises(DomainError):
            zeta_asymptotic(2.5, 30.0)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "call",
    [
        lambda q: EvalRequest(2.0, q),
        lambda q: zeta_series(2.0, q),
        lambda q: zeta_asymptotic(2.0, q),
        lambda q: deriv1_asymptotic(2.0, q),
        lambda q: deriv_m_asymptotic(2.0, q, 3),
        lambda q: zeta_special_value(3, q),
        lambda q: deriv1_at_neg_int(2, q),
        lambda q: deriv2_at_neg_int(2, q),
        lambda q: shift_reduce(2.0, q),
    ],
    ids=[
        "EvalRequest",
        "zeta_series",
        "zeta_asymptotic",
        "deriv1_asymptotic",
        "deriv_m_asymptotic",
        "zeta_special_value",
        "deriv1_at_neg_int",
        "deriv2_at_neg_int",
        "shift_reduce",
    ],
)
def test_non_finite_q_raises_domain_error(call, q):
    with pytest.raises(DomainError):
        call(q)


@pytest.mark.parametrize(
    "m,error",
    [(1.5, DomainError), (2.0, DomainError), (True, DomainError), (-1, DomainError), (9, CapacityError)],
    ids=["float", "integral-float", "bool", "negative", "above-max"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda m: EvalRequest(2.5, 30.0, m),
        lambda m: zeta_series(2.5, 30.0, m),
        lambda m: deriv_m_asymptotic(2.5, 30.0, m),
        lambda m: shift_reduce(2.5, 30.0, m),
    ],
    ids=["EvalRequest", "zeta_series", "deriv_m_asymptotic", "shift_reduce"],
)
def test_bad_derivative_order_raises_typed_error(call, m, error):
    with pytest.raises(error):
        call(m)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: zeta_asymptotic(complex(-254), 0.5), None),
        (lambda: deriv1_asymptotic(complex(-254), 0.5), None),
        (lambda: deriv_m_asymptotic(complex(-254), 0.5, 2), None),
        (lambda: deriv1_at_neg_int(254, 0.5), None),
        (lambda: deriv2_at_neg_int(254, 0.5), None),
        (lambda: zeta_asymptotic(1e4, 0.5), CapacityError),
        (lambda: zeta_asymptotic(-300 + 0.5j, 1e-300), CapacityError),
        (lambda: deriv_m_asymptotic(-60.25, 1e5, 8), None),
        (lambda: deriv_m_asymptotic(-60.25 + 1j, 1e5, 8), None),
        (lambda: evaluate(EvalRequest(-60.25, 1e5, 8)), None),
        (lambda: evaluate(EvalRequest(-60.25 + 1j, 1e5, 8)), None),
    ],
    ids=[
        "zeta_asymptotic-nan",
        "deriv1_asymptotic-nan",
        "deriv_m_asymptotic-nan",
        "deriv1_at_neg_int-nan",
        "deriv2_at_neg_int-nan",
        "zeta_asymptotic-overflow",
        "zeta_asymptotic-zero-divisor",
        "deriv_m_asymptotic-inf-minus-inf",
        "deriv_m_asymptotic-complex-inf-minus-inf",
        "evaluate-inf-minus-inf",
        "evaluate-complex-inf-minus-inf",
    ],
)
def test_direct_expansion_failures_are_flagged_or_typed(call, error):
    # the direct entry points follow evaluate's rules: arithmetic failure
    # is a CapacityError, and a non-finite value never comes back silently
    if error is not None:
        with pytest.raises(error):
            call()
        return
    result = call()
    assert not cmath.isfinite(result.value)
    assert result.error_estimate == math.inf
    assert result.note is not None and "accuracy warning" in result.note


class TestRecords:
    """EvalResult, EvalRequest and TruncationPolicy are immutable named
    tuples that validate on construction and on _replace."""

    def test_eval_result_construction_and_default(self):
        positional = EvalResult(1 + 2j, 0.5, 3, "asymptotic")
        keyword = EvalResult(value=1 + 2j, error_estimate=0.5, terms_used=3, method="asymptotic")
        assert positional == keyword
        assert positional.note is None
        assert EvalResult._fields == ("value", "error_estimate", "terms_used", "method", "note")
        noted = EvalResult(1j, 0.0, 0, "oracle", "flagged")
        assert (noted.value, noted.note) == (1j, "flagged")

    def test_eval_request_construction_and_defaults(self):
        request = EvalRequest(2.5 + 1j, 30.0)
        assert (request.m, request.target_accuracy) == (0, 1e-12)
        assert request == EvalRequest(z=2.5 + 1j, q=30.0, m=0, target_accuracy=1e-12)
        assert EvalRequest(1.0, 2.0, 3, 1e-8) == EvalRequest(q=2.0, z=1.0, target_accuracy=1e-8, m=3)
        assert EvalRequest._fields == ("z", "q", "m", "target_accuracy")

    def test_truncation_policy_construction_and_defaults(self):
        assert TruncationPolicy() == TruncationPolicy("optimal", None) == TruncationPolicy.optimal()
        assert TruncationPolicy.fixed(7) == TruncationPolicy(mode="fixed", fixed_n=7)
        assert TruncationPolicy.parse("fixed:7").fixed_n == 7
        assert TruncationPolicy._fields == ("mode", "fixed_n")

    @pytest.mark.parametrize(
        "record",
        [
            EvalResult(1j, 0.5, 3, "asymptotic"),
            EvalRequest(2.5, 30.0, 2),
            TruncationPolicy.fixed(4),
        ],
        ids=["EvalResult", "EvalRequest", "TruncationPolicy"],
    )
    def test_immutable_hashable_replaceable(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, record[0])
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict
        twin = type(record)(*record)
        assert twin == record and hash(twin) == hash(record)
        assert record == tuple(record)  # a tuple subclass: equal to a plain tuple
        assert {record: 1}[twin] == 1
        assert record._replace() == record
        assert type(record._replace()) is type(record)

    def test_replace_changes_one_field(self):
        result = EvalResult(1j, 0.5, 3, "asymptotic")
        flagged = result._replace(error_estimate=math.inf, note="warning")
        assert flagged == EvalResult(1j, math.inf, 3, "asymptotic", "warning")
        assert result.note is None
        assert EvalRequest(2.5, 30.0)._replace(m=4).m == 4
        assert TruncationPolicy.fixed(4)._replace(fixed_n=9).describe() == "fixed:9"

    @pytest.mark.parametrize(
        "build,error",
        [
            (lambda: EvalResult(1j, -1.0, 0, "oracle"), DomainError),
            (lambda: EvalResult(1j, 0.0, -1, "oracle"), DomainError),
            (lambda: EvalResult(1j, 0.0, 0, "oracle")._replace(error_estimate=-1.0), DomainError),
            (lambda: EvalRequest(math.nan, 1.0), DomainError),
            (lambda: EvalRequest(1.0, 0.0), DomainError),
            (lambda: EvalRequest(1.0, 1.0, 1.5), DomainError),
            (lambda: EvalRequest(1.0, 1.0, 9), CapacityError),
            (lambda: EvalRequest(1.0, 1.0, 0, 0.0), DomainError),
            (lambda: EvalRequest(1.0, 1.0)._replace(q=-1.0), DomainError),
            (lambda: TruncationPolicy("bogus"), DomainError),
            (lambda: TruncationPolicy("fixed"), DomainError),
            (lambda: TruncationPolicy(mode="fixed", fixed_n=-1), DomainError),
            (lambda: TruncationPolicy.fixed(3)._replace(fixed_n=None), DomainError),
            (lambda: TruncationPolicy.fixed(2.5), DomainError),
            (lambda: TruncationPolicy("fixed", True), DomainError),
        ],
    )
    def test_validation_errors(self, build, error):
        with pytest.raises(error):
            build()
