"""Tests for the exact Euler-number and Euler-polynomial machinery."""

import io
import math
from fractions import Fraction
from functools import lru_cache

import pytest

from altzeta import (
    CapacityError,
    DomainError,
    EvalRequest,
    K_MAX,
    euler_number_at_zero,
    euler_polynomial,
    euler_polynomial_coefficients,
    evaluate,
    fourier_partial_sum,
    quasi_periodic_euler,
    zeta_special_value,
)
from altzeta import euler
from altzeta.cli import EXIT_USAGE, main
from altzeta.euler import _euler_polynomial_float_coefficients, euler_number_over_factorial


def _poly_exact(n, q):
    """Exact polynomial value from the exact coefficients."""
    acc = Fraction(0)
    for c in reversed(euler_polynomial_coefficients(n)):
        acc = acc * q + c
    return acc


def _horner_condition(n, magnitude):
    """sum |c_i| |q|^i, the scale against which float rounding acts."""
    acc = 0.0
    for c in reversed(euler_polynomial_coefficients(n)):
        acc = acc * magnitude + abs(float(c))
    return acc


def numbers_by_series_division(count):
    """Independent oracle: Taylor coefficients of 2/(exp(t) + 1), times k!.

    Divides the power series 2 by exp(t) + 1 in exact rational arithmetic;
    no shared code with the table construction.
    """
    denom = [Fraction(2)] + [Fraction(1, math.factorial(j)) for j in range(1, count + 1)]
    coeffs = [Fraction(1)]
    for n in range(1, count + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += denom[j] * coeffs[n - j]
        coeffs.append(-acc / denom[0])
    return [coeffs[k] * math.factorial(k) for k in range(count + 1)]


@lru_cache(maxsize=1)
def numbers_by_reflection():
    """Independent oracle for the whole table, k = 0..K_MAX.

    The reflection identity E_n(q+1) + E_n(q) = 2*q^n at q = 0 gives
    2*E_n(0) = -sum_{k<n} C(n, k) E_k(0) for n >= 1, solved in exact
    rational arithmetic; no shared code with the tangent-number build.
    """
    values = [Fraction(1)]
    for n in range(1, K_MAX + 1):
        acc = Fraction(0)
        for k in range(n):
            if values[k]:
                acc += math.comb(n, k) * values[k]
        values.append(-acc / 2)
    return tuple(values)


class TestEulerNumberAtZero:
    def test_first_values(self):
        assert euler_number_at_zero(0) == 1
        assert euler_number_at_zero(1) == Fraction(-1, 2)
        assert euler_number_at_zero(3) == Fraction(1, 4)
        assert euler_number_at_zero(5) == Fraction(-1, 2)
        assert euler_number_at_zero(7) == Fraction(17, 8)

    def test_even_indices_vanish(self):
        for k in range(2, 64, 2):
            assert euler_number_at_zero(k) == 0

    def test_against_series_division_oracle(self):
        oracle = numbers_by_series_division(32)
        for k in range(33):
            assert euler_number_at_zero(k) == oracle[k]

    def test_whole_table_against_reflection_oracle(self):
        oracle = numbers_by_reflection()
        for k in range(K_MAX + 1):
            assert euler_number_at_zero(k) == oracle[k], k

    def test_ratio_over_factorial_bit_identical(self):
        oracle = numbers_by_reflection()
        for k in range(K_MAX + 1):
            expected = float(oracle[k] / math.factorial(k))
            assert euler_number_over_factorial(k).hex() == expected.hex(), k

    def test_capacity_and_domain(self):
        with pytest.raises(CapacityError):
            euler_number_at_zero(K_MAX + 1)
        with pytest.raises(DomainError):
            euler_number_at_zero(-1)
        with pytest.raises(CapacityError):
            euler_number_over_factorial(K_MAX + 1)
        with pytest.raises(DomainError):
            euler_number_over_factorial(-1)


@pytest.fixture
def empty_table(monkeypatch):
    """An empty numerator table and cold caches over it; the full table
    comes back after the test (cached values are equal either way)."""
    monkeypatch.setattr(euler, "_table", ())
    for cached in (
        euler_number_over_factorial,
        euler._scaled_polynomial_coefficients,
        euler_polynomial_coefficients,
        _euler_polynomial_float_coefficients,
    ):
        cached.cache_clear()


class TestTableGrowth:
    def test_grows_by_powers_of_two_to_the_full_build(self, empty_table, monkeypatch):
        full = euler._numerators(K_MAX)
        assert len(full) == K_MAX + 1
        monkeypatch.setattr(euler, "_table", ())
        for k, size in ((5, 65), (100, 129), (256, 257)):
            table = euler._numerators(k)
            assert len(table) == size
            assert table == full[:size]
        assert euler._numerators(3) is table  # no rebuild below the end

    def test_numerators_are_the_exact_values_times_two_to_the_k(self, empty_table):
        oracle = numbers_by_reflection()
        for k in range(K_MAX + 1):
            assert euler._numerators(k)[k] == oracle[k] * 2**k, k

    def test_one_evaluate_builds_only_what_it_reads(self, empty_table):
        evaluate(EvalRequest(2.5 + 1j, 30.0))
        assert 0 < len(euler._table) < K_MAX + 1

    def test_polynomial_coefficients_match_the_oracle_convolution(self, empty_table):
        oracle = numbers_by_reflection()
        for n in range(K_MAX + 1):
            want = [Fraction(0)] * (n + 1)
            for k in range(n + 1):
                want[n - k] += math.comb(n, k) * oracle[k]
            assert euler_polynomial_coefficients(n) == tuple(want), n
            try:
                floats = [float(c) for c in want]
            except OverflowError:
                with pytest.raises(CapacityError):
                    _euler_polynomial_float_coefficients(n)
                continue
            got = _euler_polynomial_float_coefficients(n)
            assert [c.hex() for c in got] == [c.hex() for c in floats], n


@pytest.mark.parametrize(
    "call",
    [
        lambda n: euler_polynomial(n, 0.5),
        lambda n: quasi_periodic_euler(n, 2.25),
        lambda n: zeta_special_value(n, 0.5),
    ],
    ids=["euler_polynomial", "quasi_periodic_euler", "zeta_special_value"],
)
def test_polynomial_entry_points_fail_typed(call):
    # rounding the coefficients of E_n to doubles overflows from n = 218 on;
    # that is a CapacityError, never a bare OverflowError
    failed = []
    for n in range(K_MAX + 1):
        try:
            call(n)
        except CapacityError:
            failed.append(n)
    assert failed == list(range(218, K_MAX + 1))


def test_polynomial_overflow_keeps_evaluate_and_cli_behaviour():
    with pytest.raises(CapacityError):
        evaluate(EvalRequest(-220.0, 0.5))
    assert main(["eval", "--z=-220", "--q", "0.5"], stdout=io.StringIO()) == EXIT_USAGE


class TestEulerPolynomial:
    def test_degree_three_coefficients(self):
        # q^3 - (3/2) q^2 + 1/4, ascending order
        assert euler_polynomial_coefficients(3) == (
            Fraction(1, 4),
            Fraction(0),
            Fraction(-3, 2),
            Fraction(1),
        )

    def test_degree_two_coefficients(self):
        assert euler_polynomial_coefficients(2) == (Fraction(0), Fraction(-1), Fraction(1))

    def test_constant_polynomial(self):
        for q in (-3.0, 0.0, 0.7, 12.0):
            assert euler_polynomial(0, q) == 1.0

    def test_value_at_zero_matches_table(self):
        for n in range(20):
            assert euler_polynomial(n, 0.0) == pytest.approx(
                float(euler_number_at_zero(n)), abs=1e-15
            )

    @pytest.mark.parametrize("q", [-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    def test_reflection_identity_exact(self, q):
        # E_n(q+1) + E_n(q) = 2 q^n, the construction recurrence, checked in
        # exact rational arithmetic
        qr = Fraction(q)
        for n in range(33):
            left = _poly_exact(n, qr + 1) + _poly_exact(n, qr)
            assert left == 2 * qr**n

    @pytest.mark.parametrize("q", [-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    def test_reflection_identity_float(self, q):
        # the float residual is bounded by the conditioning of the two
        # Horner evaluations (mixed-sign coefficients cancel internally);
        # the rational test above carries the exact statement
        for n in range(33):
            a = euler_polynomial(n, q + 1.0)
            b = euler_polynomial(n, q)
            right = 2.0 * q**n
            cond = _horner_condition(n, abs(q) + 1.0) + _horner_condition(n, abs(q))
            assert abs((a + b) - right) <= 1e-12 * max(1.0, cond)


class TestQuasiPeriodic:
    def test_spec_points(self):
        assert quasi_periodic_euler(0, 0.25) == 1.0
        assert quasi_periodic_euler(1, 1.25) == pytest.approx(0.25, abs=1e-16)
        assert quasi_periodic_euler(2, -0.5) == pytest.approx(0.25, abs=1e-16)

    def test_antiperiodicity_exact_at_dyadic_points(self):
        # x and x+1 are exactly representable, so the flip is exact
        for n in range(8):
            for x in (-1.75, -0.5, 0.0, 0.25, 0.5, 2.375):
                assert quasi_periodic_euler(n, x + 1.0) == -quasi_periodic_euler(n, x)

    def test_matches_polynomial_on_unit_interval(self):
        for n in range(6):
            for x in (0.0, 0.1, 0.6, 0.99):
                assert quasi_periodic_euler(n, x) == euler_polynomial(n, x)


class TestFourierPartialSum:
    def test_leibniz_limit(self):
        # n=0, x=1/2: the partial sums approach 1 like 1/K
        assert fourier_partial_sum(0, 0.5, 10_000) == pytest.approx(1.0, abs=1e-4)

    def test_degree_one_interior_point(self):
        assert fourier_partial_sum(1, 0.3, 10_000) == pytest.approx(-0.2, abs=1e-3)

    def test_degree_two_at_zero(self):
        assert abs(fourier_partial_sum(2, 0.0, 10_000)) <= 1e-6

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fourier_partial_sum(0, 0.0, 100)
        with pytest.raises(DomainError):
            fourier_partial_sum(1, 1.0, 100)
        with pytest.raises(DomainError):
            fourier_partial_sum(2, -0.1, 100)
        with pytest.raises(DomainError):
            fourier_partial_sum(1, 0.5, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("x", [0.125, 0.3, 0.7])
    def test_error_decreases_with_more_terms(self, n, x):
        exact = quasi_periodic_euler(n, x)
        errors = [abs(fourier_partial_sum(n, x, k) - exact) for k in (100, 1_000, 10_000)]
        assert errors[0] > errors[1] > errors[2]
