"""Tests for Pochhammer symbols and the layered expansion coefficients."""

import math
from fractions import Fraction

import pytest

from altzeta import (
    CoefficientCache,
    DomainError,
    alternating_binomial_partial_sum,
    alternating_binomial_sum,
    euler_number_at_zero,
    expansion_coefficient,
    expansion_coefficient_at_neg_int,
    pochhammer,
    pochhammer_derivative,
)

LADDER_Z = [0.0, 1.0, 2.5, -0.5, complex(1, 2)]


def nested_sum_reference(z, k, m):
    """Brute-force nested sum for the tail coefficient, no shared code.

    Recurses over the descending chain of summation indices with harmonic
    weights, bottoming out at (z)_j / j!.
    """
    zc = complex(z)

    def chain(bound, depth):
        if depth == 0:
            return pochhammer(zc, bound) / math.factorial(bound)
        total = 0j
        for j in range(bound):
            total += chain(j, depth - 1) / (bound - j)
        return total

    return float(euler_number_at_zero(k)) * chain(k, m)


def exact_nested_layers(z, depth, k_max):
    """Layers 0..depth at j = 0..k_max from their nested-sum definition in
    exact rational arithmetic: g_0(j) = (z)_j / j!, and
    g_i(j) = sum_{l<j} g_{i-1}(l) / (j - l)."""
    rows = [[pochhammer(z, j) / math.factorial(j) for j in range(k_max + 1)]]
    for _ in range(depth):
        prev = rows[-1]
        rows.append(
            [sum((prev[l] / (j - l) for l in range(j)), Fraction(0)) for j in range(k_max + 1)]
        )
    return rows


class TestPochhammer:
    def test_empty_product(self):
        for z in (0.0, 3.7, complex(1, -2)):
            assert pochhammer(z, 0) == 1

    def test_zero_factor(self):
        assert pochhammer(-2, 3) == 0

    def test_negative_integer_closed_form(self):
        # (-n)_j = (-1)^j n!/(n-j)! for j <= n
        for n in range(7):
            for j in range(n + 1):
                expected = (-1) ** j * math.factorial(n) // math.factorial(n - j)
                assert pochhammer(-n, j) == expected
        assert pochhammer(-3, 2) == 6

    def test_exact_and_float_agree(self):
        assert pochhammer(Fraction(5, 2), 4) == Fraction(3465, 16)
        assert pochhammer(2.5, 4) == pytest.approx(3465.0 / 16.0, rel=1e-15)

    def test_complex_matches_direct_product(self):
        z = complex(1.3, -0.7)
        direct = 1.0 + 0j
        for j in range(6):
            direct *= z + j
        assert pochhammer(z, 6) == pytest.approx(direct, rel=1e-14)


class TestPochhammerDerivative:
    def test_at_zero(self):
        # only the j=0 term survives: 1/k
        for k in range(1, 9):
            assert pochhammer_derivative(0, k) == Fraction(1, k)

    def test_z_one_k_two(self):
        assert pochhammer_derivative(1, 2) == Fraction(3, 2)

    def test_requires_positive_order(self):
        with pytest.raises(DomainError):
            pochhammer_derivative(1.0, 0)

    def test_floating_point_gives_complex(self):
        assert isinstance(pochhammer_derivative(2.5, 3), complex)

    @pytest.mark.parametrize("z", LADDER_Z)
    def test_finite_difference(self, z):
        h = 1e-6
        for k in range(1, 13):
            fd = (pochhammer(complex(z) + h, k) - pochhammer(complex(z) - h, k)) / (
                2 * h * math.factorial(k)
            )
            assert abs(fd - pochhammer_derivative(complex(z), k)) <= 1e-6


class TestExpansionCoefficient:
    def test_even_k_vanishes(self):
        for z in (0.0, 2.5, complex(1, 1)):
            cache = CoefficientCache(complex(z))
            for m in range(4):
                assert expansion_coefficient(cache, 2, m) == 0
                assert expansion_coefficient(cache, 4, m) == 0

    def test_known_points(self):
        cache0 = CoefficientCache(complex(0.0))
        assert expansion_coefficient(cache0, 3, 2) == pytest.approx(0.25, abs=1e-15)
        cache2 = CoefficientCache(complex(2.0))
        assert expansion_coefficient(cache2, 3, 0) == pytest.approx(1.0, abs=1e-14)

    def test_against_brute_force_nest(self, magnitude_layers):
        for z in (0.0, 1.5, -0.5, complex(0.5, 1.0)):
            cache = CoefficientCache(complex(z))
            for k in (3, 5, 7):
                for m in range(4):
                    got = expansion_coefficient(cache, k, m)
                    want = nested_sum_reference(z, k, m)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        # far out on the negative axis the nested sums cancel heavily in
        # floats, so the reference there is the nest in exact arithmetic
        for z in (Fraction(-29, 4), Fraction(-25, 2)):
            cache = CoefficientCache(complex(z))
            mags = magnitude_layers(z, 4, 120)
            for i, row in enumerate(exact_nested_layers(z, 4, 120)):
                for j, want in enumerate(row):
                    got = cache.layer(i, j)
                    if want:
                        assert abs(got - float(want)) <= 1e-9 * abs(float(want))
                    else:  # exact zero (e.g. g_1(26) at -25/2): rounding noise alone
                        assert abs(got) <= 64 * 2.2e-16 * mags[i][j]

    @pytest.mark.parametrize("step", [1, 7, 24])
    @pytest.mark.parametrize(
        "z",
        [2.5, -7.25, -12.0, complex(0.6, 37.3), -3],
        ids=["2.5", "-7.25", "-12", "0.6+37.3i", "exact-3"],
    )
    def test_stepwise_growth_matches_one_sweep(self, z, step):
        # Rows grown in small steps, one layer at a time in rotation so that
        # rows lag and catch up, must equal one sweep bit for bit, and equal
        # the per-entry accessors.
        z = z if isinstance(z, int) else complex(z)
        depth, k_max = 8, 256
        stepped, swept = CoefficientCache(z), CoefficientCache(z)
        swept.rows(depth, k_max)
        for j in range(0, k_max + 1, step):
            stepped.rows((j // step) % (depth + 1), j)
        stepped.rows(depth, k_max)

        def bits(x):
            return x if stepped.exact else (x.real.hex(), x.imag.hex())

        for i in range(depth + 1):
            values = stepped.rows(i, k_max)
            want_values = swept.rows(i, k_max)
            assert len(values) == len(want_values) == k_max + 1
            assert [bits(v) for v in values] == [bits(v) for v in want_values]
            for j in range(k_max + 1):
                assert bits(stepped.layer(i, j)) == bits(values[j])

    def test_tail_index_starts_at_two(self):
        with pytest.raises(DomainError):
            expansion_coefficient(CoefficientCache(1.0), 1, 1)

    @pytest.mark.parametrize("z", LADDER_Z)
    def test_derivative_ladder(self, z):
        h = 1e-6
        cache_p = CoefficientCache(complex(z) + h)
        cache_m = CoefficientCache(complex(z) - h)
        cache_0 = CoefficientCache(complex(z))
        for k in range(2, 13):
            for m in range(4):
                fd = (
                    expansion_coefficient(cache_p, k, m)
                    - expansion_coefficient(cache_m, k, m)
                ) / (2 * h)
                up = expansion_coefficient(cache_0, k, m + 1)
                assert abs(fd - up) <= 1e-6 * max(1.0, abs(up))


class TestNegativeIntegerCoefficient:
    def test_spec_points(self):
        assert expansion_coefficient_at_neg_int(3, 2, 0) == Fraction(1, 4)
        assert expansion_coefficient_at_neg_int(3, 2, 1) == 0
        for m in (1, 2, 3):
            for n in (0, 2, 5):
                assert expansion_coefficient_at_neg_int(4, m, n) == 0

    def test_matches_generic_cache_exactly(self):
        # rational arithmetic on both routes; equality is exact
        for n in range(7):
            cache = CoefficientCache(-n)
            for k in range(2, 13):
                for m in (1, 2, 3):
                    assert expansion_coefficient_at_neg_int(k, m, n) == expansion_coefficient(
                        cache, k, m
                    )

    def test_requires_positive_m(self):
        with pytest.raises(DomainError):
            expansion_coefficient_at_neg_int(3, 0, 1)


class TestAlternatingBinomialSum:
    def test_single_term(self):
        for k in range(1, 10):
            assert alternating_binomial_sum(0, k) == Fraction(1, k)

    def test_small_cases(self):
        assert alternating_binomial_sum(1, 2) == Fraction(-1, 2)
        assert alternating_binomial_sum(2, 3) == Fraction(1, 3)

    def test_closed_form_exact(self):
        for n in range(9):
            for k in range(n + 1, 25):
                denom = 1
                for i in range(k - n, k + 1):
                    denom *= i
                expected = Fraction((-1) ** n * math.factorial(n), denom)
                assert alternating_binomial_sum(n, k) == expected

    def test_domain_error(self):
        with pytest.raises(DomainError):
            alternating_binomial_sum(3, 3)
        with pytest.raises(DomainError):
            alternating_binomial_sum(3, 2)

    def test_partial_sum_agrees_beyond_n(self):
        for n in range(5):
            for k in range(n + 1, 12):
                assert alternating_binomial_partial_sum(n, k) == alternating_binomial_sum(n, k)

    def test_partial_sum_truncates_below_n(self):
        # k <= n: only j < k contributes
        assert alternating_binomial_partial_sum(3, 2) == Fraction(1, 2) - Fraction(3, 1)

