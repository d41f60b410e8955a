"""Tests for Pochhammer symbols, their jets and the expansion coefficients."""

import itertools
import math
from fractions import Fraction

import pytest

from altzeta import (
    DomainError,
    alternating_binomial_partial_sum,
    alternating_binomial_sum,
    euler_number_at_zero,
    expansion_coefficient,
    expansion_coefficient_at_neg_int,
    pochhammer,
    pochhammer_derivative,
    pochhammer_jets,
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


class TestPochhammerJets:
    @pytest.mark.parametrize(
        "z", [0, 3, -3, Fraction(-29, 4), Fraction(5, 2)], ids=["0", "3", "-3", "-29/4", "5/2"]
    )
    def test_exact_jets_equal_the_nested_layers(self, z, exact_nested_layers):
        # i! P_k[i] is the layer g_i(k), exactly, in rational arithmetic
        layers = exact_nested_layers(z, 8, 60)
        for k, jet in zip(range(61), pochhammer_jets(z, 8)):
            assert all(isinstance(x, Fraction) for x in jet)
            assert [math.factorial(i) * x for i, x in enumerate(jet)] == [
                row[k] for row in layers
            ]

    def test_entry_types_follow_z(self):
        jet = next(itertools.islice(pochhammer_jets(2.5, 2), 3, None))
        assert all(type(x) is float for x in jet)
        jet = next(itertools.islice(pochhammer_jets(complex(2.5, 1.0), 2), 3, None))
        assert all(type(x) is complex for x in jet)
        # a complex z on the real axis runs in real arithmetic
        assert next(pochhammer_jets(complex(2.5), 1)) == [1.0, 0.0]

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            next(pochhammer_jets(1.0, -1))


class TestExpansionCoefficient:
    def test_even_k_vanishes(self):
        for z in (0.0, 2.5, complex(1, 1)):
            for m in range(4):
                assert expansion_coefficient(z, 2, m) == 0
                assert expansion_coefficient(z, 4, m) == 0

    def test_known_points(self):
        assert expansion_coefficient(0.0, 3, 2) == pytest.approx(0.25, abs=1e-15)
        assert expansion_coefficient(2.0, 3, 0) == pytest.approx(1.0, abs=1e-14)
        assert expansion_coefficient(0, 3, 2) == Fraction(1, 4)

    def test_against_brute_force_nest(self, magnitude_layers, exact_nested_layers):
        for z in (0.0, 1.5, -0.5, complex(0.5, 1.0)):
            for k in (3, 5, 7):
                for m in range(4):
                    got = expansion_coefficient(z, k, m)
                    want = nested_sum_reference(z, k, m)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        # far out on the negative axis the nested sums cancel heavily in
        # floats, so the reference there is the nest in exact arithmetic
        for z in (Fraction(-29, 4), Fraction(-25, 2)):
            jets = list(itertools.islice(pochhammer_jets(complex(z), 4), 121))
            mags = magnitude_layers(z, 4, 120)
            for i, row in enumerate(exact_nested_layers(z, 4, 120)):
                for j, want in enumerate(row):
                    got = math.factorial(i) * jets[j][i]
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
        # A pass of lower order, read at every step-th k with the order in
        # rotation, must equal the leading entries of one sweep of order 8
        # bit for bit: entry i of a jet never depends on the order asked
        # for.  The per-entry reader must equal the sweep too.
        z = z if isinstance(z, int) else complex(z)
        depth, k_max = 8, 256
        sweep = list(itertools.islice(pochhammer_jets(z, depth), k_max + 1))

        def bits(x):
            return x if isinstance(z, int) else (complex(x).real.hex(), complex(x).imag.hex())

        for order in range(depth + 1):
            for k, jet in zip(range(k_max + 1), pochhammer_jets(z, order)):
                if (k // step) % (depth + 1) == order:
                    assert [bits(x) for x in jet] == [bits(x) for x in sweep[k][: order + 1]]
        for k in range(step, k_max + 1, step):
            assert bits(pochhammer_derivative(z, k)) == bits(sweep[k][1])

    def test_tail_index_starts_at_two(self):
        with pytest.raises(DomainError):
            expansion_coefficient(1.0, 1, 1)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            expansion_coefficient(1.0, 3, -1)

    @pytest.mark.parametrize("z", LADDER_Z)
    def test_derivative_ladder(self, z):
        h = 1e-6
        zc = complex(z)
        for k in range(2, 13):
            for m in range(4):
                fd = (
                    expansion_coefficient(zc + h, k, m) - expansion_coefficient(zc - h, k, m)
                ) / (2 * h)
                up = expansion_coefficient(zc, k, m + 1)
                assert abs(fd - up) <= 1e-6 * max(1.0, abs(up))


class TestNegativeIntegerCoefficient:
    def test_spec_points(self):
        assert expansion_coefficient_at_neg_int(3, 2, 0) == Fraction(1, 4)
        assert expansion_coefficient_at_neg_int(3, 2, 1) == 0
        for m in (1, 2, 3):
            for n in (0, 2, 5):
                assert expansion_coefficient_at_neg_int(4, m, n) == 0

    def test_matches_generic_cache_exactly(self):
        # rational arithmetic on both routes, the truncated nested sums and
        # the jets at the int z = -n; equality is exact
        for n in range(7):
            for k in range(2, 13):
                for m in (1, 2, 3):
                    assert expansion_coefficient_at_neg_int(k, m, n) == expansion_coefficient(
                        -n, k, m
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

