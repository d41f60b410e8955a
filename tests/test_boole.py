"""Tests for the Boole-summation engine."""

import os
import subprocess
import sys

import pytest

import altzeta
from altzeta import (
    CapacityError,
    DomainError,
    SmoothFunction,
    boole_remainder,
    boole_sum,
    delta_expansion_value,
    pochhammer,
    polynomial_function,
    power_function,
)
from altzeta.boole import _gauss_rule


class TestSmoothFunction:
    def test_power_function_derivatives(self):
        # j-th derivative of (t+q)^(-z) is (-1)^j (z)_j (t+q)^(-z-j)
        z, q = complex(2.0, 1.0), 10.0
        f = power_function(z, q)
        for j in range(5):
            for t in (0.0, 0.5, 3.0):
                expected = (-1) ** j * pochhammer(z, j) * (t + q) ** (-z - j)
                assert f.deriv(j, t) == pytest.approx(expected, rel=1e-14)

    def test_declared_maximum_enforced(self):
        f = SmoothFunction(lambda order, t: t**2, max_order=2)
        f.deriv(2, 1.0)
        with pytest.raises(CapacityError):
            f.deriv(3, 1.0)

    def test_polynomial_derivatives(self):
        f = polynomial_function([1.0, -2.0, 0.0, 4.0])  # 1 - 2t + 4t^3
        assert f(2.0) == pytest.approx(29.0)
        assert f.deriv(1, 2.0) == pytest.approx(46.0)
        assert f.deriv(2, 2.0) == pytest.approx(48.0)
        assert f.deriv(3, 2.0) == pytest.approx(24.0)
        assert f.deriv(4, 2.0) == 0


class TestBooleSum:
    def test_constant_even_range(self):
        report = boole_sum(polynomial_function([1.0]), 0, 2, 1)
        assert report.lhs == 0
        assert report.rhs_main == 0
        assert report.remainder == 0
        assert report.residual == 0.0

    def test_linear_function(self):
        report = boole_sum(polynomial_function([0.0, 1.0]), 0, 2, 1)
        assert report.lhs == pytest.approx(-2.0)
        assert report.rhs_main == pytest.approx(-2.0)
        assert report.remainder == 0
        assert report.residual <= 1e-15

    def test_power_function_closure(self):
        report = boole_sum(power_function(2.5, 10.0), 0, 6, 6)
        assert report.residual <= 1e-12

    @pytest.mark.parametrize("q", [5.0, 10.0, 20.0])
    @pytest.mark.parametrize("z", [1.5, 3.0, complex(2, 1)])
    @pytest.mark.parametrize("n_terms", [2, 4, 8])
    def test_identity_closure_battery(self, q, z, n_terms):
        report = boole_sum(power_function(z, q), 0, 6, n_terms)
        assert report.residual <= 1e-11

    @pytest.mark.parametrize(
        "coeffs", [[1.0], [0.0, 1.0], [2.0, -1.0, 3.0], [1.0, 0.0, 0.0, -2.0]]
    )
    def test_polynomial_exactness(self, coeffs):
        n_terms = max(len(coeffs) - 1, 1)
        report = boole_sum(polynomial_function(coeffs), 0, 4, n_terms)
        assert report.remainder == 0
        assert report.residual <= 1e-12

    def test_negative_range(self):
        report = boole_sum(power_function(1.5, 12.0), -3, 3, 4)
        assert report.residual <= 1e-12

    def test_invalid_inputs(self):
        f = polynomial_function([1.0])
        with pytest.raises(DomainError):
            boole_sum(f, 3, 3, 2)
        with pytest.raises(DomainError):
            boole_sum(f, 0, 2, 0)


class TestBooleRemainder:
    def test_vanishes_for_low_degree_polynomials(self):
        # f^(N+1) is identically zero
        assert boole_remainder(polynomial_function([1.0, 2.0, 3.0]), 4, 0, 3) == 0

    def test_kernel_sign_convention(self):
        # N=0, f=t on [0,1]: the kernel is -1 on the interior, so the
        # integral of kernel * f' is -1
        value = boole_remainder(polynomial_function([0.0, 1.0]), 0, 0, 1)
        assert value == pytest.approx(-1.0, abs=1e-14)

    def test_closes_the_identity(self):
        f = power_function(3.0, 10.0)
        report = boole_sum(f, 0, 1, 4)
        rem = boole_remainder(f, 4, 0, 1)
        assert abs((report.lhs - report.rhs_main) - rem) <= 1e-12


class TestDeltaExpansion:
    def test_constant(self):
        result = delta_expansion_value(polynomial_function([3.5]), 4)
        assert result.value == pytest.approx(3.5)
        assert result.method == "oracle"

    def test_inverse_square_reconstruction(self):
        result = delta_expansion_value(power_function(2.0, 10.0), 8)
        assert result.value.real == pytest.approx(0.01, abs=1e-13)
        assert result.value.imag == 0
        assert abs(result.value.real - 0.01) <= max(result.error_estimate, 1e-13)

    def test_pair_derivatives_match_closed_form(self):
        # with f(t) = zeta(z, q+t), the endpoint pairs f^(k)(1) + f^(k)(0)
        # collapse through the reflection identity to (-1)^k (z)_k q^(-z-k)
        from altzeta import EvalRequest, evaluate

        z, q = 1.5, 10.0

        def deriv(order, t):
            sign = -1.0 if order % 2 else 1.0
            return sign * pochhammer(complex(z), order) * evaluate(
                EvalRequest(z + order, q + t, 0)
            ).value

        f = SmoothFunction(deriv)
        for k in range(4):
            closed = (-1) ** k * pochhammer(complex(z), k) * q ** (-z - k)
            pair = f.deriv(k, 1.0) + f.deriv(k, 0.0)
            assert abs(pair - closed) <= 1e-11 * max(1.0, abs(closed))

    def test_reconstructs_zeta_from_its_own_derivatives(self):
        # f(t) = zeta(z, q+t); the t-derivatives come from the q-derivative
        # identity, so the reconstruction cross-checks the evaluator
        from altzeta import EvalRequest, evaluate

        z, q = 1.5, 12.0

        def deriv(order, t):
            sign = -1.0 if order % 2 else 1.0
            return sign * pochhammer(complex(z), order) * evaluate(
                EvalRequest(z + order, q + t, 0)
            ).value

        f = SmoothFunction(deriv)
        result = delta_expansion_value(f, 6)
        expected = evaluate(EvalRequest(z, q, 0)).value
        assert abs(result.value - expected) <= 1e-10


class TestGaussRule:
    @pytest.mark.parametrize("order", [24, 32])
    def test_matches_numpy_leggauss(self, order):
        np = pytest.importorskip("numpy")
        x, w = np.polynomial.legendre.leggauss(order)
        nodes, weights = _gauss_rule(order)
        assert len(nodes) == len(weights) == order
        for got, want in zip(nodes, x):
            assert abs(got - 0.5 * (want + 1.0)) <= 1e-15
        for got, want in zip(weights, w):
            assert abs(got - 0.5 * want) <= 1e-15

    def test_import_does_not_load_numpy(self):
        src = os.path.dirname(os.path.dirname(altzeta.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, altzeta.cli; raise SystemExit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
