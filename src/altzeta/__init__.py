"""Alternating Hurwitz zeta function: large-q expansions, an accelerated
series oracle, exact Euler-polynomial machinery, and Boole summation."""

from .coefficients import (
    alternating_binomial_partial_sum,
    alternating_binomial_sum,
    expansion_coefficient,
    expansion_coefficient_at_neg_int,
    pochhammer,
    pochhammer_derivative,
    pochhammer_jets,
)
from .errors import AccuracyError, CapacityError, DomainError
from .euler import (
    K_MAX,
    euler_number_at_zero,
    euler_polynomial,
    euler_polynomial_coefficients,
    fourier_partial_sum,
    quasi_periodic_euler,
)
from .zeta import (
    M_MAX,
    METHOD_ASYMPTOTIC,
    METHOD_NEG_INT,
    METHOD_ORACLE,
    METHOD_SHIFTED,
    METHOD_SPECIAL,
    EvalRequest,
    EvalResult,
    TruncationPolicy,
    deriv1_asymptotic,
    deriv1_at_neg_int,
    deriv1_neg_int_constant_term,
    deriv2_at_neg_int,
    deriv_m_asymptotic,
    evaluate,
    regime_threshold,
    shift_reduce,
    zeta_asymptotic,
    zeta_series,
    zeta_special_value,
)

__version__ = "0.1.0"

#: Names of the Boole-summation engine, resolved on first access so that
#: importing the package (and the CLI's eval and table paths) leaves
#: altzeta.boole unloaded.
_BOOLE_NAMES = frozenset(
    {
        "BooleReport",
        "SmoothFunction",
        "boole_remainder",
        "boole_sum",
        "delta_expansion_value",
        "polynomial_function",
        "power_function",
    }
)


def __getattr__(name):
    if name in _BOOLE_NAMES:
        from . import boole

        return getattr(boole, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AccuracyError",
    "BooleReport",
    "CapacityError",
    "DomainError",
    "EvalRequest",
    "EvalResult",
    "K_MAX",
    "M_MAX",
    "METHOD_ASYMPTOTIC",
    "METHOD_NEG_INT",
    "METHOD_ORACLE",
    "METHOD_SHIFTED",
    "METHOD_SPECIAL",
    "SmoothFunction",
    "TruncationPolicy",
    "alternating_binomial_partial_sum",
    "alternating_binomial_sum",
    "boole_remainder",
    "boole_sum",
    "delta_expansion_value",
    "deriv1_asymptotic",
    "deriv1_at_neg_int",
    "deriv1_neg_int_constant_term",
    "deriv2_at_neg_int",
    "deriv_m_asymptotic",
    "euler_number_at_zero",
    "euler_polynomial",
    "euler_polynomial_coefficients",
    "evaluate",
    "expansion_coefficient",
    "expansion_coefficient_at_neg_int",
    "fourier_partial_sum",
    "pochhammer",
    "pochhammer_derivative",
    "pochhammer_jets",
    "polynomial_function",
    "power_function",
    "quasi_periodic_euler",
    "regime_threshold",
    "shift_reduce",
    "zeta_asymptotic",
    "zeta_series",
    "zeta_special_value",
]
