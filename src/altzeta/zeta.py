"""Evaluators for the alternating Hurwitz zeta function and its derivatives.

The function is zeta(z, q) = sum_{n>=0} (-1)^n / (n + q)^z for real q > 0,
entire in z by analytic continuation, together with its partial derivatives
in z of order m.  Three independent routes are implemented and cross-checked
against each other:

* ``zeta_series``: the defining series accelerated with the
  Cohen-Rodriguez Villegas-Zagier Chebyshev scheme; convergent for
  Re(z) > 0 and usable (flagged) as an empirical continuation elsewhere.
* ``zeta_asymptotic`` / ``deriv1_asymptotic`` / ``deriv_m_asymptotic``:
  entry points to one pass over the divergent large-q expansions of orders
  0..m, with fixed-length or smallest-term truncation.  Order i is the
  Boole-summation expansion with tail coefficients E_k(0) g_i(k) from
  :mod:`altzeta.coefficients`, written through the lower orders times
  powers of log q; all orders share one coefficient cache.
* ``zeta_special_value`` / ``deriv1_at_neg_int`` / ``deriv2_at_neg_int``:
  the closed form at z = -n, and the explicit first- and second-derivative
  expansions there, which are orders 1 and 2 of the same one-pass
  expansion: at z = -n its tails split into a block k <= n, a polynomial
  in q summed in full, and an asymptotic tail k > n under the policy.

``evaluate`` dispatches between the routes, shifting q upward through the
reflection identity zeta(z, q+1) + zeta(z, q) = q^(-z) when q is below the
asymptotic regime, and always reports an error estimate next to the value.
Every series is built as a list of terms and summed by one exactly rounded
call (:func:`altzeta.summation.complex_fsum`), so results are reproducible
bit for bit.
"""

from __future__ import annotations

import cmath
import math
import os
from collections import namedtuple

from .coefficients import CoefficientCache, alternating_binomial_partial_sum
from .errors import AccuracyError, CapacityError, DomainError
from .euler import (
    K_MAX,
    euler_number_at_zero,
    euler_number_over_factorial,
    euler_polynomial,
    _euler_polynomial_float_coefficients,
)
from .summation import complex_fsum

METHOD_ORACLE = "oracle"
METHOD_ASYMPTOTIC = "asymptotic"
METHOD_SHIFTED = "shifted_asymptotic"
METHOD_SPECIAL = "special_value"
METHOD_NEG_INT = "explicit_neg_int"

#: Highest derivative order supported by the recurrence evaluators.
M_MAX = 8

_EPS = 8e-16
_CVZ_RATE = 3.0 + math.sqrt(8.0)
_CVZ_TERM_LIMIT = 400
_ENV_MAX_TERMS = "ZETAE_MAX_TERMS"
#: A layer entry at most this many times its magnitude scale is rounding
#: noise around an exact zero.
_SNAP = 64.0 * 2.2e-16
#: Under the optimal policy an order's tail ends once two successive
#: nonzero terms lie below this fraction of the magnitude sum of its heads:
#: under 1% of the rounding floor of the sum, so later terms cannot change
#: a double (the smallest term sits there or beyond).
_ROUNDING_STOP = 2.0**-60
#: Tail indices built per step while the rounding stop is being watched.
_TAIL_CHUNK = 16


# ---------------------------------------------------------------------------
# Result and request types


class EvalResult(namedtuple("EvalResult", "value error_estimate terms_used method note")):
    """Value plus accuracy metadata returned by every evaluator: an
    immutable named tuple (value, error_estimate, terms_used, method,
    note)."""

    __slots__ = ()

    def __new__(cls, value, error_estimate, terms_used, method, note=None):
        if error_estimate < 0:
            raise DomainError("error estimate must be non-negative")
        if terms_used < 0:
            raise DomainError("terms_used must be non-negative")
        return super().__new__(cls, value, error_estimate, terms_used, method, note)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)

    def to_json_dict(self) -> dict:
        out = {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "error_estimate": self.error_estimate,
            "terms_used": self.terms_used,
            "method": self.method,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


class TruncationPolicy(namedtuple("TruncationPolicy", "mode fixed_n")):
    """How to cut off a divergent expansion.

    ``optimal`` scans ascending term magnitudes and stops just before the
    smallest nonzero term; ``fixed`` sums exactly ``fixed_n`` tail indices
    and builds the tail through index fixed_n + 2, so the first omitted
    term is seen.  The optimal scan reaches at most 2*ceil(pi*q) + 10,
    which always covers the smallest-term index at double precision.  It
    ends earlier at the rounding floor, once two successive nonzero terms
    lie below 2^-60 times the magnitude sum of the order's head terms (no
    later term can change the double result), or just past the smallest
    term, once two successive nonzero terms exceed 10 times it while the
    weights E_k(0)/q^k grow (the terms diverge from there on).
    """

    __slots__ = ()

    def __new__(cls, mode="optimal", fixed_n=None):
        if mode not in ("optimal", "fixed"):
            raise DomainError(f"unknown truncation mode {mode!r}")
        if mode == "fixed":
            if fixed_n is None or fixed_n < 0:
                raise DomainError("fixed truncation needs fixed_n >= 0")
        return super().__new__(cls, mode, fixed_n)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)

    @classmethod
    def optimal(cls) -> "TruncationPolicy":
        return cls()

    @classmethod
    def fixed(cls, n: int) -> "TruncationPolicy":
        return cls(mode="fixed", fixed_n=n)

    @classmethod
    def parse(cls, text: str) -> "TruncationPolicy":
        """Parse 'optimal' or 'fixed:N'."""
        text = text.strip()
        if text == "optimal":
            return cls.optimal()
        if text.startswith("fixed:"):
            try:
                return cls.fixed(int(text.split(":", 1)[1]))
            except ValueError:
                pass
        raise DomainError(f"cannot parse truncation policy {text!r}")

    def describe(self) -> str:
        return "optimal" if self.mode == "optimal" else f"fixed:{self.fixed_n}"

    def scan_limit(self, q: float) -> int:
        """Highest tail index that must be materialised for this policy,
        clamped to the exact-table capacity and to ZETAE_MAX_TERMS."""
        if self.mode == "fixed":
            hi = self.fixed_n + 2  # reach past N so the first omitted term is seen
        else:
            hi = 2 * math.ceil(math.pi * q) + 10
        hi = min(hi, K_MAX)
        limit = _env_max_terms()
        if limit is not None:
            hi = min(hi, 1 + limit)
        # k = 2 is an exact zero (E_2(0) = 0); k = 3 is the first nonzero
        # tail index, so reach it for the first omitted term to be seen.
        return max(hi, 3)


class EvalRequest(namedtuple("EvalRequest", "z q m target_accuracy")):
    """One evaluation: point (z, q), derivative order m, target accuracy."""

    __slots__ = ()

    def __new__(cls, z, q, m=0, target_accuracy=1e-12):
        if not cmath.isfinite(complex(z)):
            raise DomainError(f"z must be finite, got {z}")
        _check_q(q)
        _check_order(m)
        if not target_accuracy > 0:
            raise DomainError("target accuracy must be positive")
        return super().__new__(cls, z, q, m, target_accuracy)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here, so it validates too
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Shared helpers


def _env_max_terms() -> int | None:
    raw = os.environ.get(_ENV_MAX_TERMS)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{_ENV_MAX_TERMS} must be an integer, got {raw!r}") from None
    return value if value > 0 else None


def _check_q(q: float) -> None:
    if not (q > 0 and math.isfinite(q)):
        raise DomainError(f"q must be positive and finite, got {q}")


def _check_order(m: int) -> None:
    if not isinstance(m, int) or isinstance(m, bool):
        raise DomainError(f"derivative order must be an int, got {m!r}")
    if m < 0:
        raise DomainError(f"derivative order must be non-negative, got {m}")
    if m > M_MAX:
        raise CapacityError(f"derivative order {m} exceeds the supported maximum {M_MAX}")


def _power(base: float, exponent: complex) -> complex:
    """base**exponent for base > 0 on the principal branch.

    A real exponent goes through the real power, good to about an ulp;
    exp would amplify the rounding of exponent * log(base) by that product.
    """
    if exponent.imag == 0.0:
        return complex(base ** exponent.real)
    return cmath.exp(exponent * math.log(base))


def _as_nonpos_int(z: complex) -> int | None:
    """n when z == -n for an integer n >= 0, else None (exact test)."""
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        return int(-z.real)
    return None


def regime_threshold(z: complex) -> float:
    """Smallest q at which the expansions are used directly: max(10, 2|z|)."""
    return max(10.0, 2.0 * abs(complex(z)))


def optimal_truncation_index(terms) -> int:
    """Index of the smallest-magnitude nonzero term, scanning ascending.

    Ties break toward the smaller index; summation keeps everything before
    the returned index.  If every term is zero the full length is returned
    (nothing needs to be dropped).
    """
    terms = list(terms)
    if not terms:
        raise DomainError("term sequence must be non-empty")
    best = None
    best_mag = math.inf
    for i, t in enumerate(terms):
        mag = abs(t)
        if mag != 0.0 and mag < best_mag:
            best = i
            best_mag = mag
    return len(terms) if best is None else best


class _TailWeights:
    """Weights w_k = -1/2 * E_k(0)/q^k of the tail terms, w_k g_i(k) q^(-z),
    grown on demand and shared by every order of one expansion.

    E_k(0)/q^k is carried as (E_k(0)/k!) * (k!/q^k); both factors stay
    inside double range for every k <= K_MAX, unlike E_k(0) itself.  The
    list is indexed by k; w_0, w_1 and the even k (where E_k(0) = 0) hold
    0.0 and are never read.
    """

    def __init__(self, q: float):
        self.q = q
        self.values = [0.0, 0.0]
        self._p = 2.0 / (q * q)  # k!/q^k at k = len(values)

    def upto(self, k_hi: int) -> list[float]:
        values, q, p = self.values, self.q, self._p
        for k in range(len(values), k_hi + 1):
            values.append(-0.5 * (euler_number_over_factorial(k) * p) if k % 2 else 0.0)
            p *= (k + 1) / q
        self._p = p
        return values


def _tail_term_list(
    zc: complex,
    q: float,
    layer: int,
    cache: CoefficientCache,
    k_hi: int,
    weights: _TailWeights | None = None,
    stop_below: float = 0.0,
    k_min: int = 2,
) -> tuple[list[complex], int]:
    """Tail terms -1/2 * E_k(0) * g_layer(k) * q^(-z-k) for k = 2..k_hi, and
    the list index (k - 2) of the first smallest nonzero term at k >= k_min
    (what ``optimal_truncation_index`` finds there), or the list length if
    there is none.

    The terms vanish at even k, where E_k(0) = 0.  Coefficients whose
    magnitude sits below the rounding noise of their own computation are
    snapped to exact zero: they are exact zeros of the coefficient family
    (these occur at negative integer z), and a noise value must not
    masquerade as the smallest term of the expansion.

    With ``stop_below`` > 0 the list is built in chunks and ends at the
    second of two successive nonzero terms at k >= k_min that both lie

    * below ``stop_below`` (the rounding stop): the caller sets that level
      under the rounding floor of the sum, where later terms cannot change
      a double; or
    * above 10 times the smallest term so far while the weights
      w_k = -1/2 * E_k(0)/q^k grow, |w_k| > |w_(k-2)| (the smallest-term
      stop).  The weights grow once k exceeds about pi*q.  Before that, a
      near-zero coefficient can make a term dip far below the terms after
      it, which fall to the true minimum later (z = -2.9157946501335568,
      q = 10.536338620494451, layer 5: a dip at k = 13, terms 90 times it
      after, the minimum at k = 35); the weight gate keeps such a dip from
      ending the list.

    A dip past the stop is not seen.  At z = -33/7, q = 10.37, layer 6 the
    full list's smallest term is at k = 59, behind terms 14 times the k = 39
    minimum, and the stopped list ends at k = 57; ``_expansion`` builds that
    tail (orders m >= 6) only to k = 21, where its rounding stop fires, so
    no result changes.  At z = -1.5, q from about 10.2 to 10.6, layer 7 the
    full list plans at k = 59 behind terms up to 84 times the k = 35 minimum,
    where the stopped list plans: orders 7 and 8 move by about 1e-9, far
    inside their estimates of 1e-6 and 3e-5.  Without ``stop_below``, and
    when no stop fires, the list runs to k_hi.
    """
    if k_hi > K_MAX:
        raise CapacityError(f"tail index {k_hi} exceeds the exact table capacity {K_MAX}")
    weights = weights or _TailWeights(q)
    qmz = _power(q, -zc)
    watch = stop_below > 0.0
    out: list[complex] = []
    best, best_mag = None, math.inf
    below = above = 0
    start = 2
    while start <= k_hi:
        end = min(start + _TAIL_CHUNK - 1, k_hi) if watch else k_hi
        w = weights.upto(end)
        g_row, mag_row = cache.rows(layer, end)
        for k in range(start, end + 1):
            if not k % 2:
                out.append(0j)
                continue
            g = g_row[k]
            if abs(g) <= _SNAP * mag_row[k]:
                g = 0.0
            term = w[k] * g * qmz
            out.append(term)
            if k < k_min or not term:
                continue
            mag = abs(term)
            if mag < best_mag:
                best, best_mag = k - 2, mag
            if watch:
                below = below + 1 if mag < stop_below else 0
                above = above + 1 if mag > 10.0 * best_mag and abs(w[k]) > abs(w[k - 2]) else 0
                if below == 2 or above == 2:
                    return out, best
        start = end + 1
    return out, len(out) if best is None else best


def _plan_tail(
    terms: list[complex], policy: TruncationPolicy, best: int, split: int
) -> tuple[list[complex], float]:
    """Apply the truncation policy to a tail term list.

    ``terms[i]`` is the tail term at index k = i + 2, the first ``split``
    terms are an exact block that is always kept, and ``best`` is the index
    of the smallest nonzero term after that block, as ``_tail_term_list``
    returns it.  Returns the kept prefix and the magnitude of the first
    omitted nonzero term (the classical error heuristic for a divergent
    expansion).
    """
    if policy.mode == "optimal":
        return terms[:best], abs(terms[best]) if best < len(terms) else 0.0
    keep = min(max(split, policy.fixed_n - 1), len(terms))
    return terms[:keep], next((abs(t) for t in terms[keep:] if t), 0.0)


def _float_floor(zc: complex, q: float, scale: float) -> float:
    """Rounding floor for values assembled from powers q^(-z-k).

    A complex power goes through exp, which amplifies the rounding of its
    argument, so each power carries a relative error of order
    |z log q| * eps on top of the accumulation noise and the floor scales
    accordingly.  A real power is good to about an ulp (see ``_power``),
    so at real z the floor is the accumulation noise alone.
    """
    if zc.imag == 0.0:
        return _EPS * scale
    return _EPS * (1.0 + abs(zc) * abs(math.log(q))) * scale


def _sum_with_scale(parts: list[complex]) -> tuple[complex, float]:
    """Exactly rounded sum of the parts and the sum of their magnitudes."""
    return complex_fsum(parts), math.fsum(map(abs, parts))


# ---------------------------------------------------------------------------
# Accelerated direct series (the oracle route)


def zeta_series(z, q: float, m: int = 0, tol: float = 1e-12) -> EvalResult:
    """Sum (-1)^n (-log(n+q))^m (n+q)^(-z) with Chebyshev acceleration.

    Uses the Cohen-Rodriguez Villegas-Zagier scheme; the a-priori error
    heuristic is (3 + sqrt(8))^(-T) relative to the term scale for T
    acceleration terms.  Certified for Re(z) > 0; outside that half-plane
    the result carries an ``empirical continuation`` note and must be
    cross-validated before use as ground truth.

    Raises :class:`AccuracyError` (best value attached) when the term
    budget cannot reach ``tol``.
    """
    _check_q(q)
    _check_order(m)
    if not tol > 0:
        raise DomainError("tol must be positive")

    zc = complex(z)
    digits = min(30.0, max(1.0, -math.log10(tol)))
    t_needed = math.ceil(1.31 * (digits + 2.0))
    budget = _env_max_terms()
    t_used = min(t_needed, _CVZ_TERM_LIMIT if budget is None else min(budget, _CVZ_TERM_LIMIT))

    d = _CVZ_RATE ** t_used
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    terms: list[complex] = []
    a_max = 0.0
    for k in range(t_used):
        c = b - c
        base = k + q
        weight = (-math.log(base)) ** m if m else 1.0
        a_k = weight * _power(base, -zc)
        terms.append(c * a_k)
        a_max = max(a_max, abs(a_k))
        b *= (k + t_used) * (k - t_used) / ((k + 0.5) * (k + 1.0))
    value = complex_fsum(terms) / d

    scale = max(a_max, abs(value))
    estimate = 3.0 * scale * _CVZ_RATE ** (-t_used) + 4e-16 * scale
    note = None
    if zc.real <= 0:
        note = "empirical continuation: Re(z) <= 0; cross-validate before trusting"
    result = EvalResult(value, estimate, t_used, METHOD_ORACLE, note)
    if t_used < t_needed and estimate > tol * max(1.0, scale):
        raise AccuracyError(
            f"term budget {t_used} below the {t_needed} acceleration terms needed for tol={tol:g}",
            best=result,
            achieved=estimate,
        )
    return result


# ---------------------------------------------------------------------------
# Large-q expansions


def _expansion(zc: complex, q: float, m: int, policy: TruncationPolicy | None) -> list[EvalResult]:
    """Large-q expansions of orders 0..m in one pass.

    Order i is q^(-z)/2 (i = 0 only) + g_i(1) q^(-z-1)/4
    - sum_{j=1}^{i} C(i, j) value_{i-j} log^j q minus the E_k(0)-weighted
    tail on layer i; the g_i(1) head is the k = 1 tail term, nonzero only
    for i <= 1.  At z = -n the rising factorials (z)_j vanish for j > n:
    the order-0 tail terminates at k = n and is exact up to rounding,
    whatever the policy, and for i >= 1 the block k <= n is a polynomial
    in q that is summed in full, so only the tail k > n follows the
    policy.  Under the optimal policy each tail is built only down to the
    rounding floor or a little past its smallest term, whichever comes
    first, and the truncation index is found in the same pass (see
    ``_tail_term_list``); the layers and the weights E_k(0)/q^k are built
    once and shared by every order.  Each estimate is the first omitted
    term plus a rounding floor plus the lower-order estimates carried
    through the binomial-log weights; terms_used is cumulative.
    """
    policy = policy or TruncationPolicy()
    n = _as_nonpos_int(zc)
    if n is not None and n > K_MAX:
        raise CapacityError(f"terminating expansion needs n <= {K_MAX}, got n={n}")
    qmz = _power(q, -zc)
    log_q = math.log(q)
    cache = CoefficientCache(zc)
    weights = _TailWeights(q)
    cap = policy.scan_limit(q)
    split = 0  # tail terms k = 2..split+1 form the exact block
    if n is not None:
        cap, split = max(cap, n + 2), max(0, n - 1)
    stop = _ROUNDING_STOP if policy.mode == "optimal" else 0.0
    results: list[EvalResult] = []
    for i in range(m + 1):
        heads = [0.5 * qmz] if i == 0 else []
        heads.append(0.25 * cache.layer(i, 1) * qmz / q)
        heads += [-math.comb(i, j) * results[i - j].value * log_q**j for j in range(1, i + 1)]
        if i == 0 and n is not None:
            kept, omitted = _tail_term_list(zc, q, 0, cache, n, weights)[0], 0.0
        else:
            stop_below = stop * sum(map(abs, heads))
            terms, best = _tail_term_list(zc, q, i, cache, cap, weights, stop_below, 2 + split)
            kept, omitted = _plan_tail(terms, policy, best, split)
        value, scale = _sum_with_scale(heads + kept)
        estimate = omitted + _float_floor(zc, q, scale + abs(value))
        for j in range(1, i + 1):
            estimate += math.comb(i, j) * abs(log_q) ** j * results[i - j].error_estimate
        used = (results[-1].terms_used if results else 2) + len(kept)
        results.append(EvalResult(value, estimate, used, METHOD_ASYMPTOTIC))
    return results


def _direct(zc: complex, q: float, m: int, policy: TruncationPolicy | None) -> EvalResult:
    """Order m of the expansion under the failure rules of ``evaluate``:
    arithmetic overflow or a zero divisor raises ``CapacityError``, and a
    non-finite value comes back with an infinite estimate and a note."""
    try:
        result = _expansion(zc, q, m, policy)[m]
    except (OverflowError, ZeroDivisionError):
        raise CapacityError(f"arithmetic overflow at z={zc}, q={q}, m={m}") from None
    if cmath.isfinite(result.value):
        return result
    note = "accuracy warning: non-finite value; estimate inf"
    return result._replace(error_estimate=math.inf, note=note)


def zeta_asymptotic(z, q: float, policy: TruncationPolicy | None = None) -> EvalResult:
    """Large-q expansion of zeta(z, q): q^(-z)/2 + z q^(-z-1)/4 minus the
    E_k(0)-weighted tail, truncated by ``policy`` (exact at z = -n)."""
    _check_q(q)
    return _direct(complex(z), q, 0, policy)


def deriv1_asymptotic(z, q: float, policy: TruncationPolicy | None = None) -> EvalResult:
    """Large-q expansion of the first z-derivative: q^(-z-1)/4
    - zeta(z, q) log q minus the tail on the Pochhammer-derivative layer."""
    _check_q(q)
    return _direct(complex(z), q, 1, policy)


def deriv_m_asymptotic(z, q: float, m: int, policy: TruncationPolicy | None = None) -> EvalResult:
    """Order-m derivative (m >= 2): -sum_{j=1}^{m} C(m, j) value_{m-j}
    log^j q minus the tail on layer m, all orders under the same policy."""
    _check_q(q)
    _check_order(m)
    if m < 2:
        raise DomainError(f"this route needs m >= 2, got {m}")
    return _direct(complex(z), q, m, policy)


# ---------------------------------------------------------------------------
# Closed forms and explicit expansions at z = -n


def zeta_special_value(n: int, q: float) -> EvalResult:
    """Exact-to-rounding value at z = -n: half the Euler polynomial at q."""
    _check_q(q)
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    value = 0.5 * euler_polynomial(n, q)
    mag = 0.0
    for c in _euler_polynomial_float_coefficients(n):
        mag = mag * q + abs(c)
    return EvalResult(complex(value), _EPS * (0.5 * mag + abs(value)), 0, METHOD_SPECIAL)


def deriv1_neg_int_constant_term(n: int) -> Fraction:
    """Exact log-free constant in the explicit expansion of the first
    derivative at z = -n (for n = 3 this is -11/48)."""
    from fractions import Fraction

    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if n == 0:
        return Fraction(0)
    if n == 1:
        return Fraction(1, 4)
    return Fraction(-1, 2) * euler_number_at_zero(n) * alternating_binomial_partial_sum(n, n)


def _check_neg_int(n: int, q: float) -> None:
    _check_q(q)
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    if n > K_MAX:
        raise CapacityError(f"n={n} exceeds the exact table capacity {K_MAX}")


def deriv1_at_neg_int(n: int, q: float, policy: TruncationPolicy | None = None) -> EvalResult:
    """Explicit first-derivative expansion at z = -n: order 1 of the one
    expansion, q^(n-1)/4 - E_n(q) log(q)/2 minus the layer-1 tail.

    At z = -n the coefficient g_1(k) is the binomial sum
    sum_{j<=min(n, k-1)} C(n, j) (-1)^j / (k-j): a partial sum for k <= n
    (the exact polynomial block, summed in full) and
    (-1)^n n! / (k (k-1) ... (k-n)) for k > n (the asymptotic tail, the
    only part subject to the truncation policy).
    """
    _check_neg_int(n, q)
    return _direct(complex(-n), q, 1, policy)._replace(method=METHOD_NEG_INT)


def deriv2_at_neg_int(n: int, q: float, policy: TruncationPolicy | None = None) -> EvalResult:
    """Explicit second-derivative expansion at z = -n: order 2 of the one
    expansion, -2 * deriv1 * log q - E_n(q) log^2(q) / 2 minus the layer-2
    tail, its k <= n block summed in full and the rest under the policy.
    At n = 0 this is log^2(q)/2 - log(q)/(2q) plus the series
    sum_k E_k(0) [log(q)/k - H_(k-1)/k] q^(-k).
    """
    _check_neg_int(n, q)
    return _direct(complex(-n), q, 2, policy)._replace(method=METHOD_NEG_INT)


# ---------------------------------------------------------------------------
# Shift reduction and dispatch


def _shift_terms(zc: complex, q: float, m: int, q_threshold: float):
    """Partial sum, its absolute term scale, step count for the reduction."""
    steps = max(0, math.ceil(q_threshold - q))
    terms: list[complex] = []
    for j in range(steps):
        base = q + j
        weight = (-math.log(base)) ** m if m else 1.0
        sign = -1.0 if j % 2 else 1.0
        terms.append(sign * weight * _power(base, -zc))
    value, scale = _sum_with_scale(terms)
    return value, scale, steps


def shift_reduce(z, q: float, m: int = 0, q_threshold: float = 10.0):
    """Push q above a threshold through the reflection identity.

    Returns (partial_sum, shifted_q, sign) with shifted_q = q + M,
    M = ceil(q_threshold - q) (zero when q already meets the threshold), so
    that deriv_m(z, q) = partial_sum + sign * deriv_m(z, shifted_q) with
    sign = (-1)^M.  The partial sum is the explicit alternating block
    sum_{j<M} (-1)^j (-log(q+j))^m (q+j)^(-z).
    """
    _check_q(q)
    _check_order(m)
    zc = complex(z)
    value, _, steps = _shift_terms(zc, q, m, q_threshold)
    return value, q + float(steps), (-1 if steps % 2 else 1)


def evaluate(request: EvalRequest, policy: TruncationPolicy | None = None) -> EvalResult:
    """Strategy dispatcher.

    Order: exact closed form at z = -n with m = 0; the asymptotic family
    when q is already in the large-q regime; otherwise shift-reduce up to
    the regime threshold and evaluate there.  The accelerated series is
    consulted only when the expansion cannot meet the requested accuracy
    and Re(z) > 0.  A result that still misses the target carries an
    explicit accuracy note; it is never silent.
    """
    policy = policy or TruncationPolicy()
    zc = complex(request.z)
    tol = request.target_accuracy
    try:
        result = _dispatch(zc, request.q, request.m, tol, policy)
    except OverflowError:
        raise CapacityError(
            f"arithmetic overflow at z={zc}, q={request.q}, m={request.m}"
        ) from None

    # The error of a non-finite value is unbounded, and NaN passes no test.
    estimate = result.error_estimate if cmath.isfinite(result.value) else math.inf
    if not estimate <= tol:
        result = result._replace(
            error_estimate=estimate,
            note=f"accuracy warning: target {tol:g} not met; estimate {estimate:.3e}",
        )
    return result


def _dispatch(zc: complex, q: float, m: int, tol: float, policy: TruncationPolicy) -> EvalResult:
    n = _as_nonpos_int(zc)
    if n is not None and m == 0 and n <= K_MAX:
        return zeta_special_value(n, q)
    threshold = regime_threshold(zc)
    if q >= threshold:
        result = _expansion(zc, q, m, policy)[m]
    else:
        partial, partial_scale, steps = _shift_terms(zc, q, m, threshold)
        shifted_q = q + float(steps)
        sign = -1.0 if steps % 2 else 1.0
        base = _expansion(zc, shifted_q, m, policy)[m]
        value = partial + sign * base.value
        estimate = base.error_estimate + _float_floor(zc, shifted_q, partial_scale + abs(value))
        result = EvalResult(value, estimate, base.terms_used + steps, METHOD_SHIFTED)
    if result.error_estimate > tol and zc.real > 0:
        try:
            alt = zeta_series(zc, q, m, tol)
        except AccuracyError as err:
            alt = err.best
        if alt is not None and alt.error_estimate < result.error_estimate:
            result = alt
    return result
