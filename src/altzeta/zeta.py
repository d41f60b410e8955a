"""Evaluators for the alternating Hurwitz zeta function and its derivatives.

The function is zeta(z, q) = sum_{n>=0} (-1)^n / (n + q)^z for real q > 0,
entire in z by analytic continuation, together with its partial derivatives
in z of order m.  Three independent routes are implemented and cross-checked
against each other:

* ``zeta_series``: the defining series accelerated with the
  Cohen-Rodriguez Villegas-Zagier Chebyshev scheme; convergent for
  Re(z) > 0 and usable (flagged) as an empirical continuation elsewhere.
* ``zeta_asymptotic`` / ``deriv1_asymptotic`` / ``deriv_m_asymptotic``:
  entry points to the divergent large-q expansion of order m, with
  fixed-length or smallest-envelope truncation.  Its tail coefficients
  E_k(0) d^m/dz^m [(z)_k/k! q^(-z-k)] are the z-Taylor coefficients of one
  product, so one pass over k carries the jet (z+eps)_k/k! to order eps^m
  (Taylor arithmetic in z, as in Johansson, Numer. Algorithms 69 (2015))
  and serves order m directly, with one truncation index.
* ``zeta_special_value`` / ``deriv1_at_neg_int`` / ``deriv2_at_neg_int``:
  the closed form at z = -n, and the explicit first- and second-derivative
  expansions there, which are orders 1 and 2 of the same expansion: at
  z = -n its tail splits into a block k <= n, a polynomial in q summed in
  full, and an asymptotic tail k > n under the policy.

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

from .coefficients import alternating_binomial_partial_sum, pochhammer_jets
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
#: Under the optimal policy the tail ends once two successive nonzero
#: envelopes lie below this fraction of the envelope sum before them: under
#: 1% of the rounding floor of the sum, so later terms cannot change a
#: double (the smallest envelope sits there or beyond).
_ROUNDING_STOP = 2.0**-60


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

    Each tail term k of the order-m expansion has an envelope, the sum of
    the magnitudes of the products that make it up; unlike the term it
    does not cross zero in k.  ``optimal`` stops just before the term with
    the smallest envelope; that envelope, or the next odd one if larger, is
    the truncation estimate.  ``fixed`` keeps the head and tail indices
    1..``fixed_n`` (at order m at least 1..m-1) and builds the tail through
    index fixed_n + 2, so the first omitted term is seen.  The
    optimal scan reaches at most 2*ceil(pi*q) + 10, which always covers the
    smallest-envelope index at double precision.  It ends earlier at the
    rounding floor, once two successive nonzero envelopes lie below 2^-60
    times the envelope sum before them (no later term can change the
    double result), or just past the smallest envelope, once two successive
    ones exceed 10 times it while the weights E_k(0)/q^k grow (the terms
    diverge from there on).
    """

    __slots__ = ()

    def __new__(cls, mode="optimal", fixed_n=None):
        if mode not in ("optimal", "fixed"):
            raise DomainError(f"unknown truncation mode {mode!r}")
        if mode == "fixed":
            if not isinstance(fixed_n, int) or isinstance(fixed_n, bool):
                raise DomainError(f"fixed truncation needs an int fixed_n, got {fixed_n!r}")
            if fixed_n < 0:
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
        # Reach k = 3, the first tail index past k = 1 with E_k(0) != 0.
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
    if not a_max:  # every power underflowed to zero: no digit of the value is left
        estimate = math.inf
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


def _jet_tail(
    zc: complex,
    q: float,
    m: int,
    k_hi: int,
    k_min: int = 1,
    stop: float = 0.0,
    fixed: int | None = None,
) -> tuple[list[complex], list[float], int | None]:
    """Terms of the order-m expansion divided by q^(-z), their envelopes,
    and the truncation index K.

    ``terms[0]`` is the head (-log q)^m / 2 and, for k = 1..k_hi,
    ``terms[k]`` = w_k sum_j c_j P_k[j] with c_j = m!/(m-j)! (-log q)^(m-j):
    m! times the coefficient of eps^m in w_k P_k(eps) q^(-eps), with the
    jets P_k of ``pochhammer_jets`` and the weights w_1 = 1/(4q) and
    w_k = -1/2 E_k(0)/q^k, zero at even k.  ``bounds[k]`` =
    |w_k| sum_j |c_j| |P_k[j]| is the envelope of term k: it bounds the
    term and the rounding of its dot product, and unlike the term it does
    not cross zero in k.

    The sum may end before any odd k >= k_min, unless sum_j |c_j| |P_k[j]|
    vanishes while the jet does not (at q = 1 only c_m is nonzero, and
    P_k[m] = 0 for k < m), a zero that says nothing of the terms after it.
    Where the jet itself vanishes (z = -n, m = 0, k > n) every later term
    is an exact zero, and K is that k.  Otherwise K is the first such k
    past ``fixed`` (the fixed policy; the last one built if the lists end
    first) or, without ``fixed``, the first one with the smallest envelope
    among those with k + 2 <= k_hi, so that the envelope after K is built
    unless a stop ends the lists first; K is None if the lists hold none.

    Without ``fixed`` and with ``stop`` > 0 the lists end at the second of
    two successive nonzero envelopes at k >= k_min that both lie

    * below ``stop`` times the envelope sum before them (the rounding
      stop): no later term can change the double result; or
    * above 10 times the smallest envelope so far while the weights grow,
      |w_k| > |w_(k-2)| (the smallest-term stop).  The weights grow once k
      exceeds about pi*q; before that an envelope can dip below the ones
      after it (z = -7.5, q = 2, m = 7: the envelope at k = 1 lies under a
      hump 21 times it, and the smallest one is at k = 15), and the weight
      gate keeps such a dip from ending the lists.

    Otherwise the lists run to k_hi.
    """
    if k_hi > K_MAX:
        raise CapacityError(f"tail index {k_hi} exceeds the exact table capacity {K_MAX}")
    log_q = -math.log(q)
    c = [math.factorial(m) // math.factorial(m - j) * log_q ** (m - j) for j in range(m + 1)]
    abs_c = [abs(x) for x in c]
    head = 0.5 * c[0]
    terms, bounds = [head], [abs(head)]
    w_prev, power = 0.0, 2.0 / (q * q)  # k!/q^k at k = 2
    total, best, best_b = abs(head), None, math.inf
    below = above = 0
    jets = pochhammer_jets(zc, m)
    next(jets)
    for k, jet in zip(range(1, k_hi + 1), jets):
        if k % 2:
            w = 0.25 / q if k == 1 else -0.5 * euler_number_over_factorial(k) * power
            envelope = sum([a * abs(x) for a, x in zip(abs_c, jet)])
            term, b = w * sum([cj * x for cj, x in zip(c, jet)]), abs(w) * envelope
        else:
            w, envelope, term, b = w_prev, 0.0, 0j, 0.0
        if k > 1:
            power *= (k + 1) / q
        terms.append(term)
        bounds.append(b)
        if k >= k_min and k % 2 and (envelope or not any(jet)):
            if not envelope:  # the jet vanished: every later term is an exact zero
                return terms, bounds, k
            if fixed is not None:
                best = k
                if k > fixed:
                    break
            else:
                if b < best_b and k + 2 <= k_hi:
                    best, best_b = k, b
                below = below + 1 if b < stop * total else 0
                above = above + 1 if b > 10.0 * best_b and abs(w) > abs(w_prev) else 0
                if stop and (below == 2 or above == 2):
                    break
        total += b
        w_prev = w
    return terms, bounds, best


def _expansion(zc: complex, q: float, m: int, policy: TruncationPolicy | None) -> EvalResult:
    """Order m of the large-q expansion, from one pass over k.

    The value is q^(-z) times the sum of the first K terms of ``_jet_tail``
    (the head and k = 1..K-1), K chosen by the policy there among the odd
    k >= m, and k > n at z = -n, where the tail k <= n is a polynomial in
    q, summed in full whatever the policy.  Before k = m the envelope lacks
    the layer-m part c_m P_k[m] (P_k[m] = 0 for k < m), which is all of it
    at q = 1 and most of it near q = 1, where c_j, j < m, carries
    (log q)^(m-j).  The scan reaches ``policy.scan_limit``, and two indices
    past the first odd k allowed, so under fixed:N the first omitted term
    is seen unless the scan cap falls short of index N + 1, and then K is
    the last term the scan builds.  The estimate is the larger of the
    envelopes at K and at the next odd index, where built: a coefficient
    can vanish at K (g_2(7) = 0 at z = -3, left as rounding noise in
    floats), and near q = 1 little else is left of the envelope there.  A
    rounding floor over the envelope sum of the kept terms is added
    (the estimate is infinite if no term past the kept ones was built, or
    if q^(-z) underflows); terms_used is K.
    """
    policy = policy or TruncationPolicy()
    n = _as_nonpos_int(zc)
    if n is not None and n > K_MAX:
        raise CapacityError(f"terminating expansion needs n <= {K_MAX}, got n={n}")
    qmz = _power(q, -zc)
    k_min = max(1, m) if n is None else max(n + 1, m)
    cap = min(max(policy.scan_limit(q), (k_min | 1) + 2), K_MAX)
    fixed = policy.fixed_n if policy.mode == "fixed" else None
    terms, bounds, K = _jet_tail(zc, q, m, cap, k_min, _ROUNDING_STOP, fixed)
    if K is None:
        K, omitted = len(terms), math.inf
    else:
        omitted = abs(qmz) * max(bounds[K : K + 3])
    value = qmz * complex_fsum(terms[:K])
    scale = abs(qmz) * math.fsum(bounds[:K])
    estimate = omitted + _float_floor(zc, q, scale + abs(value))
    if not qmz:  # q^(-z) underflowed to zero: not one digit of the value is left
        estimate = math.inf
    return EvalResult(value, estimate, K, METHOD_ASYMPTOTIC)


def _direct(zc: complex, q: float, m: int, policy: TruncationPolicy | None) -> EvalResult:
    """Order m of the expansion under the failure rules of ``evaluate``:
    arithmetic overflow or a zero divisor raises ``CapacityError``, and a
    non-finite value comes back with an infinite estimate and a note."""
    try:
        result = _expansion(zc, q, m, policy)
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
    """Order-m derivative (m >= 2): q^(-z) times the head (-log q)^m / 2
    plus the tail w_k sum_j c_j P_k[j], c_j = m!/(m-j)! (-log q)^(m-j),
    from one pass of the Pochhammer jets P_k, truncated by ``policy``."""
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
        result = _expansion(zc, q, m, policy)
    else:
        partial, partial_scale, steps = _shift_terms(zc, q, m, threshold)
        shifted_q = q + float(steps)
        sign = -1.0 if steps % 2 else 1.0
        base = _expansion(zc, shifted_q, m, policy)
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
