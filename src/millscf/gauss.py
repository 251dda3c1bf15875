"""Gaussian Mills ratio R(x) = (1 - Phi(x))/phi(x) via its Laplace fraction.

R solves R'(x) = x R(x) - 1 with R(0) = sqrt(pi/2) and expands, for x > 0, as

    R(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...)))),

whose depth-(n+1) truncation with the final denominator x replaced by a
positive tail beta_n(x) is the modified approximation

    R_n(x) = 1/(x + 1/(x + 2/(x + ... + n/beta_n(x)))).

The error functional Delta_n(x) = integral_x^inf phi(u) du - phi(x) R_n(x)
satisfies Delta_n(x) = integral_x^inf phi(u) delta_n(u) du with the integrand

    delta_n(u) = 1 + R_n'(u) - u R_n(u),

and delta_n factors through the tail as

    delta_n(u) = ((-1)^(n-1) n! / D_n(u)^2) * (u beta + beta' + n - beta^2),

where D_n is the modified denominator beta B_n + n B_{n-1} of R_n.  So the
sign of delta_n is read off the quadratic operator in beta alone (the last
factor, sign_operator below), which is how bracketing statements are proved
for the families in tails.py.

Indexing: the public n counts the largest numerator of the terminating
fraction, so n = 0 is 1/beta_0(x) and the classic (beta = x) member at n
equals the engine's depth-(n+1) convergent.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .cf import (_LEVEL_HEADROOM, _RESCALE_FACTOR, _RESCALE_LIMIT,
                 _RESCALE_SHIFT, CFEvaluationError, CFSpec)
from .tails import _is_array, get_family

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_LOG2 = math.log(2.0)
# a truncation bound below the smallest positive double rounds up to it,
# so an underflowing bound stays strict instead of becoming 0
_TINY = math.ulp(0.0)


def phi(x):
    """Standard normal density; x may be a numpy array."""
    if isinstance(x, float) or not _is_array(x):
        return math.exp(-0.5 * x * x) / SQRT_TWO_PI
    import numpy as np

    # past |x| = 1.3e154 the square overflows to inf, and exp(-inf) = 0 is
    # the density there, as math gives it
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * x * x) / SQRT_TWO_PI


def laplace_spec():
    """The Gaussian Mills fraction: a = 1, 1, 2, 3, ...; all b = x."""
    return CFSpec(
        a=lambda k, x: 1.0 if k == 1 else float(k - 1),
        b=lambda k, x: x,
        name="laplace",
    )


def lcf_spec():
    """The same fraction in v = 1/x^2; its value is x R(x), not R(x).

    a_1 = 1, a_k = (k-1) v for k >= 2, all b = 1.  The equivalence transform
    with p(k) = x carries this into laplace_spec times x.
    """
    return CFSpec(
        a=lambda k, v: 1.0 if k == 1 else (k - 1) * v,
        b=lambda k, v: 1.0,
        name="lcf",
    )


@dataclass(frozen=True)
class Approximation:
    """One evaluated Mills approximation with its bound metadata."""

    value: float
    n: int
    family: str
    bound_side: str               # "upper" | "lower" | "unknown"
    trunc_bound: Optional[float]  # classic only


def _check_point(fam, n, x):
    if n < 0:
        raise ValueError("n must be >= 0")
    if fam.kind == "classic":
        if x <= 0.0:
            raise ValueError("the classic tail needs x > 0")
    elif x < 0.0:
        raise ValueError("modified tails are defined for x >= 0")
    elif fam.kind == "limit-ansatz" and n == 0 and x == 0.0:
        raise ValueError("limit-ansatz with n = 0 vanishes at x = 0")


# With x in [2^-1000, 2^1000], a tail of at least 2^-1000 and n below 2^20,
# no step of the fold can overflow or divide by zero: every denominator after
# the tail is x + k/t > x, so no quotient k/t passes 2^1020.  Only a fold
# outside that box pays for a check at every level.
_FOLD_LO = 2.0 ** -1000
_FOLD_HI = 2.0 ** 1000
_FOLD_MAX_N = 2 ** 20


def _zero_level(k):
    return CFEvaluationError(
        f"zero denominator while folding level {k + 1} of spec 'laplace'")


def _overflow(n, x, k):
    return OverflowError(
        f"level {k + 1} of the fold for R_{n}({x!r}) overflows a double")


def _fold(x, n, t):
    """R_n from its tail t: t <- x + k/t for k = n, ..., 1, then 1/t.

    The arithmetic and checks of cf.eval_backward(laplace_spec(), x, n + 1, t),
    on a float or elementwise on a 1-D numpy array of x (and t); x must be
    finite at n = 0 too, where eval_backward never reads it.

    A level that overflows raises OverflowError, where eval_backward folds
    the inf on into a wrong 0, inf or finite value (at x = 5e-324 the classic
    R_1 would come out 0).  Only the last step 1/t may overflow: R_n then
    exceeds the largest double and is returned as inf, as truncation_bound
    returns a bound past it.
    """
    if not isinstance(x, float) and _is_array(x):
        return _fold_grid(x, n, t)
    t = float(t)
    if not (math.isfinite(x) and math.isfinite(t)):
        raise CFEvaluationError("non-finite x or tail")
    if _FOLD_LO <= x <= _FOLD_HI and t >= _FOLD_LO and n < _FOLD_MAX_N:
        for k in range(n, 0, -1):
            t = x + k / t
        return 1.0 / t
    try:
        for k in range(n, 0, -1):
            t = x + k / t
            if math.isinf(t):
                raise _overflow(n, x, k)
        k = 0
        return 1.0 / t
    except ZeroDivisionError:
        raise _zero_level(k) from None


def _fold_grid(x, n, t):
    """_fold on a 1-D numpy array of x (and t), checked at every level."""
    import numpy as np

    if not (np.isfinite(x).all() and np.isfinite(t).all()):
        raise CFEvaluationError("non-finite x or tail")
    # the explicit check is the overflow signal, not numpy's warning
    with np.errstate(over="ignore"):
        for k in range(n, -1, -1):
            if not np.all(t):
                raise _zero_level(k)
            t = x + k / t if k else 1.0 / t
            if k and np.isinf(t).any():
                raise _overflow(n, float(x[np.argmax(np.isinf(t))]), k)
    return t


def mills_grid(x, n, family="improved-expo"):
    """R_n over a 1-D numpy array of x: the values of mills(), without metadata.

    Equal to mills() point by point, except where numpy's exp in a tail
    differs from math.exp by an ulp.
    """
    import numpy as np

    fam = get_family(family)
    x = np.asarray(x, dtype=float)
    _check_point(fam, n, x.min())
    # a tail past the largest double is inf, which the fold rejects as on
    # the scalar route
    with np.errstate(over="ignore"):
        t = fam.value(n, x)
    return _fold_grid(x, n, t)


def _bound_side(fam, n):
    if fam.bound_side == "alternating":
        return "upper" if n % 2 == 0 else "lower"
    return "unknown"


def mills(x, n, family="improved-expo"):
    """R_n(x) for the given tail family, with bound side and classic bound.

    bound_side is only claimed for families with proven alternation
    (classic, sqrt, linear): even n from above, odd n from below.
    """
    fam = get_family(family)
    _check_point(fam, n, x)
    value = _fold(x, n, fam.value(n, x))
    bound = truncation_bound(x, n) if fam.kind == "classic" else None
    return Approximation(value=value, n=n, family=fam.kind,
                         bound_side=_bound_side(fam, n), trunc_bound=bound)


def hazard(x):
    """phi(x)/(1 - Phi(x)), the reciprocal of the reference Mills ratio.

    Backed by the oracle, not by a terminated fraction: the hazard is the
    quantity the approximations get compared against.  For x >= 1 it lies
    between x and x + 1/x (the two shallowest classic convergents of R).
    """
    from . import reference  # imported here to avoid an import cycle

    return 1.0 / reference.reference_mills(x)


def truncation_bound(x, n):
    """n! / (B_n B_{n+1}) for the classic fraction, in log space.

    Strictly dominates |R - R_n| for every x > 0.  B is the denominator
    sequence B_0 = 1, B_1 = x, B_{k+1} = x B_k + k B_{k-1} of the classic
    fraction, kept under 2**500 by power-of-two rescaling whose exponent
    re-enters through the logarithm.  A bound past the largest double is
    returned as inf, one below the smallest positive double as that double.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"truncation bound needs 0 < x < inf, got x={x!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    # cf.forward_recurrence's rescaling on B alone (B_{2j} >= 1 never
    # underflows; A, which it also watches, stays below B for x >= 1).
    # Level k + 1 has numerator k; level 1's numerator 1 meets B_prev = 0.
    B_prev, B = 0.0, 1.0
    scale = 0
    for k in range(n + 1):
        if x + k > _LEVEL_HEADROOM:
            B, B_prev = B * _RESCALE_FACTOR, B_prev * _RESCALE_FACTOR
            scale += _RESCALE_SHIFT
        B, B_prev = x * B + k * B_prev, B
        if B > _RESCALE_LIMIT:
            B, B_prev = B * _RESCALE_FACTOR, B_prev * _RESCALE_FACTOR
            scale += _RESCALE_SHIFT
    log_bound = (math.lgamma(n + 1.0) - math.log(B) - math.log(B_prev)
                 - 2.0 * scale * _LOG2)
    try:
        return max(math.exp(log_bound), _TINY)
    except OverflowError:
        return math.inf


def mills_derivatives(u, n, family="improved-expo"):
    """(R_n, R_n', R_n'') at u, by differentiating the backward recursion.

    Every denominator level is u itself (unit derivative), the numerators are
    constants, and the tail contributes its own three derivatives, so each
    fold t <- u + k/t maps (t, t', t'') exactly.
    """
    fam = get_family(family)
    _check_point(fam, n, u)
    t = fam.value(n, u)
    t1 = fam.deriv(n, u)
    t2 = fam.second_deriv(n, u)
    for k in range(n, 0, -1):
        if t == 0.0:
            raise ZeroDivisionError(f"tail chain vanished under numerator {k}")
        s = u + k / t
        s1 = 1.0 - k * t1 / (t * t)
        s2 = -k * t2 / (t * t) + 2.0 * k * t1 * t1 / (t * t * t)
        t, t1, t2 = s, s1, s2
    # top level: R = 1/t
    r = 1.0 / t
    r1 = -t1 / (t * t)
    r2 = -t2 / (t * t) + 2.0 * t1 * t1 / (t * t * t)
    return r, r1, r2


def error_integrand(u, n, family="improved-expo"):
    """delta_n(u) = 1 + R_n'(u) - u R_n(u); identically 0 iff R_n is exact."""
    r, r1, _ = mills_derivatives(u, n, family)
    return 1.0 + r1 - u * r


def second_error_integrand(u, n, family="improved-expo"):
    """delta_n''-type operator: R_n'' - 2u R_n' + (u^2 - 1) R_n - u."""
    r, r1, r2 = mills_derivatives(u, n, family)
    return r2 - 2.0 * u * r1 + (u * u - 1.0) * r - u


def sign_operator(u, n, family="improved-expo"):
    """u beta + beta' + n - beta^2: carries the sign of delta_n.

    sign(delta_n(u)) = (-1)^(n-1) sign(sign_operator) wherever the operator
    is nonzero; the positive factor n!/D_n(u)^2 never flips it.
    """
    fam = get_family(family)
    _check_point(fam, n, u)
    b = fam.value(n, u)
    b1 = fam.deriv(n, u)
    return u * b + b1 + n - b * b


def delta(x, n, family="improved-expo"):
    """Delta_n(x) = reference tail minus phi(x) R_n(x).

    x may be a 1-D numpy array: the grid then goes through the array oracle
    and one fold over the array instead of a call per point.
    """
    from . import reference  # imported here to avoid an import cycle

    fam = get_family(family)
    if not isinstance(x, float) and _is_array(x):
        # the oracle before the fold, as on a float, so that both routes
        # raise the same error for the same x
        pdf = phi(x)
        ref = reference.reference_mills_grid(x)
        return pdf * ref - pdf * mills_grid(x, n, fam)
    _check_point(fam, n, x)
    return reference.reference_tail(x) - phi(x) * _fold(x, n, fam.value(n, x))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the paper's scan grid: [xmin, 20] at step 1e-3
_SCAN_XMAX = 20.0
_SCAN_STEP = 1e-3


# a multi-depth scan asks for the same grid at every depth; one entry is
# three 20001-point arrays (about 0.5 MB)
@lru_cache(maxsize=4)
def _reference_grid(xmin):
    """(xs, phi(xs), phi(xs) R(xs)) of a scan grid, computed once and read-only."""
    import numpy as np

    from . import reference  # imported here to avoid an import cycle

    step = _SCAN_STEP
    xs = xmin + np.arange(int(round((_SCAN_XMAX - xmin) / step)) + 1) * step
    pdf = phi(xs)
    tail = pdf * reference.reference_mills_grid(xs)
    for v in (xs, pdf, tail):
        v.flags.writeable = False
    return xs, pdf, tail


def scan_max_delta(family, n, xmin=0.0):
    """(argmax, max) of |Delta_n| on [xmin, 20]: grid scan plus golden section.

    The grid has step 1e-3 and is evaluated in one array call, with the
    reference tail computed once per xmin and shared by every depth and
    family scanned on it; the bracketing interval around the best grid point
    (the first, on ties) is narrowed to 1e-8 by golden-section search.  xmin
    exists for the classic family, whose tail is undefined at 0.
    """
    import numpy as np

    fam = get_family(family)

    def f(x):
        return abs(delta(x, n, fam))

    step, xmax = _SCAN_STEP, _SCAN_XMAX
    xs, pdf, tail = _reference_grid(xmin)
    # delta's array arithmetic on the shared reference tail
    best_i = int(np.argmax(np.abs(tail - pdf * mills_grid(xs, n, fam))))
    lo = max(xmin, xmin + (best_i - 1) * step)
    hi = min(xmax, xmin + (best_i + 1) * step)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-8:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    x_star = (lo + hi) / 2.0
    return x_star, f(x_star)


def decays_beyond(family, n):
    """True when |Delta_n| strictly decreases along x = 22, 26, 30."""
    vals = [abs(delta(x, n, family)) for x in (22.0, 26.0, 30.0)]
    return all(a > b for a, b in zip(vals, vals[1:]))


class AsymptoticResult(NamedTuple):
    value: float
    diverging: bool


def asymptotic_series(x, m):
    """Partial sum (1/x) sum_{j<=m} (-1)^j (2j-1)!!/x^(2j).

    The series is asymptotic, not convergent: once the next term would grow
    ((2m+1) > x^2) the result is flagged diverging and more terms only hurt.
    """
    if x <= 0.0:
        raise ValueError("asymptotic series needs x > 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = 0.0
    term = 1.0
    for j in range(m + 1):
        total += term
        term *= -(2 * j + 1) / (x * x)
    diverging = (2 * m + 1) > x * x
    return AsymptoticResult(total / x, diverging)


_TAYLOR_TOL = 1e-18
_TAYLOR_CAP = 200


def taylor_sum(x, tol=_TAYLOR_TOL, cap=_TAYLOR_CAP):
    """sum c_k x^k with c_0 = sqrt(pi/2), c_1 = -1, c_{k+1} = c_{k-1}/(k+1).

    The coefficient recursion is the power-series form of R' = xR - 1; the
    function is entire, so the only truncation control needed is the absolute
    term floor.
    """
    c_prev = SQRT_HALF_PI   # c_0
    c_cur = -1.0            # c_1
    total = c_prev
    xk = x                  # x^k for the current coefficient
    k = 1
    while k < cap:
        term = c_cur * xk
        total += term
        if abs(term) < tol:
            break
        c_prev, c_cur = c_cur, c_prev / (k + 1.0)
        xk *= x
        k += 1
    return total


def taylor_mills(x, m=None):
    """Series evaluation of R; kept to |x| <= 4 where cancellation is mild.

    m is the number of series terms; by default terms are taken until they
    fall below the absolute floor of taylor_sum.
    """
    if abs(x) > 4.0:
        raise ValueError("taylor_mills is restricted to |x| <= 4")
    if m is None:
        return taylor_sum(x)
    if m < 1:
        raise ValueError("m must be >= 1")
    return taylor_sum(x, tol=0.0, cap=m)


def pade_r2(x, origin_terms=1):
    """Two-point rational approximations of R with numerator degree 1.

    Both choices fix R(0) = sqrt(pi/2) exactly and behave like 1/x at
    infinity; the four available coefficients are split differently:

      origin_terms=1: one series coefficient at 0, three at infinity, i.e.
        (x + c)/(x^2 + c x + 1) with c = sqrt(pi/2), which is also
        1/(x + 1/(x + c)).  x^3 (f - 1/x) -> -1, matching R's first
        correction term; worst error about 6.0e-2 near 0.4.
      origin_terms=3: value, slope and curvature at 0 plus 1/x at infinity.
        Tightest uniform error (about 5.6e-3) but its x^3 (f - 1/x) grows
        without bound, so it tracks the tail only to first order.
    """
    if origin_terms == 1:
        c = SQRT_HALF_PI
        return (x + c) / (x * x + c * x + 1.0)
    if origin_terms == 3:
        pi = math.pi
        num = (pi - 2.0) * SQRT_TWO_PI + x * (4.0 - pi)
        den = 2.0 * (pi - 2.0) + x * SQRT_TWO_PI + x * x * (4.0 - pi)
        return num / den
    raise ValueError("origin_terms must be 1 or 3")
