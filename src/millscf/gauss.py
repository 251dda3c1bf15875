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
factor), which is how bracketing statements are proved for the families in
tails.py.  R_n's derivatives, delta_n and that operator are proof helpers in
verify.py, read by its fit-conditions and sign-identity suites; so is the
fraction's CFSpec, which this module folds in its own loop.

Indexing: the public n counts the largest numerator of the terminating
fraction, so n = 0 is 1/beta_0(x) and the classic (beta = x) member at n
equals the engine's depth-(n+1) convergent.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from . import reference
from .cf import (_LEVEL_HEADROOM, _MAX_DEPTH, _RESCALE_FACTOR, _RESCALE_LIMIT,
                 _RESCALE_SHIFT, CFEvaluationError, _check_depth)
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


@dataclass(frozen=True, slots=True, init=False)
class Approximation:
    """One evaluated Mills approximation with its bound metadata.

    A frozen, slotted record: no __dict__, so no attributes beyond the five
    fields.  Its one constructor stores each field through the field's slot
    descriptor, which costs about half of the generated keyword __init__
    (five object.__setattr__ calls) on a call that is mostly construction.
    """

    value: float
    n: int
    family: str
    bound_side: str               # "upper" | "lower" | "unknown"
    trunc_bound: Optional[float]  # classic only

    def __init__(self, value, n, family, bound_side, trunc_bound):
        _set_value(self, value)
        _set_n(self, n)
        _set_family(self, family)
        _set_bound_side(self, bound_side)
        _set_trunc_bound(self, trunc_bound)


# the slot descriptors' setters, bound once; frozen blocks only __setattr__
_set_value = Approximation.value.__set__
_set_n = Approximation.n.__set__
_set_family = Approximation.family.__set__
_set_bound_side = Approximation.bound_side.__set__
_set_trunc_bound = Approximation.trunc_bound.__set__


# With x in [2^-1000, 2^1000] and a tail t >= 2^-1000, every later t is
# x + k/t > x, and the depth rule keeps k <= 2^20, so no quotient k/t passes
# 2^1020: no step can overflow.  Only a fold outside that box checks levels.
_FOLD_LO = 2.0 ** -1000
_FOLD_HI = 2.0 ** 1000

# The level numbers 0, 1, ..., 127 as floats, for the scalar recurrences:
# k * B and k / t then take CPython's float-float paths instead of the mixed
# int-float one.  A double holds every integer below 2^53 exactly, so each
# product and quotient is the same double as with an int k.  Past the tuple
# the loops fall back to range.
_LEVELS = tuple(map(float, range(128)))


def _not_positive(fam, n, x, t):
    return ValueError(f"the {fam.kind} tail beta_{n}({x!r}) = {t!r} is not "
                      "positive; R_n needs a positive tail")


def _overflow(n, x, k):
    return OverflowError(
        f"level {k + 1} of the fold for R_{n}({x!r}) overflows a double")


def _fold(x, n, fam):
    """R_n from the family's tail t: t <- x + k/t for k = n, ..., 1, then 1/t.

    R_n's one domain check once n has passed the depth rule, in order:
    x >= 0, else ValueError; x and t = beta_n(x) finite, else
    CFEvaluationError; t > 0, else ValueError.  Every level x + k/t is then
    positive: no denominator vanishes.  The arithmetic is
    cf.eval_backward(verify._laplace_spec(), x, n + 1, t)'s, except that a
    level that overflows raises OverflowError, where eval_backward folds the
    inf on into a wrong value (the classic R_1 at x = 5e-324 came out 0).
    Only the last step 1/t may overflow: R_n then exceeds the largest double
    and is returned as inf, as truncation_bound returns a bound past it.

    A tail that overflows at a finite x past 2^1000 (improved-expo's c_n x
    near the largest double) is no error.  For n >= 1, n/t is far below half
    an ulp of x there, so every tail above 2^1000 folds to the same double
    as an infinite one; R_0 = 1/t is read off the tail at x/2 (_huge_r0).

    Inside the box the level numbers come from the float tuple _LEVELS up
    to its length, so the loop does float/float divisions; the quotients
    are the same doubles as with int levels.
    """
    if x < 0.0:
        raise ValueError(f"R_n needs x >= 0, got x={x!r}")
    t = float(fam.value(n, x))
    if not (math.isfinite(x) and math.isfinite(t)):
        if not (t == math.inf and _FOLD_HI < x < math.inf):
            raise CFEvaluationError("non-finite x or tail")
        if n == 0:
            return _huge_r0(fam, x)
    if not t > 0.0:
        raise _not_positive(fam, n, x, t)
    if _FOLD_LO <= x <= _FOLD_HI and t >= _FOLD_LO:
        for k in _LEVELS[n:0:-1] if n < len(_LEVELS) else range(n, 0, -1):
            t = x + k / t
        return 1.0 / t
    for k in range(n, 0, -1):
        t = x + k / t
        if t == math.inf:
            raise _overflow(n, x, k)
    return 1.0 / t


def _huge_r0(fam, x):
    """1/beta_0(x) for a tail past the largest double at x > 2^1000.

    A tail that grows linearly there, as every built-in one does, has
    beta_0(x) = 2 beta_0(x/2) = 4 beta_0(x/4) to the last bit, so R_0 is
    0.5/beta_0(x/2), without forming beta_0(x).  A tail failing that test
    raises.
    """
    half = float(fam.value(0, 0.5 * x))
    if not (math.isfinite(half) and half == 2.0 * float(fam.value(0, 0.25 * x))):
        raise CFEvaluationError("non-finite x or tail")
    return 0.5 / half


def mills_grid(x, n, family="improved-expo"):
    """R_n over a 1-D numpy array of x: the values of mills(), without metadata.

    _fold's checks and arithmetic on every element, with every level checked.
    Equal to mills() point by point, except where numpy's exp in a tail
    differs from math.exp by an ulp.  An empty array gives an empty array.
    """
    import numpy as np

    n = _check_depth(n, "mills_grid")
    fam = get_family(family)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"mills_grid needs a 1-D array, got shape {x.shape}")
    if (x < 0.0).any():
        raise ValueError(f"R_n needs x >= 0, got x={np.nanmin(x).item()!r}")
    # the explicit checks are the overflow signal, not numpy's warning
    with np.errstate(over="ignore"):
        t = np.broadcast_to(fam.value(n, x), x.shape)   # or one float
        huge = None
        if not (np.isfinite(x).all() and np.isfinite(t).all()):
            huge = (t == np.inf) & (x > _FOLD_HI)
            if not (np.isfinite(x) & (np.isfinite(t) | huge)).all():
                raise CFEvaluationError("non-finite x or tail")
        if not np.all(t > 0.0):
            i = int(np.argmin(t > 0.0))
            raise _not_positive(fam, n, float(x[i]), float(t[i]))
        for k in range(n, 0, -1):
            t = x + k / t
            if np.isinf(t).any():
                raise _overflow(n, float(x[np.argmax(np.isinf(t))]), k)
        t = 1.0 / t
    if n == 0 and huge is not None:
        t[huge] = [_huge_r0(fam, v) for v in x[huge].tolist()]
    return t


def _bound_side(fam, n):
    if fam.bound_side == "alternating":
        return "upper" if n % 2 == 0 else "lower"
    return "unknown"


def mills(x, n, family="improved-expo"):
    """R_n at one x for the given tail family, with bound side and classic bound.

    An array of x raises TypeError (mills_grid takes those).  bound_side is
    only claimed for families with proven alternation (classic, sqrt,
    linear): even n from above, odd n from below.
    """
    fam = get_family(family)
    if not isinstance(x, float) and _is_array(x):
        raise TypeError("mills takes one x; call mills_grid for an array")
    if not (type(n) is int and 0 <= n <= _MAX_DEPTH):   # _check_depth, inlined
        n = _check_depth(n, "mills")
    value = _fold(x, n, fam)
    bound = truncation_bound(x, n) if fam.kind == "classic" else None
    return Approximation(value, n, fam.kind, _bound_side(fam, n), bound)


# from here on the bracket (x, x + 1/x) of the hazard is at most an ulp wide
_HAZARD_FLAT = 1e8


def hazard(x):
    """phi(x)/(1 - Phi(x)), the reciprocal of the reference Mills ratio.

    Backed by the oracle, not by a terminated fraction: the hazard is the
    quantity the approximations get compared against.  For x >= 1 it lies
    between x and x + 1/x (the two shallowest classic convergents of R).
    From x = 1e8 on that bracket is at most an ulp wide and x + 1/x is
    returned, within an ulp of x: there 1/R would lose bits, and past 1e308
    the oracle's R = 1/x is subnormal.  hazard(inf) is inf, the limit of the
    bracket.  Raises ValueError for x < 0 and nan, as the oracle does.
    """
    if x >= _HAZARD_FLAT:
        return x + 1.0 / x
    return 1.0 / reference.reference_mills(x)


# With 0 < x <= 64 and n <= 64 the checked loop of truncation_bound never
# rescales.  B_k <= (x + sqrt k)^k for every k, by induction: B_0 = 1,
# B_1 = x, and B_{k+1} = x B_k + k B_{k-1} <= (x + sqrt k)^(k-1)
# (x^2 + x sqrt k + k) <= (x + sqrt(k+1))^(k+1).  So every B formed, up to
# B_65 <= (64 + sqrt 65)^65 < 2^402, stays under the rescale limit 2^500
# (rounding moves the computed B by a factor of at most (1 + 2^-52)^130),
# and every level's x + k <= 128 stays under the headroom 2^512.
_BOUND_BOX = 64


def truncation_bound(x, n):
    """n! / (B_n B_{n+1}) for the classic fraction, in log space.

    Strictly dominates |R - R_n| for every x > 0.  B is the denominator
    sequence B_0 = 1, B_1 = x, B_{k+1} = x B_k + k B_{k-1} of the classic
    fraction, kept under 2**500 by power-of-two rescaling whose exponent
    re-enters through the logarithm.  A bound past the largest double is
    returned as inf, one below the smallest positive double as that double.

    For x <= 64 and n <= 64 no rescale can fire (see _BOUND_BOX), and the
    recurrence runs on the float levels of _LEVELS with no per-level test;
    outside that box every level is checked.  Both give the same bits.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"truncation bound needs 0 < x < inf, got x={x!r}")
    n = _check_depth(n, "truncation_bound")
    # Level k + 1 has numerator k; level 1's numerator 1 meets B_prev = 0.
    B_prev, B = 0.0, 1.0
    scale = 0
    if x <= _BOUND_BOX and n <= _BOUND_BOX:
        for k in _LEVELS[:n + 1]:
            B, B_prev = x * B + k * B_prev, B
    else:
        # cf.forward_recurrence's rescaling of the B pair (B_{2j} >= 1
        # never underflows, so it is only ever scaled down)
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


def delta(x, n, family="improved-expo"):
    """Delta_n(x) = reference tail minus phi(x) R_n(x).

    x may be a 1-D numpy array: the grid then goes through the array oracle
    and one fold over the array instead of a call per point.
    """
    n = _check_depth(n, "delta")
    fam = get_family(family)
    if not isinstance(x, float) and _is_array(x):
        # the oracle before the fold, as on a float, so that both routes
        # raise the same error for the same x
        pdf = phi(x)
        ref = reference.reference_mills_grid(x)
        return pdf * ref - pdf * mills_grid(x, n, fam)
    return reference.reference_tail(x) - phi(x) * _fold(x, n, fam)


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
    (the first, on ties) is narrowed to 1e-8 by golden-section search.  xmin,
    in [0, 20], exists for the classic family, whose tail is undefined at 0.
    """
    import numpy as np

    n = _check_depth(n, "scan_max_delta")
    if not 0.0 <= xmin <= _SCAN_XMAX:
        raise ValueError(f"scan_max_delta needs 0 <= xmin <= 20, got xmin={xmin!r}")
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
    n = _check_depth(n, "decays_beyond")
    vals = [abs(delta(x, n, family)) for x in (22.0, 26.0, 30.0)]
    return all(a > b for a, b in zip(vals, vals[1:]))


class AsymptoticResult(NamedTuple):
    value: float
    diverging: bool


def asymptotic_series(x, m):
    """Partial sum (1/x) sum_{j<=m} (-1)^j (2j-1)!!/x^(2j).

    The series is asymptotic, not convergent: once the next term would grow
    ((2m+1) > x^2) the result is flagged diverging and more terms only hurt.
    A partial sum past the largest double raises OverflowError naming the
    function: at small x the terms grow like (2m-1)!!/x^(2m+1), and where
    x^2 underflows to 0 (x below about 1e-162) no term after the first is
    a double.
    """
    if not x > 0.0:
        raise ValueError("asymptotic series needs x > 0")
    m = _check_depth(m, "asymptotic_series")
    xx = x * x
    total = term = 1.0
    if m and not xx:
        total = math.inf   # x^2 underflowed: the second term is infinite
    else:
        for j in range(1, m + 1):
            term *= -(2 * j - 1) / xx
            total += term
    value = total / x
    if not math.isfinite(value):
        raise OverflowError(
            f"asymptotic_series({x!r}, {m}): the partial sum overflows a double")
    return AsymptoticResult(value, (2 * m + 1) > xx)


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

    Raises ValueError outside that range and at nan.  m is the number of
    series terms; by default terms are taken until they fall below the
    absolute floor of taylor_sum.
    """
    if not abs(x) <= 4.0:
        raise ValueError(f"taylor_mills is restricted to |x| <= 4, got x={x!r}")
    if m is None:
        return taylor_sum(x)
    return taylor_sum(x, tol=0.0, cap=_check_depth(m, "taylor_mills", lo=1))


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

    Where x^2 overflows (x past about 1.34e154) both return their limit 1/x,
    which is 0.0 at inf.  Raises ValueError for x < 0 and nan.
    """
    if origin_terms not in (1, 3):
        raise ValueError("origin_terms must be 1 or 3")
    if not x >= 0.0:
        raise ValueError(f"pade_r2 needs x >= 0, got x={x!r}")
    xx = x * x
    if xx == math.inf:
        return 1.0 / x
    if origin_terms == 1:
        c = SQRT_HALF_PI
        return (x + c) / (xx + c * x + 1.0)
    pi = math.pi
    num = (pi - 2.0) * SQRT_TWO_PI + x * (4.0 - pi)
    den = 2.0 * (pi - 2.0) + x * SQRT_TWO_PI + xx * (4.0 - pi)
    return num / den
