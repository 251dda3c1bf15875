"""The Gamma Mills ratio M_s(x) = x^(1-s) e^x Gamma(s, x) by continued fractions.

Gamma(s, x) is the upper incomplete gamma integral; the normalization makes
M_s finite and O(1) on the whole quadrant s > 0, x > 0, with M_s(x) -> 1 as
x -> infinity and the closed forms M_1 = 1, M_2 = 1 + 1/x.  Four fraction
forms are implemented and cross-checked against one another:

  cf_l1        x/(x + (1-s)/(1 + 1/(x + (2-s)/(1 + ...))))
  laguerre     x^s/(x+1-s + (s-1)/(x+3-s + 2(s-2)/(x+5-s + ...))),
               then divided by x^(s-1)
  lower_cf     x/(s - sx/(1+s+x - (1+s)x/(2+s+x - ...))),
               which is the cumulative side x^(1-s) e^x int_0^x u^(s-1)e^-u du
  winitzki_cf  1/(1 + (1-s)v/(1 + v/(1 + (2-s)v/(1 + 2v/(1 + ...))))), v = 1/x

At s = 1/2 the first form reduces to the Gaussian Laplace fraction:
M_{1/2}(z^2/2) = z R(z) with R the Gaussian Mills ratio (substitute
u = t^2/2 in the tail integral).  For s > 1 the ratio is reduced by
induction on the integer part via M_s = 1 + ((s-1)/x) M_{s-1}, which
starts from the lower series at shape base + 1 below x = base + 7/2 (see
reduce_s).  For s in (0, 1] the cf_l1 coefficients stay nonnegative and
consecutive convergents bracket the true value.

The front door gamma_mills(s, x) gives M_s(x) to about 1e-12 relative for
any s in (0, 2^20 + 1] and x > 0, or raises OverflowError where it passes
the largest double: from a small-shape sum or the lower series below
x = s + 1, and for s < 1 below x = s + 5/2 (_SERIES_REACH); from reduce_s
or the adaptive cf_l1 fraction above that.

Depth control: passing n evaluates a single depth-n convergent of the raw
fraction; omitting it returns gamma_mills(s, x) (lower_cf: its complement).

Each form's coefficients are written once, as a level stream: the spec's
`levels(x)` generator, which yields (a_k, b_k) for k = 1, 2, ...; the
specs have no a/b callables.  The streams count their levels in floats
(count(1.0)), which keeps every operation float-float; a double holds each
level number exactly, so no value moves.  A fixed depth n folds the first
n levels backward from the tail b_n through cf's one fold, so it gives
cf.eval_backward(spec, x, n, b_n)'s bits or error.

The l1 fraction is also written out from its closed-form coefficients,
a_1 = x, a_2j = j - s, a_2j+1 = j over b_k = x, 1, x, ..., with no stream:
for 0 < s <= 1 every level is nonnegative, so the fold's checks cannot
fire, and the same arithmetic gives the same bits.  gamma_mills' fraction
branch and reduce_s's base step run it forward until two successive
convergents agree to 1e-12 relative (_l1_adaptive), and bounds_s01 folds
both of its depths from it backward (_l1_fold), in constant memory.
"""

import math
from itertools import count, islice

from .cf import (
    _MAX_DEPTH,
    _RESCALE_FACTOR,
    _RESCALE_LIMIT,
    CFEvaluationError,
    CFSpec,
    _check_depth,
    _fold,
)

ADAPTIVE_REL_TOL = 1e-12
ADAPTIVE_MAX_DEPTH = 500

# treat shape distances below this as exact integers so the fractions
# truncate instead of dividing through numerators of order 1e-16
_SNAP = 1e-13


class ConvergenceError(ArithmeticError):
    """Adaptive evaluation hit the depth cap before successive convergents met."""


def _check(form, s, x, n=None, domain="0 < x < inf"):
    """s and x as Python floats (numpy's would compute in numpy), checked
    for 0 < s, x < inf, and n, unless None, checked by the depth rule.
    domain is the x interval the error names: lower_cf, which takes x = 0
    before it checks, names 0 <= x < inf."""
    if type(s) is not float or type(x) is not float:
        s, x = float(s), float(x)
    if not 0.0 < s < math.inf:
        raise ValueError(f"{form} needs a shape 0 < s < inf, got s={s!r}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"{form} needs {domain}, got x={x!r}")
    return s, x, (n if n is None else _check_depth(n, form))


def _snap_zero(v):
    return 0.0 if abs(v) < _SNAP else v


def l1_spec(s):
    """x/(x + (1-s)/(1 + 1/(x + (2-s)/(1 + ...)))); evaluates to M_s(x).

    Even levels carry the shape: a_{2j} = j - s, a_{2j+1} = j, against
    denominators alternating x, 1.  For s in (0, 1] every coefficient is
    nonnegative, which is what the bracketing of bounds_s01 rests on.
    """

    def levels(x):
        yield x, x
        for j in count(1.0):
            t = j - s
            yield (0.0 if abs(t) < _SNAP else t), 1.0
            yield j, x

    return CFSpec(name="l1", levels=levels)


def laguerre_spec(s):
    """x^s/(x+1-s + (s-1)/(x+3-s + 2(s-2)/(x+5-s + ...))).

    The value is x^(s-1) M_s(x); callers divide the extra power back out.
    Numerators (k-1)(s-k+1) vanish at integer shapes, truncating the
    fraction exactly (after snapping).
    """

    # b_k = x + ((2k-1) - s): the shape is taken off the integer first, so
    # b_1 keeps every bit of x where s is near 1
    def levels(x):
        yield x ** s, x + (1.0 - s)
        for k in count(2.0):
            t = s - k + 1.0
            yield (k - 1.0) * (0.0 if abs(t) < _SNAP else t), x + ((2.0 * k - 1.0) - s)

    return CFSpec(name="laguerre", levels=levels)


def lower_spec(s):
    """x/(s - sx/(1+s+x - (1+s)x/(2+s+x - ...))).

    Evaluates the cumulative side x^(1-s) e^x int_0^x u^(s-1) e^-u du; the
    complement identity lower + M_s = x^(1-s) e^x Gamma(s) ties it to the
    tail forms.  Numerators are negative, so intermediate denominators can
    pass through zero; such points raise rather than return junk.
    """

    def levels(x):
        yield x, s
        for k in count(2.0):
            yield -(k - 2.0 + s) * x, (k - 1.0) + s + x

    return CFSpec(name="lower", levels=levels)


def winitzki_spec(s):
    """1/(1 + (1-s)v/(1 + v/(1 + (2-s)v/(1 + 2v/(1 + ...))))), v = 1/x.

    The l1 form with every x-denominator divided through: all b_k = 1 and
    the variable moves into the numerators.  Same value M_s(x), better
    behaved when x is large and depth is fixed.
    """

    def levels(x):
        yield 1.0, 1.0
        v = 1.0 / x
        for j in count(1.0):
            t = j - s
            yield (0.0 if abs(t) < _SNAP else t) * v, 1.0
            yield j * v, 1.0

    return CFSpec(name="winitzki", levels=levels)


# Up to this x every l1 level has a_k + b_k <= 2^201, so two levels take
# continuants of at most 2^500 to below 2^702, still finite; past it M_s(x)
# is 1 + (s-1)/x, and the next term is below 2^-399 relative
_L1_FRACTION_TOP = 2.0**200

# The kernels' level and step numbers as floats, so each j * A, j - s or
# base + j is a float-float operation; a double holds each exactly, so no
# value moves.  Past the table the loops fall back to range.
_FLOATS = tuple(map(float, range(256)))
_L1_PASSES = _FLOATS[1:ADAPTIVE_MAX_DEPTH // 2]


def _l1_adaptive(s, x):
    """The l1 fraction forward from its closed-form coefficients, for
    0 < s < 1 and x >= 5/2, until two successive convergents agree to
    ADAPTIVE_REL_TOL relative, within ADAPTIVE_MAX_DEPTH levels; two levels
    a pass, no stream.  Past _L1_FRACTION_TOP it returns 1 + (s-1)/x.

    Every a_k >= 0, b_k is x or 1, every B_k >= 1 and every convergent is
    at least x/(x + 1), so only the rescale of A and B by 2^-512 past 2^500
    is needed, and it is tested once a pass, after the pass's second level.
    Nothing overflows: entering a pass A and B are at most 2^500, and with
    x <= 2^200 and j < 250 the pass's two levels keep them below 2^702.
    The bits are those of a rescale tested at every level.  Scaling by
    2^-512 is exact while every value stays normal, which B_k >= 1 and
    A_k >= x/(x + 1) B_k ensure; it commutes with each level's multiplies
    and adds, and leaves each quotient A/B as it is.
    """
    if x > _L1_FRACTION_TOP:
        return 1.0 + (s - 1.0) / x
    limit, factor, tol = _RESCALE_LIMIT, _RESCALE_FACTOR, ADAPTIVE_REL_TOL
    # levels 1 and 2 are (x, x) and (1 - s, 1): convergents 1 and x/(x + a_2)
    A_prev, A = x, x
    B_prev, B = x, x + _snap_zero(1.0 - s)
    prev = A / B
    if abs(prev - 1.0) <= tol * prev:
        return prev
    # pass j folds levels 2j + 1, (j, x), and 2j + 2, (j + 1 - s, 1)
    for j in _L1_PASSES:
        A, A_prev = x * A + j * A_prev, A
        B, B_prev = x * B + j * B_prev, B
        cur = A / B
        if abs(cur - prev) <= tol * cur:
            return cur
        a = (j + 1.0) - s   # at least 1: only a_2 can snap
        A, A_prev = A + a * A_prev, A
        B, B_prev = B + a * B_prev, B
        if A > limit or B > limit:
            A, B = A * factor, B * factor
            A_prev, B_prev = A_prev * factor, B_prev * factor
        prev = A / B
        if abs(prev - cur) <= tol * prev:
            return prev
    raise ConvergenceError(
        f"l1 form of M_s(x) at s={s!r}, x={x!r}: successive convergents "
        f"still apart after {ADAPTIVE_MAX_DEPTH} levels")


def _l1_fold(s, x, m):
    """_evaluate(l1_spec(s), x, m) from l1's closed-form coefficients,
    with no list, for 0 < s <= 1, 0 < x < inf and m >= 1.

    t = b_k + a_{k+1}/t innermost first, as cf's fold.  Every a_k is finite
    and at least 0 and every b_k is x or 1, so each t is at least
    min(x, 1) > 0 or is inf, which folds on as in that fold, and none of
    its checks can fire; where a_2 snaps to 0, x + 0/t is the fold's x.
    x/t >= +0, so the fold's 0.0 + for a quotient of -0.0 is not needed.
    The run half, ..., 2 is sliced from _FLOATS while half is in it.
    """
    a2 = _snap_zero(1.0 - s)
    half, odd = divmod(m, 2)
    if odd:
        t = x          # the tail b_m = x
    else:              # the tail b_m = 1, folded into level m - 1
        half -= 1
        t = x + ((half + 1.0) - s if half else a2)
    run = (_FLOATS[half:1:-1] if half < len(_FLOATS)
           else map(float, range(half, 1, -1)))
    for j in run:
        t = x + (j - s) / (1.0 + j / t)
    if half:
        t = x + a2 / (1.0 + 1.0 / t)
    return x / t


def _evaluate(spec, x, n):
    """The depth-n convergent of spec's fraction at x; 0 at n = 0.

    The stream's first n levels are listed, so a level the stream cannot
    compute raises before the fold's checks (only laguerre's x**s can, and
    laguerre() tests it first), then folded innermost first from the tail
    b_n: eval_backward(spec, x, n, b_n)'s bits or error.
    """
    if n == 0:
        return 0.0
    levels = list(islice(spec.levels(x), n))
    return _fold(reversed(levels), n, levels[-1][1], spec.name)


def cf_l1(s, x, n=None):
    """M_s(x) through the alternating-denominator form at depth n; without
    n, gamma_mills(s, x)."""
    s, x, n = _check("cf_l1", s, x, n)
    if n is None:
        return _mills(s, x)
    return _evaluate(l1_spec(s), x, n)


def laguerre(s, x, n=None):
    """M_s(x) through the contracted form at depth n; without n,
    gamma_mills(s, x).

    At an integer shape s >= 2 and small x the raw fraction cancels at any
    depth: b_1 = x + (1 - s) nearly cancels a_2/b_2 (at s = 2 their sum is
    x^2/(x + 1)), so the loss grows as x falls.  laguerre(2.0, 0.1, n) is
    11.000000000000064 for n >= 2 (M_2 = 11), and at x = 1e-10 the sum
    rounds to 0.  Without n the front door gives 11.0 from M_1 = 1.

    At a fixed depth it raises OverflowError where x^(s-1) underflows to 0:
    M_s(x) is at least 0.88 x^(1-s) there, past the largest double; likewise
    where it overflows (subnormal x, s < 1) and cannot be divided back out.
    It raises CFEvaluationError where the first numerator x^s underflows to
    0, which would make the fraction 0, and where it overflows (x > 1),
    which the contracted form cannot carry.  Without n none of these apply:
    the front door evaluates M_s(x) wherever it is a double.
    """
    s, x, n = _check("laguerre", s, x, n)
    if n is None:
        return _mills(s, x)
    try:
        power, first = x ** (s - 1.0), x ** s
    except OverflowError:
        if x < 1.0:   # subnormal x and s < 1: only the divisor overflows
            raise OverflowError(f"laguerre: the divisor x**(s-1) at s={s!r}, "
                                f"x={x!r} exceeds the largest double") from None
        raise CFEvaluationError(f"laguerre form of M_s(x) at s={s!r}, x={x!r}: "
                                "the first numerator x**s overflows") from None
    if power == 0.0:
        raise OverflowError(
            f"laguerre: M_s(x) at s={s!r}, x={x!r} exceeds the largest double")
    if first == 0.0:
        raise CFEvaluationError(
            f"laguerre form of M_s(x) at s={s!r}, x={x!r}: the first "
            "numerator x**s underflows to 0")
    return _evaluate(laguerre_spec(s), x, n) / power


def lower_cf(s, x, n=None):
    """x^(1-s) e^x int_0^x u^(s-1) e^-u du, the cumulative complement; 0 at x = 0.

    Without n it is the series sum_{k>=1} x^k/(s(s+1)...(s+k-1)) for
    x < s + 1, and x^(1-s) e^x Gamma(s) - gamma_mills(s, x) from there on.
    It raises OverflowError where the value passes the largest double: below
    x = s + 1 wherever the sum does, and from there on wherever
    x^(1-s) e^x Gamma(s) does, as M_s(x) is far below an ulp of so large a
    term.  Where the series needs more than 2**20 terms (s past about 1e10,
    x near s) it raises ConvergenceError, and from x = s + 1 on it raises
    gamma_mills's ValueError for s > 2**20 + 1.  A fixed depth n folds the
    raw fraction.
    """
    if x == 0.0:   # in this form's domain, unlike the others'
        _check("lower_cf", s, 1.0, n)
        return 0.0
    s, x, n = _check("lower_cf", s, x, n, "0 <= x < inf")
    if n is not None:
        return _evaluate(lower_spec(s), x, n)
    if x < s + 1.0:
        total = _lower_sum(s, x)
        if total == math.inf:
            raise OverflowError(f"lower_cf: the cumulative side at s={s!r}, "
                                f"x={x!r} exceeds the largest double")
        return total
    m = _mills(s, x)   # ValueError past s = 2**20 + 1
    try:
        return math.exp((1.0 - s) * math.log(x) + x + math.lgamma(s)) - m
    except OverflowError:
        raise OverflowError(f"lower_cf: the cumulative side at s={s!r}, "
                            f"x={x!r} exceeds the largest double") from None


def winitzki_cf(s, x, n=None):
    """M_s(x) through the unit-denominator form in v = 1/x at depth n;
    without n, gamma_mills(s, x)."""
    s, x, n = _check("winitzki_cf", s, x, n)
    if n is None:
        return _mills(s, x)
    return _evaluate(winitzki_spec(s), x, n)


def _lower_sum(s, x):
    """sum_{k>=1} x^k/Q_k with Q_k = s(s+1)...(s+k-1), for s > 0 and
    0 < x < s + 5/2: lower_cf calls it below x = s + 1, and _lower_series
    up to x = s + 5/2 where s < 2 (the s < 1 branch of gamma_mills and
    reduce_s's base + 1 step), otherwise below s + 1.

    Every term is positive and each is x/(s+k) times the one before; below
    x = s + 1 that ratio is below 1 from the start, and up to s + 5/2 it
    is from the third ratio on.  The sum stops once a term no longer moves
    it (below half an ulp).  The stop always falls where the terms are
    falling: a term still growing is at least each one before it, so at
    least 1/k of the running total, and it moves the sum.  Once the terms
    fall they fall for good, as x/(s+k) falls with k, and rounding is
    monotone, so if a term leaves the sum unmoved the next one does too.
    The loop therefore adds two terms a pass and tests for the stop once,
    with the bits of a test after every term, and still stops after the
    same 2**20 terms past the first, where it raises ConvergenceError.  It
    is +inf where x/s overflows.
    """
    term = total = x / s
    k = s
    for _ in range(_MAX_DEPTH // 2):
        k += 1.0
        term *= x / k
        half = total + term
        k += 1.0
        term *= x / k
        new = half + term
        if new == half:   # the stop falls on this pass's first term or second
            return half
        total = new
    raise ConvergenceError(f"lower series at s={s!r}, x={x!r}: still moving "
                           f"after {_MAX_DEPTH} terms")


def _lower_series(s, x):
    """M_s(x) from the lower incomplete-gamma series, for s > 0 and x below
    s + 1, or below s + _SERIES_REACH where s < 2.

    x^(1-s) e^x gamma(s, x) = _lower_sum(s, x), so M_s(x) =
    exp((1-s) ln x + x + lgamma(s)) - _lower_sum(s, x); the sum takes at
    most 34 terms for s in (1, 2] and x < s + 5/2.  The difference keeps
    Gamma(s, x)/Gamma(s) of the first term, at least e^-3.5 for s >= 1 and
    x < s + 5/2, so it cancels less than two digits there (about e^-5 at
    s = 1/4, x = s + 5/2); below s = 1/4 it cancels (see _small_shape).
    Raises math.exp's OverflowError where the first term passes the largest
    double; the sum is then below an ulp of it, so M_s(x) passes it too.
    """
    first = math.exp((1.0 - s) * math.log(x) + x + math.lgamma(s))
    return first - _lower_sum(s, x)


_SMALL_SHAPE = 0.25   # below it the lower series loses digits to cancellation
_SERIES_SHAPE = 200.0   # above it the lower series's exponent rounds too coarsely
# Below shape 2 the series answers up to x = shape + _SERIES_REACH (s < 1 in
# gamma_mills, the base + 1 start of reduce_s), where the fractions are
# slowest: l1 folds 125 levels at x = s + 1 and 57 at s + 2.5.  Worst error
# against mpmath at 40 digits (3000 shapes a class), by band of x - shape:
#                         [2, 2.25)  [2.25, 2.5)  [2.5, 2.75)  [2.75, 3)
#   small-shape sum         3.9e-14     5.9e-14      8.8e-14     1.7e-13
#   lower series, s < 1     1.5e-13     1.7e-13      2.5e-13     3.8e-13
#   lower series, (1, 2]    2.9e-14     3.6e-14      5.7e-14     7.1e-14
# against 4.8e-13 for the l1 fraction's 1e-12 stop; 2.5 is the largest
# quarter step that keeps every class within 2e-13.
_SERIES_REACH = 2.5


def _expm1_over(t):
    """expm1(t)/t, taking no quotient by a subnormal t."""
    if abs(t) < 1e-5:
        return 1.0 + t * (0.5 + t / 6.0)
    return math.expm1(t) / t


def _small_shape(s, x):
    """M_s(x) for 0 < s <= 1/4 and x < s + _SERIES_REACH, where the lower
    series cancels.

    Gamma(s, x) = (Gamma(1+s) - 1)/s - expm1(s ln x)/s
                  - x^s sum_{k>=1} (-x)^k/(k! (s+k)),
    with lgamma(1+s)/s from its Taylor series (math.lgamma(1.0 + s) drops
    the bits of s) and no division by s, so a subnormal s keeps its value.
    M_s(x) = x (x^-s e^x Gamma(s, x)), with the multiply by x last.
    """
    # lgamma(1 + s)/s = -euler_gamma + sum_{k>=2} (-1)^k zeta(k)/k s^(k-1)
    # for |s| < 1, by Horner; these 26 terms reach 1e-17 relative up to s = 1/4
    h = (-0.5772156649015329 + s * (0.8224670334241132 + s * (
         -0.40068563438653143 + s * (0.27058080842778454 + s * (
         -0.20738555102867398 + s * (0.1695571769974082 + s * (
         -0.1440498967688461 + s * (0.12550966952474304 + s * (
         -0.11133426586956469 + s * (0.1000994575127818 + s * (
         -0.09095401714582904 + s * (0.083353840546109 + s * (
         -0.0769325164113522 + s * (0.07143294629536133 + s * (
         -0.06666870588242046 + s * (0.06250095514121304 + s * (
         -0.058823978658684585 + s * (0.055555767627403614 + s * (
         -0.05263167937961666 + s * (0.05000004769810169 + s * (
         -0.047619070330142226 + s * (0.04545455629320467 + s * (
         -0.04347826605304026 + s * (0.04166666915034121 + s * (
         -0.04000000119214014 + s * 0.03846153903467518)))))))))))))))))))))))))
    lx = math.log(x)
    term, total, k = 1.0, 0.0, 0.0
    while True:
        k += 1.0
        term *= -x / k
        new = total + term / (s + k)
        if new == total:
            break
        total = new
    upper = (h * _expm1_over(s * h) - lx * _expm1_over(s * lx)
             - math.exp(s * lx) * total)
    return x * (math.exp(x - s * lx) * upper)


def gamma_mills(s, x):
    """M_s(x) = x^(1-s) e^x Gamma(s, x) to 1e-12 relative, 0 < s <= 2**20 + 1.

    Branches (DiDonato & Morris, ACM TOMS 12, 1986; Gil, Segura & Temme,
    SIAM J. Sci. Comput. 34, 2012):
      integer s:              1 at s = 1, reduce_s from M_1 = 1 above it;
      s <= 1/4, x < s + 5/2:  the small-shape sum (_small_shape);
      s < 1, x < s + 5/2,
      or s <= 200, x < s + 1: the lower series (_lower_series);
      otherwise, s > 1:       reduce_s;
      s < 1, x >= s + 5/2:    adaptive cf_l1 from its closed-form
                              coefficients (_l1_adaptive), whose
                              consecutive convergents bracket M_s, so its
                              stop bounds the error; past x = 2^200,
                              1 + (s-1)/x.
    The series reach s + 5/2 (_SERIES_REACH) below shape 1, past the
    classical switch at s + 1, where the fraction needs up to 125 levels
    and 57 at s + 5/2; the series is the more accurate there too.
    Raises OverflowError, naming the largest double, where M_s(x) passes
    it, and ValueError for shapes past 2**20 + 1, as reduce_s does.  Where
    M_s(x) is below 2^-1022 the error is at most 1e-12 * 2^-1022 absolute.
    It never raises ConvergenceError.
    """
    s, x, _ = _check("gamma_mills", s, x)
    return _mills(s, x)


def _mills(s, x):
    """gamma_mills(s, x) with s and x already checked."""
    if s % 1.0 == 0.0:   # M_1 = 1, and reduce_s steps up from it
        return 1.0 if s == 1.0 else _reduce_s(s, x)
    if s < 1.0:
        if x >= s + _SERIES_REACH:
            return _l1_adaptive(s, x)
    elif x >= s + 1.0:
        return _reduce_s(s, x)
    if s <= _SMALL_SHAPE:
        return _small_shape(s, x)
    if s > _SERIES_SHAPE:
        return _reduce_s(s, x)
    try:
        return _lower_series(s, x)
    except OverflowError:
        raise OverflowError(f"gamma_mills: M_s(x) at s={s!r}, x={x!r} "
                            "exceeds the largest double") from None


def reduce_s(s, x):
    """M_s(x) for s > 1 by induction on the integer part of the shape.

    M_s = 1 + ((s-1)/x) M_{s-1} follows from integrating Gamma(s, x) by
    parts; applied repeatedly it lowers the shape to a base in (0, 1].  The
    base is M_1 = 1 at an integer shape; otherwise the lower series
    (_lower_series) gives M_{base+1} below x = base + 1 + _SERIES_REACH
    (base + 7/2), where the fraction is slowest (l1 folds up to 125 levels
    at x = base + 1 and 44 at base + 7/2), and the adaptive cf_l1 fraction
    from its closed form (_l1_adaptive) gives M_base from there on, within
    5.8e-14 of mpmath after the steps.  Starting at base + 1 skips the step (base/x) M_base,
    which overflows at subnormal x, and Gamma(base), which overflows at a
    tiny base.  Raises OverflowError, naming the step where the running
    value stops being finite, which happens when M_s(x) exceeds the largest
    double (large s, small x), and ValueError for shapes that need more
    than 2**20 steps (s > 2**20 + 1).
    """
    s, x, _ = _check("reduce_s", s, x)
    if s <= 1.0:
        raise ValueError("reduce_s handles s > 1; use gamma_mills for s <= 1")
    return _reduce_s(s, x)


def _reduce_s(s, x):
    """reduce_s(s, x) with s > 1 and x already checked."""
    steps = math.ceil(s) - 1
    if steps > _MAX_DEPTH:
        raise ValueError(f"reduce_s at s={s!r} needs more than {_MAX_DEPTH} steps")
    base = s - steps
    done = 0
    if base == 1.0:
        value = 1.0   # M_1 = 1, exactly
    elif x < base + 1.0 + _SERIES_REACH:
        # M_{base+1} >= 1; near base = 0 the difference can round an ulp below
        try:
            value = max(_lower_series(base + 1.0, x), 1.0)
        except OverflowError:
            raise OverflowError(f"M_s(x) at s={s!r}, x={x!r} exceeds the "
                                "largest double") from None
        done = 1
    else:
        value = _l1_adaptive(base, x)
    # inside the float table the walk tests for finiteness once, after the
    # loop: each c_j = (base + j - 1)/x is > 0, so once the value is inf it
    # stays inf.  On that path, and past the table, where a walk that runs
    # on after inf could take 2**20 steps, the checked walk names the step
    if steps < len(_FLOATS):
        start = value
        for j in _FLOATS[done + 1:steps + 1]:
            value = 1.0 + ((base + j - 1.0) / x) * value
        if math.isfinite(value):
            return value
        value = start
    for j in range(done + 1, steps + 1):
        value = 1.0 + ((base + j - 1.0) / x) * value
        if not math.isfinite(value):
            raise OverflowError(
                f"M_s(x) at s={s!r}, x={x!r} is not finite after {j} of "
                f"{steps} reduction steps: it exceeds the largest double"
            )
    return value


def bounds_s01(s, x, n):
    """Bracketing pair for M_s(x), s in (0, 1]: cf_l1 depths n and n+1, sorted.

    Nonnegative coefficients make consecutive convergents enclose the true
    value; at s = 1 the numerator 1 - s kills the fraction and both sides
    collapse to the exact value 1.  Each depth is folded from l1's
    closed-form coefficients (_l1_fold), in constant memory and with the
    bits of the fixed-depth cf_l1.
    """
    s, x, _ = _check("bounds_s01", s, x)
    n = _check_depth(n, "bounds_s01", top=_MAX_DEPTH - 1)
    if s > 1.0:
        raise ValueError("bounds_s01 is stated for s in (0, 1]")
    hi = _l1_fold(s, x, n + 1)
    lo = _l1_fold(s, x, n) if n else 0.0
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi
