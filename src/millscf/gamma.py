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
induction on the integer part via M_s = 1 + ((s-1)/x) M_{s-1}, so only
shapes in (0, 1] ever reach a fraction; there the cf_l1 coefficients stay
nonnegative and consecutive convergents bracket the true value.

Depth control: passing n evaluates a single depth-n convergent; omitting it
runs the fraction adaptively until two successive nonzero convergents agree
to 1e-12 relative, capped at depth 500 (no a-priori truncation bound is
available here, unlike the Gaussian case).

The adaptive route reads each form's coefficients from one level stream,
the spec's `levels(x)` generator, which yields (a_k, b_k) for k = 1, 2, ...
with the same arithmetic as the spec's a/b callables, so the values are
bit for bit the same.  The streams count their levels in floats
(count(1.0)), which keeps every operation float-float; a double holds each
level number exactly, so no value moves.  One flat Wallis-Euler loop folds
that stream: a level with |a_k| + |b_k| above 2^512 scales each pair that
could overflow down by 2^-512 before the multiply, tracking the A-B
exponent difference, so the continuants stay finite for any finite x, and
the new A, B are scaled down after it once either exceeds 2^500.  The
fixed-depth route keeps using eval_backward on the a/b callables.
"""

import math
from itertools import count

from .cf import (
    _LEVEL_HEADROOM,
    _MAX_DEPTH,
    _RESCALE_FACTOR,
    _RESCALE_LIMIT,
    _RESCALE_SHIFT,
    CFEvaluationError,
    CFSpec,
    _check_depth,
    eval_backward,
)

ADAPTIVE_REL_TOL = 1e-12
ADAPTIVE_MAX_DEPTH = 500

# treat shape distances below this as exact integers so the fractions
# truncate instead of dividing through numerators of order 1e-16
_SNAP = 1e-13

_PAIR_SAFE = 2.0**-24   # a pair this small cannot overflow at any level
_LOG_TWICE_MAX = math.log(1.7976931348623157e308) + math.log(2.0)


class ConvergenceError(ArithmeticError):
    """Adaptive evaluation hit the depth cap before successive convergents met."""


def _check(form, s, x, n=None):
    """Check 0 < s, x < inf and, unless None, n by the depth rule; return n."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"{form} needs a shape 0 < s < inf, got s={s!r}")
    if not 0.0 < x < math.inf:
        raise ValueError(f"{form} needs 0 < x < inf, got x={x!r}")
    return n if n is None else _check_depth(n, form)


def _snap_zero(v):
    return 0.0 if abs(v) < _SNAP else v


def l1_spec(s):
    """x/(x + (1-s)/(1 + 1/(x + (2-s)/(1 + ...)))); evaluates to M_s(x).

    Even levels carry the shape: a_{2j} = j - s, a_{2j+1} = j, against
    denominators alternating x, 1.  For s in (0, 1] every coefficient is
    nonnegative, which is what the bracketing of bounds_s01 rests on.
    """

    def a(k, x):
        if k == 1:
            return x
        j, odd = divmod(k, 2)
        return float(j) if odd else _snap_zero(j - s)

    def b(k, x):
        return x if k % 2 == 1 else 1.0

    def levels(x):
        yield x, x
        for j in count(1.0):
            t = j - s
            yield (0.0 if abs(t) < _SNAP else t), 1.0
            yield j, x

    return CFSpec(a=a, b=b, name="l1", levels=levels)


def laguerre_spec(s):
    """x^s/(x+1-s + (s-1)/(x+3-s + 2(s-2)/(x+5-s + ...))).

    The value is x^(s-1) M_s(x); callers divide the extra power back out.
    Numerators (k-1)(s-k+1) vanish at integer shapes, truncating the
    fraction exactly (after snapping).
    """

    def a(k, x):
        if k == 1:
            return x ** s
        return (k - 1) * _snap_zero(s - k + 1.0)

    def b(k, x):
        return x + 2.0 * k - 1.0 - s

    def levels(x):
        yield x ** s, x + 2.0 - 1.0 - s   # b_1 in the order of b_k
        for k in count(2.0):
            t = s - k + 1.0
            yield (k - 1.0) * (0.0 if abs(t) < _SNAP else t), x + 2.0 * k - 1.0 - s

    return CFSpec(a=a, b=b, name="laguerre", levels=levels)


def lower_spec(s):
    """x/(s - sx/(1+s+x - (1+s)x/(2+s+x - ...))).

    Evaluates the cumulative side x^(1-s) e^x int_0^x u^(s-1) e^-u du; the
    complement identity lower + M_s = x^(1-s) e^x Gamma(s) ties it to the
    tail forms.  Numerators are negative, so intermediate denominators can
    pass through zero; such points raise rather than return junk.
    """

    def a(k, x):
        if k == 1:
            return x
        return -(k - 2.0 + s) * x

    def b(k, x):
        return s if k == 1 else (k - 1.0) + s + x

    def levels(x):
        yield x, s
        for k in count(2.0):
            yield -(k - 2.0 + s) * x, (k - 1.0) + s + x

    return CFSpec(a=a, b=b, name="lower", levels=levels)


def winitzki_spec(s):
    """1/(1 + (1-s)v/(1 + v/(1 + (2-s)v/(1 + 2v/(1 + ...))))), v = 1/x.

    The l1 form with every x-denominator divided through: all b_k = 1 and
    the variable moves into the numerators.  Same value M_s(x), better
    behaved when x is large and depth is fixed.
    """

    def a(k, x):
        if k == 1:
            return 1.0
        v = 1.0 / x
        j, odd = divmod(k, 2)
        return j * v if odd else _snap_zero(j - s) * v

    def b(k, x):
        return 1.0

    def levels(x):
        yield 1.0, 1.0
        v = 1.0 / x
        for j in count(1.0):
            t = j - s
            yield (0.0 if abs(t) < _SNAP else t) * v, 1.0
            yield j * v, 1.0

    return CFSpec(a=a, b=b, name="winitzki", levels=levels)


def _adaptive(spec, s, x, rel_tol=ADAPTIVE_REL_TOL, max_depth=ADAPTIVE_MAX_DEPTH):
    # forward recursion, stopping on relative agreement of successive
    # convergents.  Every level leaves all four continuants at most 2**500 in
    # size, so after the multiply only the new A, B need the (shared) test.
    # A level past the headroom scales only a pair that could overflow, so
    # a far smaller pair is not pushed to 0; `shift` = A's exponent - B's.
    headroom, limit, factor = _LEVEL_HEADROOM, _RESCALE_LIMIT, _RESCALE_FACTOR
    A_prev, B_prev = 1.0, 0.0
    A, B = 0.0, 1.0
    shift = 0
    prev = math.nan   # no convergent yet: the first agreement test fails
    for _, (ak, bk) in zip(range(max_depth), spec.levels(x)):
        if abs(ak) + abs(bk) > headroom:
            if abs(A) > _PAIR_SAFE or abs(A_prev) > _PAIR_SAFE:
                A, A_prev = A * factor, A_prev * factor
                shift += _RESCALE_SHIFT
            if abs(B) > _PAIR_SAFE or abs(B_prev) > _PAIR_SAFE:
                B, B_prev = B * factor, B_prev * factor
                shift -= _RESCALE_SHIFT
        A, A_prev = bk * A + ak * A_prev, A
        B, B_prev = bk * B + ak * B_prev, B
        if abs(A) > limit or abs(B) > limit:
            A, B = A * factor, B * factor
            A_prev, B_prev = A_prev * factor, B_prev * factor
        if B != 0.0:
            cur = A / B
            if shift:
                cur = math.ldexp(cur, shift)
            mag = abs(cur)
            # rel_tol * max(|cur|, 1e-300), written out.  Every form's
            # fraction is positive, so a convergent of 0.0 has underflowed
            # (cf_l1 at subnormal x): no agreement with it counts.
            if abs(cur - prev) <= rel_tol * (mag if mag > 1e-300 else 1e-300):
                if cur != 0.0 and prev != 0.0:
                    return cur
            prev = cur
    raise ConvergenceError(
        f"{spec.name} form of M_s(x) at s={s!r}, x={x!r}: successive "
        f"convergents still apart after {max_depth} levels"
    )


def _evaluate(spec, s, x, n):
    if n is None:
        return _adaptive(spec, s, x)
    if n == 0:
        return 0.0
    return eval_backward(spec, x, n, spec.b(n, x))


def cf_l1(s, x, n=None):
    """M_s(x) through the alternating-denominator form; depth n or adaptive."""
    n = _check("cf_l1", s, x, n)
    return _evaluate(l1_spec(s), s, x, n)


def laguerre(s, x, n=None):
    """M_s(x) through the contracted form; exact at integer s.

    Raises OverflowError where x^(s-1) underflows to 0: M_s(x) is at least
    0.88 x^(1-s) there, past the largest double.  Raises CFEvaluationError
    where the first numerator x^s underflows to 0, which would make the
    fraction 0.
    """
    n = _check("laguerre", s, x, n)
    power = x ** (s - 1.0)
    if power == 0.0:
        raise OverflowError(
            f"laguerre: M_s(x) at s={s!r}, x={x!r} exceeds the largest double")
    if x ** s == 0.0:
        raise CFEvaluationError(
            f"laguerre form of M_s(x) at s={s!r}, x={x!r}: the first "
            "numerator x**s underflows to 0")
    return _evaluate(laguerre_spec(s), s, x, n) / power


def lower_cf(s, x, n=None):
    """x^(1-s) e^x int_0^x u^(s-1) e^-u du, the cumulative complement; 0 at x = 0.

    Adaptive, it raises OverflowError where s <= x, s < 1e300 and
    x^(1-s) e^x Gamma(s)/2 passes the largest double: the value is larger
    there, since the median of Gamma(s) lies below s.
    """
    n = _check("lower_cf", s, x or 1.0, n)   # x = 0 is in this form's domain
    if x == 0.0:
        return 0.0
    if n is None and s <= x and s < 1e300 and (
            (1.0 - s) * math.log(x) + x + math.lgamma(s) > _LOG_TWICE_MAX):
        raise OverflowError(f"lower_cf: the cumulative side at s={s!r}, "
                            f"x={x!r} exceeds the largest double")
    return _evaluate(lower_spec(s), s, x, n)


def winitzki_cf(s, x, n=None):
    """M_s(x) through the unit-denominator form in v = 1/x."""
    n = _check("winitzki_cf", s, x, n)
    return _evaluate(winitzki_spec(s), s, x, n)


def reduce_s(s, x, evaluator=None):
    """M_s(x) for s > 1 by induction on the integer part of the shape.

    M_s = 1 + ((s-1)/x) M_{s-1} follows from integrating Gamma(s, x) by
    parts; applied repeatedly it lowers the shape into (0, 1], where the
    supplied evaluator (default: adaptive laguerre) takes over.  Raises
    OverflowError as soon as the running value stops being finite, which
    happens when M_s(x) exceeds the largest double (large s, small x), and
    ValueError for shapes that need more than 2**20 steps (s > 2**20 + 1).
    """
    _check("reduce_s", s, x)
    if s <= 1.0:
        raise ValueError("reduce_s handles s > 1; call an evaluator directly")
    if evaluator is None:
        evaluator = laguerre
    if not callable(evaluator):
        raise TypeError(f"evaluator must be callable, got {evaluator!r}")
    steps = math.ceil(s) - 1
    if steps > _MAX_DEPTH:
        raise ValueError(f"reduce_s at s={s!r} needs more than {_MAX_DEPTH} steps")
    base = s - steps
    value = evaluator(base, x)
    for j in range(1, steps + 1):
        value = 1.0 + ((base + j - 1.0) / x) * value
        if not math.isfinite(value):
            raise OverflowError(
                f"M_s(x) at s={s!r}, x={x!r} is not finite after {j} of "
                f"{steps} reduction steps"
            )
    return value


def bounds_s01(s, x, n):
    """Bracketing pair for M_s(x), s in (0, 1]: cf_l1 depths n and n+1, sorted.

    Nonnegative coefficients make consecutive convergents enclose the true
    value; at s = 1 the numerator 1 - s kills the fraction and both sides
    collapse to the exact value 1.
    """
    _check("bounds_s01", s, x)
    n = _check_depth(n, "bounds_s01", top=_MAX_DEPTH - 1)
    if s > 1.0:
        raise ValueError("bounds_s01 is stated for s in (0, 1]")
    spec = l1_spec(s)
    hi = _evaluate(spec, s, x, n + 1)
    lo = _evaluate(spec, s, x, n)
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi
