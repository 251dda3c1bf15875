"""Evaluation kernels for continued fractions K_{k>=1}(a_k / b_k).

A fraction is described by coefficient callables a(k, x), b(k, x) for levels
k >= 1; no fraction in the library has a leading term.  The n-th convergent
A_n/B_n satisfies the three-term (Wallis-Euler) recursion

    A_k = b_k A_{k-1} + a_k A_{k-2},      A_{-1} = 1, A_0 = 0,
    B_k = b_k B_{k-1} + a_k B_{k-2},      B_{-1} = 0, B_0 = 1.

The paper's approximations are one operation, eval_backward: fold the levels
innermost-first from a positive "tail" in place of the last denominator.
gamma and gauss read only that, CFSpec, CFEvaluationError, the rescale
constants and the depth rule _check_depth.
forward_recurrence runs the recursion above, rescaled so that B_n (which
can grow like sqrt(n!)) never overflows; it is the second route the verify
suites and the tests check the fold against, and it stays here because the
benchmark harness traces it as cf.forward_recurrence.  The rest of the
toolkit those suites need is private to verify.

Convergents are indexed by the number of levels consumed: depth 1 of the
Laplace fraction for the Gaussian Mills ratio is 1/x.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class CFEvaluationError(ArithmeticError):
    """A continued fraction could not be evaluated at the requested point."""


@dataclass(frozen=True)
class CFSpec:
    """Coefficients of K(a_k/b_k), claimed for 0 < x < inf.

    forward_recurrence rejects x outside that interval.  Callers that need
    the closure (e.g. modified fractions at x = 0) go through eval_backward,
    which only validates coefficients.

    `levels`, when set, maps x to an iterator of (a(k, x), b(k, x)) for
    k = 1, 2, ..., bit for bit the values of the callables, for loops that
    consume levels in order and cannot afford two calls per level.
    """

    a: Callable[[int, float], float]
    b: Callable[[int, float], float]
    name: str = ""
    levels: Optional[Callable[[float], Iterator[tuple]]] = None


def _check_x(spec, x):
    if not 0.0 < x < math.inf:
        raise ValueError(
            f"x={x!r} outside the domain (0.0, inf) of spec {spec.name!r}"
        )


_MAX_DEPTH = 2**20   # the deepest fold: classic R_n takes about 0.2 s there


def _check_depth(n, who, lo=0, top=_MAX_DEPTH):
    """The depth rule: n as an int in [lo, top], else ValueError naming who
    and repr(n).  Floats (integral ones too), nan, inf and None fail it."""
    try:
        k = operator.index(n)
        if lo <= k <= top:
            return k
    except TypeError:
        pass
    raise ValueError(f"{who} needs a depth or term count that is an integer "
                     f"from {lo} to {top}, got {n!r}")


@dataclass(frozen=True)
class ConvergentState:
    """Forward-recursion state after `depth` levels.

    The A pair and the B pair each satisfy the recursion on their own, so
    each carries its own power-of-two scale: the true A, A_prev are the
    stored ones times 2**a_scale_log2, the true B, B_prev the stored ones
    times 2**scale_log2, and value() puts the difference back.  A_prev/B_prev
    belong to depth-1, so the cross-determinant A_prev*B - A*B_prev of the
    stored values equals prod_{i<=depth}(-a_i) times
    2**-(a_scale_log2 + scale_log2).
    """

    A: float
    B: float
    A_prev: float
    B_prev: float
    depth: int
    scale_log2: int = 0
    a_scale_log2: int = 0

    def value(self):
        if self.B == 0.0:
            raise CFEvaluationError(
                f"vanishing denominator B at depth {self.depth}"
            )
        return math.ldexp(self.A / self.B, self.a_scale_log2 - self.scale_log2)


_RESCALE_LIMIT = 2.0**500
_RESCALE_SHIFT = 512
_RESCALE_FACTOR = 2.0**-_RESCALE_SHIFT
# continuants enter a level at most 2**500 in size, so a level whose
# |a_k| + |b_k| stays under 2**512 cannot overflow
_LEVEL_HEADROOM = 2.0**512


def _coeff(spec, which, k, x):
    v = (spec.a if which == "a" else spec.b)(k, x)
    if not math.isfinite(v):
        raise CFEvaluationError(
            f"non-finite coefficient {which}({k}) = {v!r} in spec {spec.name!r}"
        )
    return v


def forward_recurrence(spec, x, n):
    """Run the Wallis-Euler recursion to depth n and return the state.

    Each pair is rescaled by 2**-512 on its own whenever one of its two
    continuants exceeds 2**500 in magnitude (and back up on underflow),
    tracking the exponent; a shared scale would push the smaller pair to 0
    (at x = 1e300 the numerators A fall about x below the B).  A level with
    |a_k| + |b_k| above 2**512 could overflow even from there, so both pairs
    are scaled down by 2**-512 before the multiply.
    """
    n = _check_depth(n, "forward_recurrence")
    _check_x(spec, x)
    A_prev, B_prev = 1.0, 0.0
    A, B = 0.0, 1.0
    a_scale = b_scale = 0
    for k in range(1, n + 1):
        ak = _coeff(spec, "a", k, x)
        bk = _coeff(spec, "b", k, x)
        if abs(ak) + abs(bk) > _LEVEL_HEADROOM:
            A, A_prev = A * _RESCALE_FACTOR, A_prev * _RESCALE_FACTOR
            B, B_prev = B * _RESCALE_FACTOR, B_prev * _RESCALE_FACTOR
            a_scale += _RESCALE_SHIFT
            b_scale += _RESCALE_SHIFT
        A, A_prev = bk * A + ak * A_prev, A
        B, B_prev = bk * B + ak * B_prev, B
        m = max(abs(A), abs(A_prev))
        if m > _RESCALE_LIMIT:
            A, A_prev = A * _RESCALE_FACTOR, A_prev * _RESCALE_FACTOR
            a_scale += _RESCALE_SHIFT
        elif 0.0 < m < 1.0 / _RESCALE_LIMIT:
            A, A_prev = A / _RESCALE_FACTOR, A_prev / _RESCALE_FACTOR
            a_scale -= _RESCALE_SHIFT
        m = max(abs(B), abs(B_prev))
        if m > _RESCALE_LIMIT:
            B, B_prev = B * _RESCALE_FACTOR, B_prev * _RESCALE_FACTOR
            b_scale += _RESCALE_SHIFT
        elif 0.0 < m < 1.0 / _RESCALE_LIMIT:
            B, B_prev = B / _RESCALE_FACTOR, B_prev / _RESCALE_FACTOR
            b_scale -= _RESCALE_SHIFT
    return ConvergentState(A=A, B=B, A_prev=A_prev, B_prev=B_prev, depth=n,
                           scale_log2=b_scale, a_scale_log2=a_scale)


def eval_backward(spec, x, n, tail):
    """Value of the depth-n fraction with the last denominator replaced by tail.

    Folds levels n, n-1, ..., 1 innermost-first:

        t <- b_{m-1} + a_m / t,    starting from t = tail, with b_0 = 0.

    With tail = b(n, x) this reproduces forward_recurrence's A_n/B_n.  A zero
    numerator terminates the fraction exactly (the deeper levels cannot
    contribute), which is what lets integer shape parameters truncate the
    Gamma fractions without dividing by junk.  n = 0 returns tail itself.
    """
    n = _check_depth(n, "eval_backward")
    if not math.isfinite(tail):
        raise CFEvaluationError(f"non-finite tail {tail!r}")
    t = float(tail)
    for m in range(n, 0, -1):
        am = _coeff(spec, "a", m, x)
        lead = _coeff(spec, "b", m - 1, x) if m > 1 else 0.0
        if am == 0.0:
            t = lead
            continue
        if t == 0.0:
            raise CFEvaluationError(
                f"zero denominator while folding level {m} of spec {spec.name!r}"
            )
        t = lead + am / t
    return t
