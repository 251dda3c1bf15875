"""Evaluation kernels for continued fractions K_{k>=1}(a_k / b_k).

A fraction is described by its levels (a_k, b_k), k >= 1: coefficient
callables a(k, x), b(k, x), or a level stream (see CFSpec); no fraction in
the library has a leading term.  The n-th convergent A_n/B_n satisfies the
three-term (Wallis-Euler) recursion

    A_k = b_k A_{k-1} + a_k A_{k-2},      A_{-1} = 1, A_0 = 0,
    B_k = b_k B_{k-1} + a_k B_{k-2},      B_{-1} = 0, B_0 = 1.

The paper's approximations are one operation, eval_backward: fold the levels
innermost-first from a positive "tail" in place of the last denominator.
That fold (_fold) is written once, here: eval_backward runs it on any spec,
and gamma's fixed depths run it on a Gamma spec's level stream with the
tail b_n.  gauss folds its tail families in a loop of its own, with R_n's
domain check and its overflow rule, and the tests check it against
eval_backward.  From here both also read CFEvaluationError, the rescale
constants, the depth rule _check_depth and the record helper _frozen_slots
(gauss) or CFSpec (gamma).
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
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain, islice
from typing import Callable, Iterator, Optional


class CFEvaluationError(ArithmeticError):
    """A continued fraction could not be evaluated at the requested point."""


def _frozen_slots(cls):
    """Make every attribute set or delete on cls raise FrozenInstanceError.

    The __setattr__/__delattr__ that dataclass(frozen=True) writes call
    super() on the class that slots=True replaced, so a name that is not a
    field raised TypeError.  Constructors, the generated one through
    object.__setattr__, store fields through the slot descriptors, which
    never call the class's __setattr__, so building costs the same.
    """

    frozen = f"of a frozen {cls.__name__}"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {name!r} {frozen}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {name!r} {frozen}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls


@_frozen_slots
@dataclass(frozen=True, slots=True)
class CFSpec:
    """Coefficients of K(a_k/b_k), claimed for 0 < x < inf.

    forward_recurrence rejects x outside that interval.  Callers that need
    the closure (e.g. modified fractions at x = 0) go through eval_backward,
    which only validates coefficients.

    A spec gives its coefficients either as callables a(k, x), b(k, x), or
    as `levels`, a map from x to an endless iterator of (a_k, b_k) for
    k = 1, 2, ..., for fractions that compute each level from the one
    before; when `levels` is set, eval_backward and forward_recurrence read
    only it.  Every Gamma spec is a stream, with a and b None.

    Frozen and slotted, with the constructor dataclass generates (no timed
    path builds a spec): no __dict__, and dataclasses.replace works.
    """

    a: Optional[Callable[[int, float], float]] = None
    b: Optional[Callable[[int, float], float]] = None
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


def _non_finite(which, k, v, name):
    """The error for a coefficient a(k) or b(k) = v of spec name that is not
    finite."""
    return CFEvaluationError(
        f"non-finite coefficient {which}({k}) = {v!r} in spec {name!r}")


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
    if spec.levels is None:
        a, b = spec.a, spec.b
        levels = ((a(k, x), b(k, x)) for k in range(1, n + 1))
    else:
        levels = islice(spec.levels(x), n)
    for k, (ak, bk) in enumerate(levels, 1):
        if not math.isfinite(ak):
            raise _non_finite("a", k, ak, spec.name)
        if not math.isfinite(bk):
            raise _non_finite("b", k, bk, spec.name)
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


def _fold(levels, n, tail, name):
    """t <- b_{m-1} + a_m / t for m = n, ..., 1 from t = tail, with b_0 = 0.

    levels yields (a_m, b_m) innermost first, m = n, n-1, ..., 1; tail
    stands in for b_n, which is not read.  The tail, then each a_m and
    b_{m-1} as it is reached, must be finite, else CFEvaluationError names
    it; a zero numerator ends the fraction there (t = b_{m-1}), and a zero
    t under a nonzero a_m raises.  n = 0 returns the tail.
    """
    isfinite = math.isfinite
    if not isfinite(tail):
        raise CFEvaluationError(f"non-finite tail {tail!r}")
    t = float(tail)
    if n == 0:
        return t
    levels = iter(levels)
    am = next(levels)[0]
    # level 1 folds onto b_0 = 0, which turns a quotient of -0.0 into 0.0;
    # the a_0 that comes with it is never read
    for m, (a_next, lead) in zip(range(n, 0, -1), chain(levels, ((0.0, 0.0),))):
        if not isfinite(am):
            raise _non_finite("a", m, am, name)
        if not isfinite(lead):
            raise _non_finite("b", m - 1, lead, name)
        if am == 0.0:
            t = lead
        elif t == 0.0:
            raise CFEvaluationError(
                f"zero denominator while folding level {m} of spec {name!r}")
        else:
            t = lead + am / t
        am = a_next
    return t


def eval_backward(spec, x, n, tail):
    """Value of the depth-n fraction with the last denominator replaced by tail.

    Folds levels n, n-1, ..., 1 innermost-first:

        t <- b_{m-1} + a_m / t,    starting from t = tail, with b_0 = 0.

    With tail = b_n this reproduces forward_recurrence's A_n/B_n.  A zero
    numerator terminates the fraction exactly (the deeper levels cannot
    contribute), which is what lets integer shape parameters truncate the
    Gamma fractions without dividing by junk.  n = 0 returns tail itself.
    A stream spec's first n levels are listed and read in reverse; a
    callable spec's are computed one at a time, in constant memory.
    """
    n = _check_depth(n, "eval_backward")
    if spec.levels is None:
        a, b = spec.a, spec.b
        levels = ((a(k, x), b(k, x)) for k in range(n, 0, -1))
    else:
        levels = reversed(list(islice(spec.levels(x), n)))
    return _fold(levels, n, tail, spec.name)
