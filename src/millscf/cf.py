"""Evaluation kernels for continued fractions K_{k>=1}(a_k / b_k).

A fraction is described by coefficient callables a(k, x), b(k, x) for levels
k >= 1; no fraction in the library has a leading term.  The n-th convergent
A_n/B_n satisfies the three-term (Wallis-Euler) recursion

    A_k = b_k A_{k-1} + a_k A_{k-2},      A_{-1} = 1, A_0 = 0,
    B_k = b_k B_{k-1} + a_k B_{k-2},      B_{-1} = 0, B_0 = 1,

and equals the determinant of a tridiagonal matrix with b's on the diagonal,
-1 above and a's below (continuant).  Three evaluation routes are provided:

  * forward_recurrence: the recursion above, with power-of-two rescaling so
    that B_n (which can grow like sqrt(n!)) never overflows a double;
  * eval_backward: folds the levels innermost-first, replacing the last
    denominator b_n by an arbitrary positive "tail" value.  This is the
    numerically preferred route and the hook for modified terminating
    denominators;
  * continuant_oracle: the tridiagonal determinants evaluated by LU
    factorization, independent of both recursions (small n only).

Convergents are indexed by the number of levels consumed: depth 1 of the
Laplace fraction for the Gaussian Mills ratio is 1/x.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional


class CFEvaluationError(ArithmeticError):
    """A continued fraction could not be evaluated at the requested point."""


class InvalidTransformError(ValueError):
    """An equivalence transform used a vanishing or ill-normalized multiplier."""


@dataclass(frozen=True)
class CFSpec:
    """Coefficients of K(a_k/b_k), claimed for 0 < x < inf.

    The forward routes reject x outside that interval.  Callers that need
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


def _check_depth(n):
    if n < 0:
        raise ValueError("depth n must be >= 0")


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


def _forward_states(spec, x, n):
    """The Wallis-Euler states (A, B, A_prev, B_prev, a_scale, b_scale) at 0..n.

    Each pair is rescaled by 2**-512 on its own whenever one of its two
    continuants exceeds 2**500 in magnitude (and back up on underflow),
    tracking the exponent; a shared scale would push the smaller pair to 0
    (at x = 1e300 the numerators A fall about x below the B).  A level with
    |a_k| + |b_k| above 2**512 could overflow even from there, so both pairs
    are scaled down by 2**-512 before the multiply.
    """
    A_prev, B_prev = 1.0, 0.0
    A, B = 0.0, 1.0
    a_scale = b_scale = 0
    yield A, B, A_prev, B_prev, a_scale, b_scale
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
        yield A, B, A_prev, B_prev, a_scale, b_scale


def forward_recurrence(spec, x, n):
    """Run the Wallis-Euler recursion to depth n and return the state."""
    _check_depth(n)
    _check_x(spec, x)
    *_, (A, B, A_prev, B_prev, a_scale, b_scale) = _forward_states(spec, x, n)
    return ConvergentState(A=A, B=B, A_prev=A_prev, B_prev=B_prev, depth=n,
                           scale_log2=b_scale, a_scale_log2=a_scale)


def convergents(spec, x, n):
    """Values of the first n convergents (depths 1..n) in one forward pass."""
    _check_depth(n)
    _check_x(spec, x)
    states = _forward_states(spec, x, n)
    next(states)   # depth 0 has no convergent
    out = []
    for depth, (A, B, _, _, a_scale, b_scale) in enumerate(states, 1):
        if B == 0.0:
            raise CFEvaluationError(f"vanishing denominator B at depth {depth}")
        out.append(math.ldexp(A / B, a_scale - b_scale))
    return out


def eval_backward(spec, x, n, tail):
    """Value of the depth-n fraction with the last denominator replaced by tail.

    Folds levels n, n-1, ..., 1 innermost-first:

        t <- b_{m-1} + a_m / t,    starting from t = tail, with b_0 = 0.

    With tail = b(n, x) this reproduces forward_recurrence's A_n/B_n.  A zero
    numerator terminates the fraction exactly (the deeper levels cannot
    contribute), which is what lets integer shape parameters truncate the
    Gamma fractions without dividing by junk.  n = 0 returns tail itself.
    """
    _check_depth(n)
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


def eval_doubly_modified(spec, x, n, alpha, gamma):
    """Convergent with the last level replaced by alpha / (b_n + gamma).

    Equals (A_n + gamma A_{n-1} + (alpha - a_n) A_{n-2}) /
           (B_n + gamma B_{n-1} + (alpha - a_n) B_{n-2}),
    computed from the depth n-1 state as ((b_n+gamma) A_{n-1} + alpha A_{n-2})
    over the same combination of B's.  alpha = a_n, gamma = 0 reduces to the
    plain convergent; alpha = 0 collapses to the depth n-1 convergent.
    """
    if n < 2:
        raise ValueError("doubly modified evaluation needs depth n >= 2")
    st = forward_recurrence(spec, x, n - 1)
    bn = _coeff(spec, "b", n, x)
    num = (bn + gamma) * st.A + alpha * st.A_prev
    den = (bn + gamma) * st.B + alpha * st.B_prev
    if den == 0.0:
        raise CFEvaluationError(f"vanishing modified denominator at depth {n}")
    return num / den


def equivalence_transform(spec, p):
    """Spec with a'_k = p(k-1,x) p(k,x) a_k and b'_k = p(k,x) b_k.

    Convergents are unchanged at every depth.  p(0, x) must be 1 and no
    p(k, x) may vanish; violations raise InvalidTransformError at evaluation
    time (the multipliers may depend on x, so they cannot be checked here).
    """

    def pval(k, x):
        v = p(k, x)
        if k == 0:
            if v != 1.0:
                raise InvalidTransformError(f"p(0, {x!r}) = {v!r}, must be 1")
            return 1.0
        if v == 0.0:
            raise InvalidTransformError(f"p({k}, {x!r}) = 0")
        return v

    def a2(k, x):
        return pval(k - 1, x) * pval(k, x) * spec.a(k, x)

    def b2(k, x):
        return pval(k, x) * spec.b(k, x)

    return CFSpec(a=a2, b=b2, name=f"{spec.name}|equiv")


_CONTINUANT_MAX = 8


def continuant_oracle(spec, x, n):
    """(A_n, B_n) as tridiagonal determinants via np.linalg.det, n <= 8.

    Independent of both recursions; small n only because the determinant
    route has no rescaling.
    """
    import numpy as np

    if not 0 <= n <= _CONTINUANT_MAX:
        raise ValueError(f"continuant oracle supports 0 <= n <= {_CONTINUANT_MAX}")
    _check_x(spec, x)
    m = np.zeros((n + 1, n + 1))   # m[0, 0] is A_0 = 0
    for k in range(1, n + 1):
        m[k, k] = _coeff(spec, "b", k, x)
        m[k - 1, k] = -1.0
        m[k, k - 1] = _coeff(spec, "a", k, x)
    a_det = float(np.linalg.det(m))
    b_det = float(np.linalg.det(m[1:, 1:]))
    return a_det, b_det
