"""High-accuracy reference values for the Mills ratios.

Everything here is deliberately written from scratch rather than on top of
cf/gauss, so a bug in the evaluation engine cannot cancel against the same
bug in the check.  Two independent routes per quantity:

  Gaussian: entire-series summation for small x, and a deep classic fraction
  with a proven per-depth error bound for x >= 1.  The branches overlap on
  [1, 4] and are tested against each other there.  The bound
  d!/(B_d B_{d+1}) on the depth-d convergent is carried from level to level
  by one multiply, bound_d = bound_{d-1} d B_{d-1}/B_{d+1}; the ratio is
  taken before a level's power-of-two rescale, so the scale cancels and
  certification takes no logarithm.

  Gamma: the Laguerre-type fraction run to convergence, cross-checked for
  x >= 1 against direct Simpson quadrature of the tail integral
  integral_0^inf (1 + u/x)^(s-1) e^(-u) du.

reference_mills takes one x; reference_mills_grid takes a 1-D array and
runs the same two branches with the same stopping and certification rules
over all of it at once, for the grid scans and tables.  numpy is imported
by the array routes only, so a single point never loads it.
"""

import math
from functools import lru_cache

from .gamma import ConvergenceError, laguerre


class OracleError(RuntimeError):
    """A reference value could not be certified."""


_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_BIG = 2.0 ** 500
_SHRINK = 2.0 ** -512


def _phi(x):
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def _mills_series(x, tol=1e-18, cap=200):
    # c_0 = sqrt(pi/2), c_1 = -1, c_{k+1} = c_{k-1}/(k+1); entire in x
    c_prev = math.sqrt(0.5 * math.pi)
    c_cur = -1.0
    total = c_prev
    xk = x
    k = 1
    while k < cap:
        term = c_cur * xk
        total += term
        if abs(term) < tol:
            return total
        c_prev, c_cur = c_cur, c_prev / (k + 1.0)
        xk *= x
        k += 1
    raise OracleError(f"series for R({x}) still moving after {cap} terms")


def _mills_series_grid(x, tol=1e-18, cap=200):
    """_mills_series on an array: each element stops at its own first small term."""
    import numpy as np

    out = np.empty_like(x)
    idx = np.arange(x.size)
    c_prev = math.sqrt(0.5 * math.pi)
    c_cur = -1.0
    total = np.full_like(x, c_prev)
    xk = x.copy()
    k = 1
    while k < cap:
        term = c_cur * xk
        total += term
        done = np.abs(term) < tol
        out[idx[done]] = total[done]
        keep = ~done
        if not keep.any():
            return out
        idx, x, xk, total = idx[keep], x[keep], xk[keep], total[keep]
        c_prev, c_cur = c_cur, c_prev / (k + 1.0)
        xk *= x
        k += 1
    raise OracleError(f"series for R({x[0]}) still moving after {cap} terms")


def _depth_one(x, rel_tol):
    # the depth-1 bound 1/(x (x^2 + 1)) is under rel_tol times the depth-2
    # convergent x/(x^2 + 1) exactly when rel_tol x^2 >= 1; there the value is
    # 1/x with no recursion, which would overflow once x passes about 2^512
    return x >= (1.0 / rel_tol) ** 0.5


def _mills_cf(x, rel_tol=1e-15, max_depth=2000):
    """Deep classic fraction with certified depth selection.

    Forward pass: consecutive convergents bracket R, so
    |R - R_d| <= bound_d = d!/(B_d B_{d+1}).  The bound is carried, not
    recomputed: bound_1 = 1/(B_1 B_2) = 1/(x (x^2 + 1)) and
    bound_d = bound_{d-1} d B_{d-1}/B_{d+1}.  The ratio is taken before the
    level's 2^-512 rescale, when both B share one scale, so the scale
    cancels and no logarithm is needed.  The first depth d (checked at
    levels 2 ... max_depth, i.e. d < max_depth) whose bound drops under
    rel_tol times the running value is kept, then re-evaluated backward
    (the numerically benign direction) at exactly that depth.
    """
    if _depth_one(x, rel_tol):
        return 1.0 / x
    A_prev, B_prev = 1.0, x           # A_1, B_1
    A, B = x, x * x + 1.0             # A_2, B_2
    bound = 1.0 / (x * B)
    depth = 1
    while depth < max_depth:
        if bound <= rel_tol * (A / B):
            break
        depth += 1
        A, A_prev = x * A + depth * A_prev, A
        B_next = x * B + depth * B_prev
        bound *= depth * B_prev / B_next
        B, B_prev = B_next, B
        # only B is watched: for x >= 1 every convergent A/B is at most
        # 1/x <= 1, so A passes 2^500 only after B has (on the branch
        # checks' [0.5, 1) A/B has settled below 1 by then, so the rescales
        # fall on the same levels as when A was watched too)
        if B > _BIG:
            A *= _SHRINK
            B *= _SHRINK
            A_prev *= _SHRINK
            B_prev *= _SHRINK
    else:
        raise OracleError(
            f"classic fraction for R({x}) not certified within {max_depth} levels")
    t = x
    for k in range(depth, 1, -1):
        t = x + (k - 1.0) / t
    return 1.0 / t


def _mills_cf_grid(x, rel_tol=1e-15, max_depth=2000):
    """_mills_cf on an array, with the same arithmetic per element.

    The forward pass runs on the uncertified elements only; each is dropped
    at the level that certifies it.  The backward fold then runs level by
    level over the elements at least that deep, deepest first.
    """
    import numpy as np

    depth = np.ones(x.shape, dtype=np.intp)
    idx = np.flatnonzero(~_depth_one(x, rel_tol))
    xa = x[idx]
    # copies: the rescale below scales these in place
    A_prev, B_prev = np.ones_like(xa), xa.copy()
    A, B = xa.copy(), xa * xa + 1.0
    bound = 1.0 / (xa * B)
    d = 1
    while idx.size and d < max_depth:
        done = bound <= rel_tol * (A / B)
        if done.any():
            depth[idx[done]] = d
            keep = ~done
            idx, xa, A, B, A_prev, B_prev, bound = (
                v[keep] for v in (idx, xa, A, B, A_prev, B_prev, bound))
        d += 1
        A, A_prev = xa * A + d * A_prev, A
        B_next = xa * B + d * B_prev
        bound *= d * B_prev / B_next
        B, B_prev = B_next, B
        big = B > _BIG   # B only, as in _mills_cf
        if big.any():
            for v in (A, B, A_prev, B_prev):
                v[big] *= _SHRINK
    if idx.size:
        raise OracleError(f"classic fraction for R({x[idx[0]]}) not certified "
                          f"within {max_depth} levels")
    order = np.argsort(-depth, kind="stable")   # deepest first
    xs, neg_depth = x[order], -depth[order]
    t = xs.copy()
    for k in range(int(depth.max(initial=1)), 1, -1):
        c = np.searchsorted(neg_depth, -k, side="right")   # at least k deep
        t[:c] = xs[:c] + (k - 1.0) / t[:c]
    out = np.empty_like(x)
    out[order] = 1.0 / t
    return out


def reference_mills(x):
    """R(x) to close to machine precision for x >= 0."""
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError("reference_mills needs x >= 0")
    return _certified_mills(x)


# verify asks for about 400 values at under 200 distinct x; a scan of
# distinct points must not grow it forever
@lru_cache(maxsize=1024)
def _certified_mills(x):
    if x < 1.0:
        return _mills_series(x)
    return _mills_cf(x)


def reference_mills_grid(xs):
    """reference_mills over a 1-D float array, with the same arithmetic.

    Both routes do the same IEEE operations per element, so every value is
    bit-identical to reference_mills's.  Single points go through
    reference_mills: it is far cheaper than a one-element array.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    if x.ndim != 1:
        raise ValueError("reference_mills_grid needs a 1-D array")
    if not np.all(x >= 0.0):
        raise ValueError("reference_mills needs x >= 0")
    out = np.empty_like(x)
    small = x < 1.0
    out[small] = _mills_series_grid(x[small])
    out[~small] = _mills_cf_grid(x[~small])
    return out


def reference_tail(x):
    """Upper tail integral of the standard normal, phi(x) R(x)."""
    return _phi(x) * reference_mills(x)


_QUAD_CUTOFF = 60.0
_QUAD_INTERVALS = 12000


def _gamma_quadrature(s, x):
    # M_s(x) = integral_0^inf (1 + u/x)^(s-1) e^(-u) du after t = x + u;
    # beyond u = 60 the integrand is below 1e-18 for every (s, x) we accept
    import numpy as np

    u = np.linspace(0.0, _QUAD_CUTOFF, _QUAD_INTERVALS + 1)
    y = (1.0 + u / x) ** (s - 1.0) * np.exp(-u)
    h = _QUAD_CUTOFF / _QUAD_INTERVALS
    return float((h / 3.0) * (y[0] + y[-1]
                              + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def reference_gamma_mills(s, x):
    """M_s(x) = x^(1-s) e^x Gamma(s, x), certified by two disjoint methods."""
    s, x = float(s), float(x)
    if not (s > 0.0 and x > 0.0):
        raise ValueError("reference_gamma_mills needs s > 0 and x > 0")
    try:
        value = laguerre(s, x)
    except ConvergenceError as exc:
        raise OracleError(f"M_{s}({x}): fraction did not settle") from exc
    if x >= 1.0:
        quad = _gamma_quadrature(s, x)
        if abs(value - quad) > 1e-7 * max(1.0, abs(value)):
            raise OracleError(
                f"M_{s}({x}): fraction {value!r} vs quadrature {quad!r}")
    return value
