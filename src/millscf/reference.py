"""High-accuracy reference values for the Mills ratios.

Everything here is deliberately written from scratch rather than on top of
cf, gauss or gamma, so a bug in the evaluation engine cannot cancel against
the same bug in the check.  Two independent routes per quantity:

  Gaussian: entire-series summation for small x, and a deep classic fraction
  with a proven per-depth error bound for x >= 1.  The branches overlap on
  [1, 4] and are tested against each other there.  The bound
  d!/(B_d B_{d+1}) on the depth-d convergent is carried from level to level
  by one multiply, bound_d = bound_{d-1} d B_{d-1}/B_{d+1}; the ratio is
  taken before a level's power-of-two rescale, so the scale cancels and
  certification takes no logarithm.

  Gamma: below x = s + 1 the lower series,
  M_s(x) = exp((1-s) ln x + x + lgamma(s)) - sum_{k>=1} x^k/(s(s+1)...(s+k-1)),
  and from x = s + 1 on Legendre's contracted fraction
  x/(x + 1 - s + 1(s-1)/(x + 3 - s + 2(s-2)/(x + 5 - s + ...))), its
  denominator evaluated by modified Lentz (Press et al., Numerical Recipes,
  section 6.2).  At s = 1 the fraction's first numerator is 0, so it is
  x/x = 1 exactly; it answers there below x = 2 too, where the series would
  round.  For x >= 1 either value is cross-checked, to 1e-7, against
  Simpson quadrature of the tail integral integral_0^inf (1 + u/x)^(s-1)
  e^(-u) du, cut off where the rest of the integral is negligible.

reference_mills takes one x; reference_mills_grid takes a 1-D array and
runs the same two branches with the same stopping and certification rules
over all of it at once, for the grid scans and tables.  numpy is imported
by the array routes only, so a single point never loads it.

Both fraction routes share one certification step, _certify, which runs
the forward pass from any level's state.  The scalar route starts it at
level 1.  The array route sorts its points by x once: a larger x certifies
at a shallower depth, so the points still running stay a prefix of the
sorted array, and each level updates that prefix in place.  Once at most
_STRAGGLERS points are left, _certify finishes each of them from the level
the array loop reached.  Every point meets the same IEEE operations on
either route, so the two give the same bits.
"""

import math
from functools import lru_cache


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


def _certify(x, A, B, A_prev, B_prev, bound, depth, rel_tol, max_depth):
    """The forward pass of _mills_cf from level depth's state.

    Returns the first depth (below max_depth) whose carried bound is at
    most rel_tol times the running convergent A/B, as an int, or None.  The
    scalar route starts it at level 1; the grid route resumes it at
    whatever level its array loop handed an element over, so both do the
    same operations.  The level is carried as a float, so every product
    d A_{d-1} and d B_{d-1} is float-float; a double holds each level
    exactly, so the products are the same doubles as with an int level.
    """
    d, top = float(depth), float(max_depth)
    while d < top:
        if bound <= rel_tol * (A / B):
            return int(d)
        d += 1.0
        A, A_prev = x * A + d * A_prev, A
        dB = d * B_prev
        B_next = x * B + dB
        bound *= dB / B_next
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
    return None


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
    B = x * x + 1.0                   # B_2; A_1, B_1 = 1, x and A_2 = x
    depth = _certify(x, x, B, 1.0, x, 1.0 / (x * B), 1, rel_tol, max_depth)
    if depth is None:
        raise OracleError(
            f"classic fraction for R({x}) not certified within {max_depth} levels")
    t = x
    for k in range(depth, 1, -1):
        t = x + (k - 1.0) / t
    return 1.0 / t


# the array loop hands its last elements to _certify once no more than this
# many are left.  On a 2-vCPU x86 host a level of the array loop makes about
# 15 numpy calls of 0.5-1 us each on a short array, while _certify takes a
# point through a level in about 0.25 us.  Median of 40 interleaved runs
# with the handoff at 0, 16, 32, 48, 64, 96 and 128 points: 8.6, 7.5, 7.1,
# 6.9, 6.9, 7.1 and 7.6 ms on the figure grid (601 points on [0, 6]), and
# 15.7-16.3 ms on the table grid (20001 points on [0, 20]) for each
_STRAGGLERS = 48


def _mills_cf_grid(x, rel_tol=1e-15, max_depth=2000):
    """_mills_cf on an array, with the same arithmetic per element.

    The fraction's elements are sorted once by x.  A larger x certifies at
    a shallower depth, so the certified elements leave the sorted array as
    a suffix and the elements still running are a prefix: each level works
    in place on views of that prefix, with d B_{d-1} formed once.  An
    element certified while a larger one is still running keeps its first
    depth and is carried along, its later levels unused.  Once no more than
    _STRAGGLERS elements are left, each is finished by _certify, the scalar
    route's own loop, from the level the array loop reached.  The backward
    fold then runs level by level over the elements at least that deep,
    deepest first, with every level's prefix length from one searchsorted.
    """
    import numpy as np

    idx = np.flatnonzero(~_depth_one(x, rel_tol))
    idx = idx[np.argsort(x[idx], kind="stable")]
    xa = x[idx]
    # views of the running prefix: x, A_prev, B_prev, A, B and the bound of
    # _certify; each level swaps a with ap and b with bp
    xv, ap, bp = xa, np.ones_like(xa), xa.copy()     # x, A_1, B_1
    a, b = xa.copy(), xa * xa + 1.0                  # A_2, B_2
    bnd = 1.0 / (xa * b)
    w = np.empty_like(xa)                            # scratch
    dn = np.empty(xa.shape, dtype=bool)
    # certified depth per sorted element; max_depth while it is running
    got = g = np.full(xa.shape, max_depth, dtype=np.intp)
    m, d = xa.size, 1
    while m > _STRAGGLERS and d < max_depth:
        np.divide(a, b, out=w)
        w *= rel_tol
        np.less_equal(bnd, w, out=dn)
        np.minimum(g, d, out=g, where=dn)
        if dn[-1]:
            # cut the certified suffix: argmin finds its last running element
            r = int(dn[::-1].argmin())
            m = 0 if dn[-1 - r] else m - r
            if m <= _STRAGGLERS:
                break
            xv, a, b, ap, bp, bnd, w, dn, g = (
                v[:m] for v in (xv, a, b, ap, bp, bnd, w, dn, g))
        d += 1
        ap *= d
        np.multiply(xv, a, out=w)
        ap += w                       # A_{d+1} = x A_d + d A_{d-1}
        np.multiply(bp, d, out=w)     # d B_{d-1}
        np.multiply(xv, b, out=bp)
        bp += w                       # B_{d+1}
        w /= bp
        bnd *= w
        a, ap = ap, a
        b, bp = bp, b
        if b.max() > _BIG:   # B only, as in _certify
            big = b > _BIG
            for v in (a, b, ap, bp):
                np.multiply(v, _SHRINK, out=v, where=big)
    failed = []
    for i in np.flatnonzero(got[:m] == max_depth).tolist():
        depth = _certify(xv[i].item(), a[i].item(), b[i].item(), ap[i].item(),
                         bp[i].item(), bnd[i].item(), d, rel_tol, max_depth)
        if depth is None:
            failed.append(i)
        else:
            got[i] = depth
    if failed:
        first = idx[failed].min()   # in input order
        raise OracleError(f"classic fraction for R({x[first]}) not certified "
                          f"within {max_depth} levels")
    order = np.argsort(-got, kind="stable")   # deepest first
    xs, got = xa[order], got[order]
    t, q = xs.copy(), np.empty_like(xs)
    top = int(got[0]) if got.size else 1
    # for each k from top down to 2, how many elements are at least k deep
    counts = np.searchsorted(-got, np.arange(-top, -1), side="right")
    for k, c in zip(range(top, 1, -1), counts.tolist()):
        np.divide(k - 1.0, t[:c], out=q[:c])
        np.add(xs[:c], q[:c], out=t[:c])
    out = 1.0 / x
    out[idx[order]] = 1.0 / t
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
_QUAD_INTERVALS = 12000   # a Simpson step of 0.005


@lru_cache(maxsize=None)
def _quadrature_nodes(cutoff=_QUAD_CUTOFF):
    """The Simpson nodes u on [0, cutoff] and weights e^-u, once per cutoff
    and read-only."""
    import numpy as np

    u = np.linspace(0.0, cutoff, round(_QUAD_INTERVALS * cutoff / _QUAD_CUTOFF) + 1)
    w = np.exp(-u)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _gamma_quadrature(s, x):
    # M_s(x) = integral_0^inf (1 + u/x)^(s-1) e^(-u) du after t = x + u.  The
    # log integrand phi(u) = (s-1) log1p(u/x) - u is concave (s >= 1) or
    # falling, with phi' >= -1 and its top at u* = max(0, s-1-x); past a U
    # where phi is 40 below phi(u*) with slope at most -1/2 the tail is under
    # 2e-17 of M_s(x) >= (1 - 1/e) e^phi(u*).  U is the first such of 60, 120,
    # 240 and 480, or 480: past about 745 e^-u rounds to 0, and 0 times an
    # overflowed power (large s) is nan, not the inf the caller refuses.
    import numpy as np

    def phi(u):
        return (s - 1.0) * math.log1p(u / x) - u

    top, cutoff = phi(max(0.0, s - 1.0 - x)), _QUAD_CUTOFF
    while cutoff < 480.0 and (phi(cutoff) > top - 40.0 or s - 1.0 > 0.5 * (x + cutoff)):
        cutoff *= 2.0
    u, w = _quadrature_nodes(cutoff)
    with np.errstate(over="ignore"):
        y = (1.0 + u / x) ** (s - 1.0) * w
    h = cutoff / (u.size - 1)
    return float((h / 3.0) * (y[0] + y[-1]
                              + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


_GAMMA_CAP = 2**20   # series terms or fraction levels (911 at s = 1e6, x = s + 1)
# The series' difference first - sum keeps about first/value ulps of error;
# past this ratio (small shapes, where the value is about s E1(x) of the
# first term) it is refused.  The worst ratio a verify suite or a scipy test
# point reaches is 14.7, and the mpmath pin's (0.01, 1.0) is 451.
_GAMMA_CANCEL = 2.0**10


def _gamma_series(s, x):
    """M_s(x) = exp((1-s) ln x + x + lgamma(s)) - sum_{k>=1} x^k/(s...(s+k-1)),
    refused where the first term passes _GAMMA_CANCEL times the value."""
    try:
        first = math.exp((1.0 - s) * math.log(x) + x + math.lgamma(s))
    except OverflowError:
        raise OracleError(f"M_{s}({x}): the series' first term overflows") from None
    term = total = x / s
    k = s
    for _ in range(_GAMMA_CAP):
        k += 1.0
        term *= x / k   # x/(s+k) < 1 for x < s + 1
        if total + term == total:
            value = first - total
            if not _GAMMA_CANCEL * value >= first:
                raise OracleError(f"M_{s}({x}): the series cancels, its first "
                                  f"term {first!r} is past 2^10 times {value!r}")
            return value
        total += term
    raise OracleError(f"M_{s}({x}): series still moving after {_GAMMA_CAP} terms")


def _gamma_cf(s, x):
    """M_s(x) = x/D, D = (x + 1 - s) + K_{i>=1}(i(s-i)/(x + 2i + 1 - s)), by
    modified Lentz: exact where a numerator is 0, else to a factor 1 +- 2^-52."""
    f = c = x + (1.0 - s)   # at least 2, or x at s = 1
    d, i = 0.0, 0.0
    for _ in range(_GAMMA_CAP):
        i += 1.0
        a = i * (s - i)
        if a == 0.0:
            return x / f
        b = x + ((2.0 * i + 1.0) - s)
        d = 1.0 / ((b + a * d) or 1e-300)   # Lentz's stand-in for a 0
        c = (b + a / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return x / f
    raise OracleError(f"M_{s}({x}): fraction still moving after {_GAMMA_CAP} levels")


def reference_gamma_mills(s, x):
    """M_s(x) = x^(1-s) e^x Gamma(s, x): the lower series below x = s + 1,
    Legendre's fraction from there on and at s = 1, where it is exactly 1;
    checked against quadrature for x >= 1.

    The series' difference cancels at small shapes; where its first term
    passes 2^10 times the value it raises OracleError.  What the cap lets
    through is about 2.6e-12 relative at worst (1500 random points with s
    in [1e-8, 1] and x below s + 1, against mpmath at 40 digits); at
    (1.7e-8, 0.66) the uncapped series was 2e-7 off."""
    s, x = float(s), float(x)
    if not (0.0 < s < math.inf and 0.0 < x < math.inf):
        raise ValueError("reference_gamma_mills needs 0 < s < inf and 0 < x < inf")
    # the quadrature first: at large s its power overflows before the
    # series' first term does
    quad = _gamma_quadrature(s, x) if x >= 1.0 else None
    if quad is not None and not math.isfinite(quad):
        raise OracleError(f"M_{s}({x}): quadrature {quad!r} is not finite")
    value = _gamma_series(s, x) if x < s + 1.0 and s != 1.0 else _gamma_cf(s, x)
    if quad is not None and abs(value - quad) > 1e-7 * max(1.0, abs(value)):
        raise OracleError(f"M_{s}({x}): {value!r} vs quadrature {quad!r}")
    return value
