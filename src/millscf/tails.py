"""Terminating-denominator families for the Gaussian Mills fraction.

The depth-n approximation R_n(x) = 1/(x + 1/(x + 2/(x + ... + n/beta_n(x))))
is exact at x = 0 precisely when

    beta_n(0) = sqrt(2) Gamma(n/2 + 1) / Gamma(n/2 + 1/2),

which satisfies beta_n(0) = n / beta_{n-1}(0), beta_0(0) = sqrt(2/pi), and
sits strictly between sqrt(n + 1/2) and sqrt(n + 1).  Writing
lambda_n = beta_n(0)^2 - n and r_n = 2(beta_n(0)^2 - n - 1/2), the error
functional Delta_n(x) = integral_x^inf phi - phi(x) R_n(x) additionally has
Delta_n'(0) = 0 iff beta_n'(0) = lambda_n, and a vanishing second derivative
iff beta_n''(0)/beta_n(0) = r_n.  Both lambda_n and r_n are positive for all n.

Each family below packages beta_n(x) and which of the three conditions at 0
it satisfies.  bound_side "alternating" marks families with proven
even-upper/odd-lower bracketing; everything else is "unknown".  Every
built-in family also carries its closed-form first and second derivatives,
which the proofs in verify.py read; a custom tail carries its value only.

value(n, x) takes a float or, on the grid paths, a 1-D numpy array of x;
deriv and second take floats only.  A numpy array goes through numpy and
anything else through math.  That test needs no numpy, since no array can
exist before numpy is loaded: numpy is imported only inside the array
branches, and a call on a float never loads it.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from .cf import _check_depth

# depths in use at once are few: n <= 60 even in long scans
_CONSTANTS_CACHE = 128


def _is_array(x):
    """True for a numpy array, decided without importing numpy.

    Callers test isinstance(x, float) first, so a single point never pays
    for the module lookup.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


@lru_cache(maxsize=_CONSTANTS_CACHE)
def beta0(n):
    """Exactness value beta_n(0), by log-gamma to stay finite for large n.

    The depth rule (cf._check_depth) checks n on a cache miss only.
    """
    half = _check_depth(n, "beta0") / 2.0
    return math.exp(0.5 * math.log(2.0)
                    + math.lgamma(half + 1.0) - math.lgamma(half + 0.5))


@dataclass(frozen=True)
class ModConstants:
    """The constants pinning a depth-n tail at the origin, and those derived.

    The one per-depth record every family reads: beta_sq, sqrt_r and c are
    computed here once per depth, not on every evaluation.
    """

    n: int
    beta_at_zero: float
    lam: float      # required slope beta_n'(0)
    r: float        # required curvature ratio beta_n''(0)/beta_n(0)
    beta_sq: float  # beta_n(0)^2
    sqrt_r: float   # improved-expo's decay rate
    c: float        # improved-expo's slope lambda_n + sqrt(r_n) beta_n(0)


@lru_cache(maxsize=_CONSTANTS_CACHE)
def mod_constants(n):
    """The ModConstants record of depth n, checked by the depth rule.

    r_n > 0 for every n, but as a difference of numbers near n it loses its
    digits; where it comes out <= 0 (from n = 31301), ValueError names n.
    """
    n = _check_depth(n, "mod_constants")
    b = beta0(n)
    g = b * b
    lam = g - n
    r = 2.0 * (g - n - 0.5)
    if not r > 0.0:
        raise ValueError(f"r_n = {r!r} is not positive at depth n={n!r}: the "
                         "tail constants have lost their precision there")
    rate = math.sqrt(r)
    return ModConstants(n=n, beta_at_zero=b, lam=lam, r=r, beta_sq=g,
                        sqrt_r=rate, c=lam + rate * b)


@dataclass(frozen=True)
class TailFamily:
    kind: str
    value: Callable[[int, float], float]
    deriv: Optional[Callable[[int, float], float]] = None
    second: Optional[Callable[[int, float], float]] = None
    fits_value: bool = False
    fits_slope: bool = False
    fits_curvature: bool = False
    bound_side: str = "unknown"   # "alternating" or "unknown"


def _zero(n, x):
    return 0.0


def classic():
    return TailFamily(
        kind="classic",
        value=lambda n, x: x,
        deriv=lambda n, x: 1.0,
        second=_zero,
        bound_side="alternating",
    )


# h = x/2 past 2^511 has h^2 + g round to h^2 (g = beta_n(0)^2 is about n)
# and sqrt(h^2) is h, so x/2 + sqrt(h^2 + g) is x there, with slope 1;
# squaring h would overflow.
_FLAT = 2.0 ** 512


def _half_root(x, g):
    """x/2 + sqrt((x/2)^2 + g) on a float or an array; finite for finite x."""
    if isinstance(x, float) or not _is_array(x):
        if x > _FLAT:
            return x
        return x / 2.0 + math.sqrt((x / 2.0) ** 2 + g)
    import numpy as np

    h = np.minimum(x, _FLAT) / 2.0
    return np.where(x > _FLAT, x, x / 2.0 + np.sqrt(h ** 2 + g))


def _half_root_deriv(x, g):
    if x > _FLAT:
        return 1.0
    return 0.5 + (x / 4.0) / math.sqrt((x / 2.0) ** 2 + g)


def _half_root_second(x, g):
    # g/(4 s^3), s = sqrt(h^2 + g): no cancellation, unlike the textbook
    # 1/(4 s) - h^2/(4 s^3), and dividing by s three times never overflows
    s = x / 2.0 if x > _FLAT else math.sqrt((x / 2.0) ** 2 + g)
    return 0.25 * g / s / s / s


def limit_ansatz():
    """x/2 + sqrt((x/2)^2 + n), the fixed point of t = x + n/t.

    The n = 0 member degenerates to the classic tail (and vanishes at
    x = 0, a point the fold refuses, as it refuses any tail that is not > 0).
    """

    def val(n, x):
        return x if n == 0 else _half_root(x, n)

    def der(n, x):
        return 1.0 if n == 0 else _half_root_deriv(x, n)

    def sec(n, x):
        return 0.0 if n == 0 else _half_root_second(x, n)

    return TailFamily(kind="limit-ansatz", value=val, deriv=der, second=sec)


def sqrt_family():
    """x/2 + sqrt((x/2)^2 + beta_n(0)^2): exact at 0, alternating bounds."""
    return TailFamily(
        kind="sqrt",
        value=lambda n, x: _half_root(x, mod_constants(n).beta_sq),
        deriv=lambda n, x: _half_root_deriv(x, mod_constants(n).beta_sq),
        second=lambda n, x: _half_root_second(x, mod_constants(n).beta_sq),
        fits_value=True,
        bound_side="alternating",
    )


def linear():
    """lambda_n x + beta_n(0): exact value and slope at 0, alternating."""

    def val(n, x):
        k = mod_constants(n)
        return k.lam * x + k.beta_at_zero

    return TailFamily(kind="linear", value=val,
                      deriv=lambda n, x: mod_constants(n).lam, second=_zero,
                      fits_value=True, fits_slope=True,
                      bound_side="alternating")


def lee_linear():
    return TailFamily(
        kind="lee",
        value=lambda n, x: x + math.sqrt(n + 1.0),
        deriv=lambda n, x: 1.0,
        second=_zero,
    )


def shift_linear():
    return TailFamily(
        kind="shift-linear",
        value=lambda n, x: x + mod_constants(n).beta_at_zero,
        deriv=lambda n, x: 1.0,
        second=_zero,
        fits_value=True,
    )


def improved_expo():
    """c_n x + beta_n(0) exp(-sqrt(r_n) x), all three conditions at 0.

    c_n = lambda_n + sqrt(r_n) beta_n(0) is the unique linear coefficient
    with beta_n'(0) = lambda_n.
    """

    def val(n, x):
        k = mod_constants(n)
        if isinstance(x, float) or not _is_array(x):
            return k.c * x + k.beta_at_zero * math.exp(-k.sqrt_r * x)
        import numpy as np

        return k.c * x + k.beta_at_zero * np.exp(-k.sqrt_r * x)

    def der(n, x):
        k = mod_constants(n)
        return k.c - k.sqrt_r * k.beta_at_zero * math.exp(-k.sqrt_r * x)

    def sec(n, x):
        k = mod_constants(n)
        return k.r * k.beta_at_zero * math.exp(-k.sqrt_r * x)

    return TailFamily(kind="improved-expo", value=val, deriv=der, second=sec,
                      fits_value=True, fits_slope=True, fits_curvature=True)


def custom(value):
    """Caller-supplied tail: its value alone, with no derivatives.

    value(n, x) is called with a 1-D numpy array of x on the grid paths
    (gauss.delta on a grid, the CLI's table and figure) and returns an array
    of the same shape there, or one float for every x.
    """
    if not callable(value):
        raise TypeError("custom tails need a callable value")
    return TailFamily(kind="custom", value=value)


FAMILIES = {
    "classic": classic,
    "limit-ansatz": limit_ansatz,
    "sqrt": sqrt_family,
    "linear": linear,
    "lee": lee_linear,
    "shift-linear": shift_linear,
    "improved-expo": improved_expo,
}


_RESOLVED = {}   # name -> (factory, the family it built)


def get_family(family):
    """Resolve a family name or pass a TailFamily through.

    A name is built once and rebuilt only when FAMILIES maps it to another
    factory; families are frozen and their closures hold no state, so one
    instance is safely shared.
    """
    if isinstance(family, TailFamily):
        return family
    try:
        factory = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None
    hit = _RESOLVED.get(family)
    if hit is None or hit[0] is not factory:
        hit = _RESOLVED[family] = (factory, factory())
    return hit[1]
