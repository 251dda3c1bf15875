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

Each family below packages beta_n(x), its derivative, and (where cheap) its
second derivative, plus which of the three conditions at 0 it satisfies.
bound_side "alternating" marks families with proven even-upper/odd-lower
bracketing; everything else is "unknown".

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
    """Exactness value beta_n(0), by log-gamma to stay finite for large n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    half = n / 2.0
    return math.exp(0.5 * math.log(2.0)
                    + math.lgamma(half + 1.0) - math.lgamma(half + 0.5))


@dataclass(frozen=True)
class ModConstants:
    """The three constants pinning a depth-n tail at the origin."""

    n: int
    beta_at_zero: float
    lam: float   # required slope beta_n'(0)
    r: float     # required curvature ratio beta_n''(0)/beta_n(0)


@lru_cache(maxsize=_CONSTANTS_CACHE)
def mod_constants(n):
    b = beta0(n)
    lam = b * b - n
    r = 2.0 * (b * b - n - 0.5)
    return ModConstants(n=n, beta_at_zero=b, lam=lam, r=r)


@dataclass(frozen=True)
class TailFamily:
    kind: str
    value: Callable[[int, float], float]
    deriv: Callable[[int, float], float]
    second: Optional[Callable[[int, float], float]] = None
    fits_value: bool = False
    fits_slope: bool = False
    fits_curvature: bool = False
    bound_side: str = "unknown"   # "alternating" or "unknown"

    def second_deriv(self, n, x):
        """beta_n''(x); central differences of deriv when no closed form.

        The fallback steps by h = 1e-5 each way; below x = h, near the left
        edge of a custom family's data range, it takes a one-sided difference.
        """
        if self.second is not None:
            return self.second(n, x)
        h = 1e-5
        if x - h < 0.0:
            return (self.deriv(n, x + h) - self.deriv(n, x)) / h
        return (self.deriv(n, x + h) - self.deriv(n, x - h)) / (2.0 * h)


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
    x = 0, so that single point is rejected upstream).
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
    g = lru_cache(maxsize=_CONSTANTS_CACHE)(lambda n: beta0(n) ** 2)
    return TailFamily(
        kind="sqrt",
        value=lambda n, x: _half_root(x, g(n)),
        deriv=lambda n, x: _half_root_deriv(x, g(n)),
        second=lambda n, x: _half_root_second(x, g(n)),
        fits_value=True,
        bound_side="alternating",
    )


def linear():
    """lambda_n x + beta_n(0): exact value and slope at 0, alternating."""

    @lru_cache(maxsize=_CONSTANTS_CACHE)
    def constants(n):
        c = mod_constants(n)
        return c.lam, c.beta_at_zero

    def val(n, x):
        lam, b = constants(n)
        return lam * x + b

    def der(n, x):
        return constants(n)[0]

    return TailFamily(kind="linear", value=val, deriv=der, second=_zero,
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
        value=lambda n, x: x + beta0(n),
        deriv=lambda n, x: 1.0,
        second=_zero,
        fits_value=True,
    )


def improved_expo(slope_fit=True):
    """c_n x + beta_n(0) exp(-sqrt(r_n) x), all three conditions at 0.

    slope_fit=True (default) takes c_n = lambda_n + sqrt(r_n) beta_n(0), the
    unique linear coefficient with beta_n'(0) = lambda_n.  slope_fit=False
    keeps the alternative c_n = lambda_n + r_n beta_n(0) for comparison; it
    breaks the slope condition and its measured worst error is two orders of
    magnitude larger, so it exists only to demonstrate that.
    """

    @lru_cache(maxsize=_CONSTANTS_CACHE)
    def constants(n):
        """(c_n, beta_n(0), -sqrt(r_n))."""
        c = mod_constants(n)
        rate = math.sqrt(c.r)
        return (c.lam + (rate if slope_fit else c.r) * c.beta_at_zero,
                c.beta_at_zero, -rate)

    def val(n, x):
        cn, b, neg_rate = constants(n)
        if isinstance(x, float) or not _is_array(x):
            return cn * x + b * math.exp(neg_rate * x)
        import numpy as np

        return cn * x + b * np.exp(neg_rate * x)

    def der(n, x):
        cn, b, neg_rate = constants(n)
        return cn + neg_rate * b * math.exp(neg_rate * x)

    def sec(n, x):
        c = mod_constants(n)
        rate = math.sqrt(c.r)
        return c.r * c.beta_at_zero * math.exp(-rate * x)

    return TailFamily(kind="improved-expo", value=val, deriv=der, second=sec,
                      fits_value=True, fits_slope=slope_fit,
                      fits_curvature=True)


def custom(value, deriv, second=None):
    """Caller-supplied tail; second derivative falls back to differences.

    value(n, x) is called with a 1-D numpy array of x on the grid paths
    (gauss.delta on a grid, the CLI's table and figure) and must return an
    array of the same shape there; deriv and second only ever see floats.
    """
    if not callable(value) or not callable(deriv):
        raise TypeError("custom tails need callable value and deriv")
    return TailFamily(kind="custom", value=value, deriv=deriv, second=second)


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
