"""The Gamma front door gamma_mills(s, x), against mpmath over the whole domain."""

import inspect
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp.libhyper import NoConvergence

import millscf
from millscf import gamma
from millscf.gamma import (
    ConvergenceError,
    bounds_s01,
    cf_l1,
    gamma_mills,
    laguerre,
    lower_cf,
    reduce_s,
    winitzki_cf,
)

DOUBLE_MAX = sys.float_info.max
TINY = 2.0**-1022   # below it the bound is absolute: 1e-12 * 2^-1022
REL_TOL = 1e-12
MAX_SHAPE = 2.0**20 + 1.0


def _legendre(s, x):
    """Gamma(s, x) e^x x^-s from Legendre's fraction by modified Lentz."""
    tiny = mpmath.mpf(10) ** (-3 * mpmath.mp.dps)
    eps = mpmath.mpf(10) ** (3 - mpmath.mp.dps)
    b = x + 1 - s
    c, d = 1 / tiny, 1 / b
    h = d
    i = 1
    while True:
        an = -i * (i - s)
        b += 2
        d = an * d + b
        d = 1 / (d or tiny)
        c = b + an / c
        c = c or tiny
        h *= d * c
        if abs(d * c - 1) < eps:
            return h
        i += 1


def mp_gamma_mills(s, x):
    """M_s(x) = x^(1-s) e^x Gamma(s, x) at 30 digits.  mpmath's gammainc
    gives up at large s near x = 2s; Legendre's fraction takes over there."""
    with mpmath.workdps(30):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        try:
            return x ** (1 - s) * mpmath.exp(x) * mpmath.gammainc(s, x)
        except NoConvergence:
            return x * _legendre(s, x)


def _assert_front_door(s, x, call=gamma_mills):
    """Within 1e-12 relative (1e-12 * 2^-1022 absolute below 2^-1022) of
    mpmath, or OverflowError naming the largest double where M_s(x) is past it."""
    want = mp_gamma_mills(s, x)
    if want > DOUBLE_MAX:
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            call(s, x)
        return "overflow"
    got = call(s, x)
    assert abs(got - want) <= REL_TOL * max(want, TINY), (s, x, got, float(want))
    return "value"


def test_gamma_mills_is_public():
    assert millscf.gamma_mills is gamma_mills
    assert "gamma_mills" in millscf.__all__


def test_gamma_mills_on_the_log_grid():
    # 30 shapes in [1e-2, 200] by 40 abscissas in [1e-6, 1e3]
    seen = {"value": 0, "overflow": 0}
    for s in np.geomspace(1e-2, 200.0, 30).tolist():
        for x in np.geomspace(1e-6, 1e3, 40).tolist():
            seen[_assert_front_door(s, x)] += 1
    assert seen == {"value": 1108, "overflow": 92}, seen


_POSITIVE = st.floats(min_value=0.0, max_value=DOUBLE_MAX, exclude_min=True)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=MAX_SHAPE, exclude_min=True) | _POSITIVE,
       x=_POSITIVE)
@example(s=2.2e-16, x=1.0)          # the lower series alone gives -30.0 here
@example(s=5e-324, x=5e-324)        # a subnormal value: the absolute bound
@example(s=MAX_SHAPE, x=MAX_SHAPE + 1.0)
@example(s=0.999, x=1.999)          # the fraction's slowest corner
@example(s=200.5, x=150.0)          # series shapes end, reduce_s takes over
def test_gamma_mills_within_1e_12_of_mpmath_everywhere(s, x):
    if s > MAX_SHAPE:
        with pytest.raises(ValueError, match=re.escape(f"s={s!r}")):
            gamma_mills(s, x)
        return
    _assert_front_door(s, x)


def test_each_branch_and_its_edges():
    # the small-shape sum, the lower series, reduce_s and the fraction, on
    # both sides of s = 1/4, s = 200, x = s + 1, x = s + _SERIES_REACH (where
    # s < 1 turns to the fraction) and at integer shapes
    for s in (5e-324, 1e-300, 2.2e-16, 1e-6, 0.25, math.nextafter(0.25, 1.0), 0.5,
              1.0, 2.0, 3.5, 200.0, math.nextafter(200.0, 300.0), 1000.5, 1e5 + 0.5):
        edge, reach = s + 1.0, s + gamma._SERIES_REACH
        for x in (5e-324, 1e-300, 1e-10, 0.5, math.nextafter(edge, 0.0), edge,
                  math.nextafter(reach, 0.0), reach, 2.0 * edge, 1e300, DOUBLE_MAX):
            _assert_front_door(s, x)


BAND_TOL = 2e-13   # the series band's own bound, tighter than the front door's


def _assert_band(s, x, call):
    want = mp_gamma_mills(s, x)
    got = call(s, x)
    assert abs(got - want) <= BAND_TOL * want, (s, x, got, float(want))


def test_the_series_band_below_shape_2():
    # Below shape 2 the series answers up to x = shape + _SERIES_REACH, past
    # the classical switch at shape + 1: gamma_mills for s < 1 (the
    # small-shape sum at s <= 1/4, the lower series above) and reduce_s's
    # start at base + 1 for bases in (0, 1).  The series is within 2e-13 of
    # mpmath there, where the l1 fraction's stop is up to 4.8e-13 off.  At
    # the edge itself the fraction takes over, under the front door's bound.
    reach = gamma._SERIES_REACH
    for s in (1e-300, 1e-6, 0.01, 0.1, 0.25, math.nextafter(0.25, 1.0), 0.26, 0.3,
              0.5, 0.75, 0.999):
        band = np.linspace(s + 1.0, s + reach, 9)[:-1].tolist()
        for x in band + [math.nextafter(s + reach, 0.0)]:
            _assert_band(s, x, gamma_mills)
        _assert_front_door(s, s + reach)
    for base in (2.0**-52, 0.01, 0.25, 0.3, 0.5, 0.999, 1.0 - 2.0**-40):
        start = base + 1.0
        band = np.linspace(start, start + reach, 9)[:-1].tolist()
        for s in (start, base + 3.0):
            for x in band + [math.nextafter(start + reach, 0.0)]:
                _assert_band(s, x, reduce_s)
            _assert_front_door(s, start + reach, reduce_s)


def test_closed_forms_are_exact():
    # M_1 = 1; M_2 = 1 + 1/x, reduced from M_1 = 1
    for x in (5e-324, 1e-10, 0.1, 1.0, 2.5, 1e300, DOUBLE_MAX):
        assert gamma_mills(1.0, x) == 1.0
    for x in (1e-10, 0.1, 1.0, 2.5, 1e300, DOUBLE_MAX):
        assert gamma_mills(2.0, x) == 1.0 + 1.0 / x
    with pytest.raises(OverflowError, match="exceeds the largest double"):
        gamma_mills(2.0, 5e-324)


def test_adaptive_forms_answer_through_the_front_door():
    for s, x in ((0.3, 0.05), (0.5, 2.0), (2.5, 0.3), (7.3, 40.0), (40.5, 3.0)):
        want = gamma_mills(s, x)
        for form in (cf_l1, laguerre, winitzki_cf):
            assert form(s, x) == want, (form.__name__, s, x)
    # a fixed depth still folds the raw fraction
    assert cf_l1(0.5, 2.0, 3) != gamma_mills(0.5, 2.0)


def test_gamma_mills_refuses_shapes_past_the_step_ceiling():
    for s in (MAX_SHAPE + 0.5, 1e7, 1e300, DOUBLE_MAX):
        for x in (1e-3, s, 1e308):
            with pytest.raises(ValueError, match=re.escape(f"s={s!r}")):
                gamma_mills(s, x)
    with pytest.raises(ValueError, match=r"^gamma_mills needs"):
        gamma_mills(0.5, math.inf)


def _mp_lower(s, x):
    """x^(1-s) e^x gamma(s, x) at 30 digits."""
    with mpmath.workdps(30):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        return x ** (1 - s) * mpmath.exp(x) * mpmath.gammainc(s, 0, x)


def test_found_points_are_mended():
    # cf_l1 returned 9.2e-320 (two underflowed convergents agreed), laguerre
    # raised OverflowError from its divisor x**(s-1), lower_cf returned
    # 6.13e38, and laguerre near shape 1 dropped x from b_1 (0.9999999172596359)
    _assert_front_door(0.99, 5e-324, cf_l1)
    _assert_front_door(0.001, 5e-324, laguerre)
    want = _mp_lower(0.5, 200.0)
    assert abs(lower_cf(0.5, 200.0) - want) <= REL_TOL * want
    assert laguerre(1.0, 1e-10) == 1.0
    for n in (1, 2, 5, 40):
        assert laguerre(1.0, 1e-10, n) == 1.0, n
    assert laguerre(2.0, 0.1) == 11.0   # 10.999999999999499 on the raw fraction


def test_lower_cf_series_and_complement():
    # the series below x = s + 1, the complement of gamma_mills above it
    for s in (0.01, 0.5, 1.0, 3.7, 60.0):
        for x in (1e-3, 0.5 * (s + 1.0), math.nextafter(s + 1.0, 0.0), s + 1.0,
                  3.0 * (s + 1.0), 600.0):
            want = _mp_lower(s, x)
            if want > DOUBLE_MAX:
                with pytest.raises(OverflowError, match=r"^lower_cf: .* exceeds the largest"):
                    lower_cf(s, x)
                continue
            assert abs(lower_cf(s, x) - want) <= REL_TOL * want, (s, x)
    # x/s past a double, and a sum that would need more than 2^20 terms
    with pytest.raises(OverflowError, match=r"^lower_cf: .* exceeds the largest"):
        lower_cf(5e-324, 0.5)
    with pytest.raises(ConvergenceError, match="after 1048576 terms"):
        lower_cf(1e15, 1e15)
    # a cumulative side below half the smallest subnormal rounds to 0
    assert lower_cf(7.5, 1e-323) == 0.0


def test_reduce_s_and_the_oracle_keep_the_raw_fraction(monkeypatch):
    # neither may start calling the front door
    def refuse(*args):
        raise AssertionError("front door called")

    monkeypatch.setattr(gamma, "_mills", refuse)
    assert reduce_s(3.5, 10.0) == pytest.approx(1.289292662399244, rel=1e-12)
    assert millscf.reference_gamma_mills(0.5, 2.0) == pytest.approx(
        0.8427384585761089, rel=1e-11)


def test_the_l1_routes_need_neither_raw_loop(monkeypatch):
    # gamma_mills' s < 1 fraction, reduce_s's base step from base + 7/2 on
    # and bounds_s01 fold l1's closed form, and no fixed-depth fraction of a
    # level stream; the oracle has its own series and fraction, so it
    # answers with every function of gamma refusing
    def refuse(*args):
        raise AssertionError("raw loop called")

    monkeypatch.setattr(gamma, "_evaluate", refuse)
    for s in (1e-9, 1e-3, 0.3, 0.5, 0.99, 1.0 - 1e-15):
        for x in (s + gamma._SERIES_REACH, 10.0, 1e3, 2.0**200, 1e300, DOUBLE_MAX):
            _assert_front_door(s, x)
    for base in (2.0**-52, 1e-9, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-40):
        for x in (base + 1.0 + gamma._SERIES_REACH, 20.0, 1e300):
            for s in (base + 1.0, base + 7.0):
                _assert_front_door(s, x, reduce_s)
    lo, hi = bounds_s01(0.5, 2.0, 8)
    assert lo <= mp_gamma_mills(0.5, 2.0) <= hi
    for name, value in vars(gamma).items():
        if inspect.isfunction(value) and value.__module__ == gamma.__name__:
            monkeypatch.setattr(gamma, name, refuse)
    for s, x in ((0.5, 0.5), (0.5, 2.0), (3.5, 10.0)):
        assert millscf.reference_gamma_mills(s, x) == pytest.approx(
            mp_gamma_mills(s, x), rel=1e-12)
