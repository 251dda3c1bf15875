"""Gamma Mills ratio: the four fraction forms, reduction, and brackets."""

import math
import re
import struct
import sys
import time
import tracemalloc
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc, gammaln

from millscf import gamma
from millscf.cf import _MAX_DEPTH, CFEvaluationError, CFSpec, eval_backward
from millscf.gamma import (
    ConvergenceError,
    bounds_s01,
    cf_l1,
    laguerre,
    lower_cf,
    reduce_s,
    winitzki_cf,
)
from millscf.reference import reference_gamma_mills, reference_mills

SPECS = (gamma.l1_spec, gamma.laguerre_spec, gamma.lower_spec, gamma.winitzki_spec)
# 1 + 1e-14 snaps to an integer shape
SHAPES = (0.01, 0.3, 0.5, 1.0, 1.0 + 1e-14, 2.0, 2.5, 3.0, 10.5, 50.0)
XS = np.logspace(-2.0, 2.0, 17).tolist() + [0.125]


def test_params_validation():
    for s, x in ((0.0, 1.0), (-2.0, 1.0), (1.0, -0.5), (float("inf"), 1.0)):
        for form in (cf_l1, laguerre, lower_cf, winitzki_cf):
            with pytest.raises(ValueError):
                form(s, x)
        with pytest.raises(ValueError):
            reduce_s(s, x)
        with pytest.raises(ValueError):
            bounds_s01(s, x, 3)


def test_integer_shapes_truncate_exactly():
    # s = 1: every form collapses to M_1 = 1
    assert cf_l1(1.0, 2.0, 7) == 1.0
    assert laguerre(1.0, 5.0, 10) == pytest.approx(1.0, rel=1e-12)
    assert winitzki_cf(1.0, 2.0, 30) == pytest.approx(1.0, rel=1e-12)
    # s = 2: M_2 = 1 + 1/x
    assert cf_l1(2.0, 3.0, 40) == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert cf_l1(2.0, 3.0) == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_fractional_shape_values():
    # M_{1/2}(2) = 2 R(2) through the Gaussian equivalence
    want = 2.0 * reference_mills(2.0)
    assert laguerre(0.5, 2.0) == pytest.approx(want, rel=1e-10)
    assert winitzki_cf(0.5, 2.0, 400) == pytest.approx(want, rel=1e-8)
    # M_3(5) = 1.48 by two integrations by parts
    assert reduce_s(3.0, 5.0) == pytest.approx(1.48, rel=1e-12)
    assert laguerre(3.0, 4.0, 50) == pytest.approx(reduce_s(3.0, 4.0), rel=1e-9)


def test_winitzki_against_gaussian():
    z = 1.5
    want = z * reference_mills(z)
    assert winitzki_cf(0.5, z * z / 2.0, 80) == pytest.approx(want, rel=1e-8)
    assert winitzki_cf(0.5, 4.0, 60) == pytest.approx(laguerre(0.5, 4.0, 60),
                                                      rel=1e-9)


def test_lower_fraction():
    # x^{1-s} e^x gamma(s, x): vanishes at 0, equals e-1 for s=1, x=1
    assert lower_cf(1.0, 0.0) == 0.0
    assert lower_cf(1.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-10)
    # complement: lower + upper = x^{1-s} e^x Gamma(s)
    s, x = 0.5, 1.0
    total = x ** (1.0 - s) * math.exp(x) * math.gamma(s)
    assert lower_cf(s, x) + laguerre(s, x) == pytest.approx(total, rel=1e-8)


def _near_mpmath(got, s, x):
    want = _mp_mills(s, x)
    return abs(got - want) <= 1e-12 * want


def test_adaptive_depth_and_failure():
    # without a depth the 1/x-variable form, whose raw fraction creeps at
    # small x, answers through the front door
    assert _near_mpmath(winitzki_cf(0.5, 0.125), 0.5, 0.125)


def test_form_validation():
    with pytest.raises(ValueError):
        cf_l1(1.0, -1.0, 10)
    with pytest.raises(ValueError):
        laguerre(0.5, 0.0, 10)
    with pytest.raises(ValueError):
        winitzki_cf(0.5, 0.0, 10)


def test_reduce_s():
    assert reduce_s(2.0, 4.0) == pytest.approx(1.25, rel=1e-13)
    for s in (2.0, 3.0, 4.5):
        for x in (1.0, 2.0, 5.0):
            direct = laguerre(s, x, 200)
            assert reduce_s(s, x) == pytest.approx(direct, rel=1e-8), (s, x)
    # an integer shape starts from M_1 = 1; laguerre(1.0, x) gave
    # 0.9999999999999991 at x = 0.1 and raised ConvergenceError at 1e-20
    assert (reduce_s(2.0, 0.1), reduce_s(3.0, 0.1), reduce_s(2.0, 1e-20)) == (11.0, 221.0, 1e20)
    with pytest.raises(ValueError):
        reduce_s(1.0, 2.0)
    with pytest.raises(ValueError):
        reduce_s(0.5, 2.0)


def test_bounds_s01():
    # s = 1 truncates both ends of the bracket to the exact value
    assert bounds_s01(1.0, 2.0, 5) == (1.0, 1.0)
    for s in (0.25, 0.5, 0.75):
        for x in (0.5, 1.0, 2.0, 4.0):
            lo, hi = bounds_s01(s, x, 8)
            ref = reference_gamma_mills(s, x)
            assert lo <= ref <= hi, (s, x)
    # widths shrink with depth
    w8 = bounds_s01(0.5, 1.0, 8)
    w12 = bounds_s01(0.5, 1.0, 12)
    assert (w12[1] - w12[0]) < (w8[1] - w8[0])
    with pytest.raises(ValueError):
        bounds_s01(1.5, 1.0, 8)


def test_bounds_s01_folds_in_constant_memory():
    # the two folds keep no list of levels: 5.7 MB at this depth with one
    tracemalloc.start()
    try:
        bounds_s01(0.5, 1.0, 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_limit_toward_one():
    assert laguerre(0.5, 1000.0) == pytest.approx(1.0, abs=1e-2)
    assert laguerre(0.9, 500.0) == pytest.approx(1.0, abs=1e-2)


def test_huge_x_rescales_before_the_multiply():
    # the first levels carry |a_k| + |b_k| ~ x, past 2^512, so the
    # continuants must be scaled down before the multiply, not after it
    for x in (1e200, 1e300):
        for form in (laguerre, cf_l1, winitzki_cf):
            m = form(0.5, x)
            assert math.isfinite(m) and abs(m - 1.0) <= 1e-12, (form.__name__, x, m)


def test_headroom_scales_only_a_pair_that_can_overflow():
    # the raw adaptive loop returned 0.0 for laguerre at the largest double
    # and for winitzki_cf at tiny x; the public forms answer there
    for s in (0.01, 0.3):
        m = laguerre(s, 1.7976931348623157e308)
        assert abs(m - 1.0) <= 1e-12, (s, m)
    for s in (0.01, 0.3, 0.5, 0.99):
        for x in (1e-300, 1e-250):
            assert _near_mpmath(winitzki_cf(s, x), s, x), (s, x)


def test_laguerre_at_tiny_x_raises_documented_errors():
    # x^(s-1) underflows to 0: M_s(x) >= 0.88 x^(1-s) is past the largest
    # double (this divided by zero); x^s alone underflows: the fraction's
    # first numerator is 0 (this returned -0.0 and 0.0 for M_s near 1e125
    # and 2e240)
    # (at a fixed depth; without one the front door answers, below)
    for n in (0, 3):
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            laguerre(2.5, 5e-324, n)
        for s, x in ((1.5, 1e-250), (3.0, 1e-120)):
            with pytest.raises(CFEvaluationError,
                               match=re.escape(f"s={s!r}, x={x!r}")):
                laguerre(s, x, n)
    with pytest.raises(OverflowError, match="exceeds the largest double"):
        laguerre(2.5, 5e-324)
    for s, x in ((1.5, 1e-250), (3.0, 1e-120)):
        assert _near_mpmath(laguerre(s, x), s, x), (s, x)


def test_laguerre_at_large_x_power_raises_a_documented_error():
    # x^s (or x^(s-1)) past the largest double raised the bare pow error
    # "(34, 'Numerical result out of range')"; M_s(x) is about 1 + (s-1)/x
    for s, x in ((50.0, 1e10), (31.5, 1e10)):
        assert cf_l1(s, x) == pytest.approx(1.0 + (s - 1.0) / x, rel=1e-15)
        assert laguerre(s, x) == cf_l1(s, x)   # the front door, without a depth
        for n in (0, 3):
            with pytest.raises(CFEvaluationError, match=re.escape(
                    f"laguerre form of M_s(x) at s={s!r}, x={x!r}: the first "
                    "numerator x**s overflows")):
                laguerre(s, x, n)
    # at subnormal x and small s only the divisor x^(s-1) overflows
    with pytest.raises(OverflowError, match=re.escape(
            "laguerre: the divisor x**(s-1) at s=0.001, x=5e-324 exceeds")):
        laguerre(0.001, 5e-324, 3)


def test_subnormal_x_gives_no_underflowed_value():
    # M_{1/2}(x) = sqrt(pi x) e^x erfc(sqrt x), about 3.9e-162 at x = 5e-324;
    # cf_l1 returned 0.0 at 5e-324 and 1e-320, where two convergents that
    # had underflowed to 0 "agreed"
    for x in (5e-324, 1e-320, 1e-310):
        want = math.sqrt(math.pi) * math.sqrt(x) * math.exp(x) * math.erfc(math.sqrt(x))
        for form in (cf_l1, winitzki_cf, laguerre):   # the front door
            assert form(0.5, x) == pytest.approx(want, rel=1e-12), (form.__name__, x)


def test_reduce_s_raises_once_the_value_overflows():
    # M_{1e5+1/2}(3) is far beyond the largest double: raise, never return inf
    with pytest.raises(OverflowError, match=r"s=100000\.5, x=3\.0 is not finite "
                                             r"after 216 of 100000 reduction steps"):
        reduce_s(1e5 + 0.5, 3.0)


def _mp_mills(s, x):
    """M_s(x) = x^(1-s) e^x (Gamma(s) - gamma(s, x)) from mpmath, at 60 digits."""
    with mpmath.workdps(60):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        upper = mpmath.gamma(s) - mpmath.gammainc(s, 0, x)
        return x ** (1 - s) * mpmath.exp(x) * upper


# fractional shapes in (1, 200]; the base s - (ceil(s) - 1) is not an integer
_SERIES_SHAPES = (1.0 + 1e-9, 1.03125, 1.5, 1.9, 2.001, 2.5, 2.999, 3.3, 4.75,
                  7.1, 10.5, 13.37, 20.2, 31.5, 49.5, 50.0 - 1e-9, 64.25, 99.9,
                  100.5, 128.7, 150.01, 175.5, 199.5, 200.0 - 1e-9, 200.0 - 2.0**-40)


def test_reduce_s_series_region_against_mpmath():
    # x < base + 1 + _SERIES_REACH takes the lower series at base + 1: within
    # 1e-12 of mpmath where M_s(x) is a double, OverflowError where it is
    # not.  The laguerre base raised ConvergenceError at most of these points.
    # From there on the l1 fraction gives M_base, with bases near 0 and 1.
    values = overflows = 0
    for s in _SERIES_SHAPES:
        start = s - math.ceil(s) + 2.0   # base + 1
        top = start * (1.0 - 2.0**-30)   # just below base + 1
        end = start + gamma._SERIES_REACH
        xs = np.geomspace(1e-300, top, 25).tolist() + np.geomspace(1e-3, top, 8).tolist()
        xs += np.linspace(start, end, 6)[:-1].tolist() + [math.nextafter(end, 0.0)]
        xs += [end, end + 0.5, 20.0, 60.0]   # 60 digits cancel past about 100
        for x in xs:
            want = _mp_mills(s, x)
            if want > sys.float_info.max:
                with pytest.raises(OverflowError, match=re.escape(f"s={s!r}, x={x!r}")):
                    reduce_s(s, x)
                overflows += 1
                continue
            got = reduce_s(s, x)
            assert abs(got - want) <= 1e-12 * want, (s, x, got, float(want))
            values += 1
    assert values > 200 and overflows > 200, (values, overflows)


def test_reduce_s_at_the_smallest_subnormal_x():
    # M_{1.03125} (about 1.25e10) raised OverflowError from laguerre's
    # divisor x**(s-1), and M_{1.5} (about 3.99e161) raised ConvergenceError
    for s in (1.03125, 1.5):
        want = _mp_mills(s, 5e-324)
        assert abs(reduce_s(s, 5e-324) - want) <= 1e-13 * want, s


def test_reduce_s_refuses_shapes_past_the_step_ceiling():
    # from s = 2^53 on, s - (ceil(s) - 1) rounds to 0, and below that the
    # loop would run for seconds to years: refuse at once, naming s
    for s, x in ((1e17, 1.0), (1e300, 1.0), (1e7 + 0.5, 1e300), (2.0**53, 1e300)):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(f"s={s!r}")):
            reduce_s(s, x)
        assert time.perf_counter() - t0 < 1.0, s
    with pytest.raises(ValueError):
        reduce_s(2.0**20 + 1.5, 1e300)
    assert reduce_s(2.0**20 + 0.5, 1e300) == 1.0   # 2^20 steps: at the ceiling


# The Gamma forms' coefficients as a/b callables, k by k, as the specs
# carried them before the level streams became their only source: the
# tests pin the streams, the folds and the closed-form l1 routes to them.
def _l1_callables(s):
    def a(k, x):
        if k == 1:
            return x
        j, odd = divmod(k, 2)
        return float(j) if odd else gamma._snap_zero(j - s)

    return a, lambda k, x: x if k % 2 == 1 else 1.0


def _laguerre_callables(s):
    def a(k, x):
        if k == 1:
            return x ** s
        return (k - 1) * gamma._snap_zero(s - k + 1.0)

    return a, lambda k, x: x + ((2.0 * k - 1.0) - s)


def _lower_callables(s):
    def a(k, x):
        if k == 1:
            return x
        return -(k - 2.0 + s) * x

    return a, lambda k, x: s if k == 1 else (k - 1.0) + s + x


def _winitzki_callables(s):
    def a(k, x):
        if k == 1:
            return 1.0
        v = 1.0 / x
        j, odd = divmod(k, 2)
        return j * v if odd else gamma._snap_zero(j - s) * v

    return a, lambda k, x: 1.0


_CALLABLES = {"l1": _l1_callables, "laguerre": _laguerre_callables,
              "lower": _lower_callables, "winitzki": _winitzki_callables}


def _callable_spec(spec, s):
    """spec, a Gamma spec of shape s, with the callables in place of its stream."""
    return CFSpec(*_CALLABLES[spec.name](s), name=spec.name)


def _reference_adaptive(spec, s, x, rel_tol=gamma.ADAPTIVE_REL_TOL,
                        max_depth=gamma.ADAPTIVE_MAX_DEPTH):
    """The adaptive loop on the a/b callables, rescaling after the multiply."""
    A_prev, B_prev = 1.0, 0.0
    A, B = 0.0, 1.0
    prev = None
    for k in range(1, max_depth + 1):
        ak = spec.a(k, x)
        bk = spec.b(k, x)
        A, A_prev = bk * A + ak * A_prev, A
        B, B_prev = bk * B + ak * B_prev, B
        m = max(abs(A), abs(B), abs(A_prev), abs(B_prev))
        if m > 2.0 ** 500:
            A, B = A * 2.0 ** -512, B * 2.0 ** -512
            A_prev, B_prev = A_prev * 2.0 ** -512, B_prev * 2.0 ** -512
        if B != 0.0:
            cur = A / B
            if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
                return cur
            prev = cur
    raise ConvergenceError(
        f"{spec.name} form of M_s(x) at s={s!r}, x={x!r}: successive "
        f"convergents still apart after {max_depth} levels"
    )


def _outcome(fn, *args):
    try:
        return struct.pack("<d", fn(*args))
    except ArithmeticError as exc:
        return type(exc), str(exc)


# the domain edges, with 2^-200 and 2^200 and their neighbours
EDGE_XS = [5e-324, 1e-320, 1e-300, 2.0**-200, math.nextafter(2.0**-200, 0.0),
           math.nextafter(2.0**-200, 1.0), 2.0**200, math.nextafter(2.0**200, 0.0),
           math.nextafter(2.0**200, math.inf), 1e300, 1.7976931348623157e308]
# shapes within _SNAP of an integer, which the streams snap
NEAR_INTEGER_SHAPES = (3.0 - 1e-14, 7.0 + 5e-14)


def _levels_or_error(make):
    try:
        return np.array(make()).tobytes()
    except OverflowError as exc:   # laguerre's a_1 = x**s past a double
        return type(exc), str(exc)


def test_level_streams_match_the_coefficient_callables():
    # the fixed-depth route folds the stream, so this pins it everywhere
    # that route reaches, domain edges and snapped shapes included
    for factory in SPECS:
        for s in SHAPES + NEAR_INTEGER_SHAPES:
            spec = factory(s)
            a, b = _CALLABLES[spec.name](s)
            for x in XS + EDGE_XS:
                stream = _levels_or_error(lambda: list(islice(spec.levels(x), 500)))
                want = _levels_or_error(
                    lambda: [(a(k, x), b(k, x)) for k in range(1, 501)])
                assert stream == want, (spec.name, s, x)


# l1 shapes with s = 1 and 1 - 1e-15, where a_2 snaps to 0, and the
# smallest subnormal
L1_SHAPES = (5e-324, 1e-300, 0.01, 0.3, 0.5, 0.99, 1.0 - 1e-12, 1.0 - 1e-15, 1.0)
L1_XS = [2.0**-1000, 1e-10, 0.3, 1.0, 2.5, math.nextafter(2.5, 3.0), 3.7, 10.0,
         1e3, 1e12, 1e13, 1e100]


def _same_closed_form_l1(s, x, depths):
    """gamma._l1_adaptive gives the bits of the adaptive loop on the a/b
    callables (s < 1, 5/2 <= x <= 2^200), and gamma._l1_fold the stream's
    bits at every s in (0, 1] and x > 0."""
    spec = gamma.l1_spec(s)
    if s < 1.0 and 2.5 <= x <= 2.0**200:
        assert _outcome(gamma._l1_adaptive, s, x) == \
            _outcome(_reference_adaptive, _callable_spec(spec, s), s, x), (s, x)
    for m in depths:
        want = _outcome(gamma._evaluate, spec, x, m)
        assert _outcome(gamma._l1_fold, s, x, m) == want, (s, x, m)


def test_closed_form_l1_gives_the_bits_of_the_stream():
    # the third writing of l1's coefficients, after the a/b callables and
    # the stream, which gamma_mills, reduce_s and bounds_s01 run
    for s in L1_SHAPES:
        for x in XS + EDGE_XS + L1_XS:
            _same_closed_form_l1(s, x, (1, 2, 3, 4, 5, 40, 41, 999))


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       y=st.floats(min_value=2.5, max_value=2.0**200),
       m=st.integers(min_value=1, max_value=300))
def test_closed_form_l1_matches_the_stream_everywhere(s, x, y, m):
    _same_closed_form_l1(s, x, (1, 2, 3, 4, m))
    _same_closed_form_l1(s, y, ())


# Reference loops for the Gamma kernels, with a test after every term or
# step, level numbers from range and the polynomial as a loop over its
# coefficients: the kernels must give their bits and errors.
def _lower_sum_by_term(s, x):
    """_lower_sum with a stop test after every term; also the number of
    terms past the first when it stops."""
    term = total = x / s
    k = s
    for i in range(1, _MAX_DEPTH + 1):
        k += 1.0
        term *= x / k
        new = total + term
        if new == total:
            return total, i
        total = new
    raise ConvergenceError(f"lower series at s={s!r}, x={x!r}: still moving "
                           f"after {_MAX_DEPTH} terms")


def test_lower_sum_adds_two_terms_a_pass_with_the_bits_of_one():
    halves = set()
    for s in (5e-324, 1e-300, 1e-8, 0.01, 0.3, 0.5, 0.99, 1.0 + 2.0**-52, 1.5,
              1.99, 2.5, 7.25, 50.0, 199.9):
        tops = [s + 1.0, math.nextafter(s + 1.0, math.inf)]
        if s < 2.0:   # _lower_series reaches s + 5/2 below shape 2
            tops += [s + 1.25, s + 2.0, s + 2.5]
        xs = [5e-324, 1e-300, 1e-5, 0.3, 1.0, 0.5 * s] + tops
        for x in xs:
            if 0.0 < x <= s + 2.5:
                want = _outcome(lambda: _lower_sum_by_term(s, x)[0])
                assert _outcome(gamma._lower_sum, s, x) == want, (s, x)
                halves.add(_lower_sum_by_term(s, x)[1] % 2)
    # the stop falls on the pass's first term (odd) and its second (even)
    assert halves == {0, 1}
    # x/s overflows: +inf, as the term-by-term sum gives
    assert gamma._lower_sum(5e-324, 1.0) == math.inf
    assert _lower_sum_by_term(5e-324, 1.0)[0] == math.inf


def test_lower_sum_keeps_its_cap_at_2_to_the_20_terms():
    # at s = 2^60, k += 1 leaves k as it is, so each term is x/s times the
    # one before: at this x the sum stops on the last term the cap allows,
    # and at the next double up it would need one more
    s, x = 2.0**60, 1.1528925443095779e+18
    assert _lower_sum_by_term(s, x)[1] == _MAX_DEPTH
    assert gamma._lower_sum(s, x) == _lower_sum_by_term(s, x)[0]
    above = math.nextafter(x, math.inf)
    with pytest.raises(ConvergenceError, match=re.escape(
            f"s={s!r}, x={above!r}: still moving after {_MAX_DEPTH} terms")):
        gamma._lower_sum(s, above)


# lgamma(1 + s)/s's Taylor coefficients, as _small_shape's loop read them
_LGAMMA1P_OVER_S = (
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143,
    0.27058080842778454, -0.20738555102867398, 0.1695571769974082,
    -0.1440498967688461, 0.12550966952474304, -0.11133426586956469,
    0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046,
    0.06250095514121304, -0.058823978658684585, 0.055555767627403614,
    -0.05263167937961666, 0.05000004769810169, -0.047619070330142226,
    0.04545455629320467, -0.04347826605304026, 0.04166666915034121,
    -0.04000000119214014, 0.03846153903467518)


def _small_shape_by_loop(s, x):
    """_small_shape with its polynomial as a loop over the coefficients."""
    h = 0.0
    for c in reversed(_LGAMMA1P_OVER_S):
        h = h * s + c
    lx = math.log(x)
    term, total, k = 1.0, 0.0, 0.0
    while True:
        k += 1.0
        term *= -x / k
        new = total + term / (s + k)
        if new == total:
            break
        total = new
    upper = (h * gamma._expm1_over(s * h) - lx * gamma._expm1_over(s * lx)
             - math.exp(s * lx) * total)
    return x * (math.exp(x - s * lx) * upper)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=0.25, exclude_min=True),
       x=st.floats(min_value=5e-324, max_value=2.75))
def test_small_shape_polynomial_is_the_coefficient_loop(s, x):
    assert _outcome(gamma._small_shape, s, x) == \
        _outcome(_small_shape_by_loop, s, x), (s, x)


def test_small_shape_polynomial_at_its_edges():
    for s in (5e-324, 1e-300, 2.0**-52, 1e-8, 0.01, 0.1, 0.2,
              math.nextafter(0.25, 0.0), 0.25):
        for x in (5e-324, 1e-300, 1e-5, 0.3, 1.0, s + 2.0, s + 2.5):
            assert _outcome(gamma._small_shape, s, x) == \
                _outcome(_small_shape_by_loop, s, x), (s, x)


def _l1_fold_by_range(s, x, m):
    """_l1_fold with its level numbers from map(float, range(...))."""
    a2 = gamma._snap_zero(1.0 - s)
    half, odd = divmod(m, 2)
    if odd:
        t = x
    else:
        half -= 1
        t = x + ((half + 1.0) - s if half else a2)
    for j in map(float, range(half, 1, -1)):
        t = x + (j - s) / (1.0 + j / t)
    if half:
        t = x + a2 / (1.0 + 1.0 / t)
    return x / t


def test_l1_fold_at_the_edges_of_its_float_table():
    top = len(gamma._FLOATS) - 1   # the table's last index
    # depths whose run starts at half = top - 1, top and top + 1
    depths = [1, 2, 3, 2 * top - 1, 2 * top, 2 * top + 1, 2 * top + 2, 2 * top + 3]
    for s in (1e-300, 0.3, 0.5, 1.0 - 1e-15, 1.0):
        for x in (2.0**-1000, 1e-3, 1.0, 10.0, 1e100):
            for m in depths:
                assert _outcome(gamma._l1_fold, s, x, m) == \
                    _outcome(_l1_fold_by_range, s, x, m), (s, x, m)
    n = _MAX_DEPTH - 2   # the deepest pair but one bounds_s01 takes
    lo, hi = bounds_s01(0.5, 1.0, n)
    ends = (_l1_fold_by_range(0.5, 1.0, n), _l1_fold_by_range(0.5, 1.0, n + 1))
    assert [lo, hi] == sorted(ends)


def _reduce_s_step_by_step(s, x):
    """_reduce_s with a finiteness test after every step of its walk."""
    steps = math.ceil(s) - 1
    base = s - steps
    done = 0
    if base == 1.0:
        value = 1.0
    elif x < base + 1.0 + gamma._SERIES_REACH:
        value = max(gamma._lower_series(base + 1.0, x), 1.0)
        done = 1
    else:
        value = gamma._l1_adaptive(base, x)
    for j in range(done + 1, steps + 1):
        value = 1.0 + ((base + j - 1.0) / x) * value
        if not math.isfinite(value):
            raise OverflowError(
                f"M_s(x) at s={s!r}, x={x!r} is not finite after {j} of "
                f"{steps} reduction steps: it exceeds the largest double")
    return value


def test_reduce_s_walk_at_the_edges_of_its_float_table():
    top = len(gamma._FLOATS) - 1   # the table's last index
    # walks of top - 1, top and top + 1 steps (from M_1 = 1 at the integer
    # shapes), and of 2^20 - 2 steps
    shapes = [top - 0.5, top + 0.5, top + 1.0, top + 1.5, top + 2.0,
              _MAX_DEPTH - 1.5, 3.0, 3.5, 7.25]
    for s in shapes:
        for x in (1e-3, 0.5, 3.0, 100.0, 1e4, 1e300):
            assert _outcome(gamma._reduce_s, s, x) == \
                _outcome(_reduce_s_step_by_step, s, x), (s, x)


def test_reduce_s_names_the_step_where_a_tabled_walk_overflows():
    # walks inside the float table test for finiteness once, then walk
    # again to name the step; the step is the first one past the double
    seen = set()
    for s, x in ((40.5, 1e-300), (100.5, 1e-5), (200.25, 0.01), (250.5, 0.5),
                 (255.5, 1.0), (180.0, 0.05)):
        assert math.ceil(s) - 1 < len(gamma._FLOATS), s
        want = _outcome(_reduce_s_step_by_step, s, x)
        assert want[0] is OverflowError, (s, x, want)
        assert _outcome(gamma._reduce_s, s, x) == want, (s, x)
        seen.add(int(re.search(r"after (\d+) of", want[1]).group(1)))
    assert len(seen) == 6, seen


def _callable_fold(spec, x, n):
    """The fixed-depth route as it was: eval_backward on the a/b callables."""
    return eval_backward(spec, x, n, spec.b(n, x))


def _two_call_bounds(s, x, n):
    """bounds_s01 as it was: each end folded on its own from the callables."""
    spec = CFSpec(*_l1_callables(s), name="l1")
    hi = _callable_fold(spec, x, n + 1)
    lo = _callable_fold(spec, x, n) if n else 0.0
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def _pair_outcome(fn, *args):
    try:
        return struct.pack("<2d", *fn(*args))
    except ArithmeticError as exc:
        return type(exc), str(exc)


def _same_fold(spec, s, x, n):
    assert _outcome(gamma._evaluate, spec, x, n) == \
        _outcome(_callable_fold, _callable_spec(spec, s), x, n), (spec.name, s, x, n)


def _same_bounds(s, x, n):
    assert _pair_outcome(bounds_s01, s, x, n) == \
        _pair_outcome(_two_call_bounds, s, x, n), (s, x, n)


def test_fixed_depth_folds_the_bits_of_eval_backward():
    # a fixed depth folds spec.levels(x): same value bits, or the same
    # error type and text, as eval_backward on the a/b callables
    raised = 0
    for factory in SPECS:
        for s in SHAPES + NEAR_INTEGER_SHAPES:
            spec = factory(s)
            for x in XS + EDGE_XS:
                for n in (1, 2, 3, 17, 40, 41, 400, 500):
                    _same_fold(spec, s, x, n)
                raised += isinstance(_outcome(gamma._evaluate, spec, x, 3), tuple)
    assert raised > 0   # the error paths are compared too
    # int s and x reach the fold as they are; eval_backward floats the tail,
    # and x/3.0 here is not the int quotient x/3
    for n in (1, 2, 3):
        _same_fold(gamma.lower_spec(3), 3, 2**60 + 32, n)
    for s in (0.01, 0.3, 0.5, 1.0 - 1e-14, 1.0):
        for x in XS + EDGE_XS:
            for n in list(range(45)) + [399, 499]:
                _same_bounds(s, x, n)


def _checked(v, which, k, name):
    if not math.isfinite(v):
        raise CFEvaluationError(
            f"non-finite coefficient {which}({k}) = {v!r} in spec {name!r}")
    return v


def _two_read_backward(rows, n, tail, name):
    """eval_backward's loop before the one fold: a_m, then b_{m-1}, read
    and checked one coefficient at a time, m = n, ..., 1."""
    if not math.isfinite(tail):
        raise CFEvaluationError(f"non-finite tail {tail!r}")
    t = float(tail)
    for m in range(n, 0, -1):
        am = _checked(rows[m - 1][0], "a", m, name)
        lead = _checked(rows[m - 2][1], "b", m - 1, name) if m > 1 else 0.0
        if am == 0.0:
            t = lead
            continue
        if t == 0.0:
            raise CFEvaluationError(
                f"zero denominator while folding level {m} of spec {name!r}")
        t = lead + am / t
    return t


def test_fold_checks_levels_in_the_order_of_eval_backward():
    # levels no Gamma spec yields at valid (s, x): non-finite tails and b_k,
    # zero numerators and denominators, and a level 1 quotient of -0.0; the
    # one fold gives the old loop's bits or error on a stream spec, a
    # callable spec and the Gamma fixed-depth route
    values = (1.0, -1.0, 2.0, 0.0, -0.0, 5e-324, -5e-324, 1e308, math.inf,
              -math.inf, math.nan)
    rng = np.random.default_rng(19)
    for _ in range(4000):
        n = int(rng.integers(1, 7))
        rows = [tuple(float(v) for v in rng.choice(values, 2)) for _ in range(n)]
        want = _outcome(_two_read_backward, rows, n, rows[-1][1], "table")
        stream = CFSpec(name="table", levels=lambda x: iter(rows))
        calls = CFSpec(a=lambda k, x: rows[k - 1][0], b=lambda k, x: rows[k - 1][1],
                       name="table")
        for spec in (stream, calls):
            assert _outcome(eval_backward, spec, 1.0, n, rows[-1][1]) == want, rows
        assert _outcome(gamma._evaluate, stream, 1.0, n) == want, rows
    tiny = CFSpec(name="table", levels=lambda x: iter([(-5e-324, 1e10)]))
    assert _outcome(gamma._evaluate, tiny, 1.0, 1) == struct.pack("<d", 0.0)


_FORM_OF_SPEC = {"l1": cf_l1, "laguerre": laguerre, "lower": lower_cf,
          "winitzki": winitzki_cf}


def test_eval_backward_on_a_gamma_spec_is_the_form_at_fixed_depth():
    # eval_backward reads a stream spec too: from the tail b_n it gives the
    # fixed-depth form's bits or error (laguerre's divided by x^(s-1))
    raised = 0
    for factory in SPECS:
        for s in SHAPES + NEAR_INTEGER_SHAPES:
            spec = factory(s)
            form = _FORM_OF_SPEC[spec.name]
            for x in XS + EDGE_XS:
                for n in (1, 2, 3, 17, 40, 41):
                    want = _outcome(form, s, x, n)
                    if spec.name == "laguerre":
                        if isinstance(want, tuple) and want[1].startswith("laguerre"):
                            continue   # its power checks, made before the fold
                        power = x ** (s - 1.0)
                    else:
                        power = 1.0

                    def backward():
                        tail = list(islice(spec.levels(x), n))[-1][1]
                        return eval_backward(spec, x, n, tail) / power

                    assert _outcome(backward) == want, (spec.name, s, x, n)
                    raised += isinstance(want, tuple)
    assert raised > 0   # the error paths are compared too


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=64.0, exclude_min=True),
       x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       n=st.integers(min_value=0, max_value=64),
       form=st.sampled_from(SPECS))
def test_fixed_depth_matches_eval_backward_everywhere(s, x, n, form):
    if n:
        _same_fold(form(s), s, x, n)
    _same_bounds(min(s, 1.0), x, n)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       x=st.floats(min_value=1.0, max_value=1.7976931348623157e308))
def test_adaptive_forms_stay_inside_the_s01_bracket(s, x):
    # for s <= 1, Gamma(s, x) <= x^(s-1) e^-x gives M <= 1, and the depth-2
    # l1 convergent x/(x + 1 - s) is a lower bound
    lo = x / (x + 1.0 - s) - 1e-12
    m = gamma.gamma_mills(s, x)   # the public forms' answer, which never raises
    assert math.isfinite(m) and lo <= m <= 1.0 + 1e-12, (s, x, m)


# what the one domain check refuses as a shape or an abscissa
_OUTSIDE = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -5e-324])
            | st.floats(max_value=-5e-324, allow_infinity=False))
_FORMS = (cf_l1, laguerre, winitzki_cf, lower_cf)


@settings(max_examples=150, deadline=None)
@given(bad=_OUTSIDE, bad_shape=st.booleans(), s=st.floats(min_value=1e-3, max_value=50.0),
       x=st.floats(min_value=1e-3, max_value=1e3), n=st.integers(min_value=0, max_value=40))
def test_one_domain_check_refuses_outside_inputs(bad, bad_shape, s, x, n):
    if bad_shape:
        s = bad
    else:
        x = bad
    for form in _FORMS:
        for depth in (None, n):
            if form is lower_cf and x == 0.0:
                assert lower_cf(s, x, depth) == 0.0   # the cumulative side at 0
                continue
            with pytest.raises(ValueError, match=rf"^{form.__name__} needs"):
                form(s, x, depth)
    # shapes on the side each entry point accepts, so only the check can refuse
    with pytest.raises(ValueError, match=r"^reduce_s needs"):
        reduce_s(s if bad_shape else 1.0 + s, x)
    with pytest.raises(ValueError, match=r"^bounds_s01 needs"):
        bounds_s01(s if bad_shape else min(s, 1.0), x, n)


@settings(max_examples=50, deadline=None)
@given(s=st.floats(min_value=1e-3, max_value=1.0), x=st.floats(min_value=1e-3, max_value=1e3),
       n=st.integers(max_value=-1))
def test_negative_depth_raises_for_every_form(s, x, n):
    for form in _FORMS:
        with pytest.raises(ValueError, match=rf"^{form.__name__} needs a depth"):
            form(s, x, n)
    with pytest.raises(ValueError, match=r"^lower_cf needs a depth"):
        lower_cf(s, 0.0, n)
    with pytest.raises(ValueError, match=r"^bounds_s01 needs a depth"):
        bounds_s01(s, x, n)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
       n=st.integers(min_value=0, max_value=40))
def test_bounds_s01_is_an_ordered_pair_in_the_unit_interval(s, x, n):
    lo, hi = bounds_s01(s, x, n)
    assert math.isfinite(lo) and math.isfinite(hi), (lo, hi)
    assert 0.0 <= lo <= hi <= 1.0, (lo, hi)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(min_value=1.0, max_value=1e4, exclude_min=True),
       x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
def test_reduce_s_is_finite_and_at_least_one_or_raises(s, x):
    try:
        m = reduce_s(s, x)
    except OverflowError:
        return
    assert math.isfinite(m) and m >= 1.0, m


# (s, x) where the cumulative side is past the largest double, and what the
# adaptive form returned there before it raised
_LOWER_PAST_DOUBLE = ((0.5, 720.0),     # 1.7e44, where it is about e^723
                      (0.5, 1e4),       # -1.49e59
                      (0.01, 1e150),    # -9.9e301
                      (7.3, 1e155),     # -1.65e308
                      (0.5, 1e300))     # ldexp's bare "math range error"


def test_lower_cf_past_the_largest_double_raises_overflow():
    for s, x in _LOWER_PAST_DOUBLE:
        with pytest.raises(OverflowError, match=r"^lower_cf: .* exceeds the largest"):
            lower_cf(s, x)
    # a fixed depth keeps the raw convergent: x/s at depth 1
    assert lower_cf(0.5, 720.0, 1) == 1440.0


def test_lower_cf_overflow_only_where_the_value_is_past_a_double():
    # log of x^(1-s) e^x int_0^x u^(s-1) e^-u du, from scipy
    for s in np.logspace(-2.0, 1.0, 7).tolist():
        for x in np.logspace(0.0, 3.2, 40).tolist():
            log_value = ((1.0 - s) * math.log(x) + x
                         + math.log(gammainc(s, x)) + gammaln(s))
            try:
                lower_cf(s, x)
            except OverflowError:
                assert log_value > math.log(1.7976931348623157e308), (s, x)
            except ConvergenceError:
                pass


def test_lower_cf_names_the_interval_it_accepts():
    # x = 0 is in lower_cf's domain, so its error names 0 <= x < inf
    assert lower_cf(0.5, 0.0) == 0.0
    for x in (math.nan, -1.0, math.inf):
        for n in (None, 5):
            with pytest.raises(ValueError, match=re.escape(
                    f"lower_cf needs 0 <= x < inf, got x={x!r}")):
                lower_cf(0.5, x, n)


def test_front_doors_check_s_and_x_once(monkeypatch):
    # the reduction behind gamma_mills and the adaptive forms is the
    # unchecked _reduce_s; the public reduce_s checks, then runs the same body
    calls = []
    check = gamma._check

    def counted(form, *args):
        calls.append(form)
        return check(form, *args)

    monkeypatch.setattr(gamma, "_check", counted)
    for front, s in ((gamma.gamma_mills, 3.5), (cf_l1, 3.5), (laguerre, 2.0),
                     (winitzki_cf, 7.25)):
        calls.clear()
        assert front(s, 20.0) == reduce_s(s, 20.0)
        assert calls == [front.__name__, "reduce_s"], calls
    with pytest.raises(ValueError, match=r"^reduce_s handles s > 1"):
        reduce_s(1.0, 2.0)
    with pytest.raises(ValueError, match=r"^reduce_s at s=.* needs more than"):
        gamma.gamma_mills(2.0 ** 20 + 2.5, 1.0)
