"""Gamma Mills ratio: the four fraction forms, reduction, and brackets."""

import math
import re
import struct
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammainc, gammaln

from millscf import gamma
from millscf.cf import CFEvaluationError
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
# 1 + 1e-14 snaps to an integer shape; x = 0.125 runs the slow forms to the cap
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


def test_adaptive_depth_and_failure():
    # adaptive mode needs no explicit depth on friendly inputs
    assert laguerre(0.5, 2.0) == pytest.approx(laguerre(0.5, 2.0, 300),
                                               rel=1e-11)
    # the 1/x-variable form creeps at small x and hits the cap
    with pytest.raises(ConvergenceError):
        winitzki_cf(0.5, 0.125)


def test_convergence_error_names_form_s_and_x():
    with pytest.raises(ConvergenceError,
                       match=r"^winitzki form of M_s\(x\) at s=0\.5, x=0\.125: "):
        winitzki_cf(0.5, 0.125)


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
    assert reduce_s(4.5, 3.0, evaluator=lambda s_, x_: laguerre(s_, x_, 80)) == \
        pytest.approx(laguerre(4.5, 3.0, 80), rel=1e-8)
    with pytest.raises(ValueError):
        reduce_s(1.0, 2.0)
    with pytest.raises(ValueError):
        reduce_s(0.5, 2.0)
    with pytest.raises(TypeError):
        reduce_s(2.5, 2.0, evaluator="laguerre")


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
    # scaling all four continuants before each level past the headroom
    # pushed the smaller pair under the subnormal range: laguerre's
    # numerators, x^(1-s) below its denominators at the largest double, and
    # winitzki_cf's at tiny x, where both returned 0.0
    for s in (0.01, 0.3):
        m = laguerre(s, 1.7976931348623157e308)
        assert abs(m - 1.0) <= 1e-12, (s, m)
    for s in (0.01, 0.3, 0.5, 0.99):
        for x in (1e-300, 1e-250):
            with pytest.raises(ConvergenceError, match=re.escape(f"s={s!r}, x={x!r}")):
                winitzki_cf(s, x)


def test_laguerre_at_tiny_x_raises_documented_errors():
    # x^(s-1) underflows to 0: M_s(x) >= 0.88 x^(1-s) is past the largest
    # double (this divided by zero); x^s alone underflows: the fraction's
    # first numerator is 0 (this returned -0.0 and 0.0 for M_s near 1e125
    # and 2e240)
    for n in (None, 0, 3):
        with pytest.raises(OverflowError, match="exceeds the largest double"):
            laguerre(2.5, 5e-324, n)
        for s, x in ((1.5, 1e-250), (3.0, 1e-120)):
            with pytest.raises(CFEvaluationError,
                               match=re.escape(f"s={s!r}, x={x!r}")):
                laguerre(s, x, n)


def test_reduce_s_raises_once_the_value_overflows():
    # M_{1e5+1/2}(3) is far beyond the largest double: raise, never return inf
    with pytest.raises(OverflowError, match=r"s=100000\.5, x=3\.0 is not finite "
                                             r"after 216 of 100000 reduction steps"):
        reduce_s(1e5 + 0.5, 3.0)


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


def test_adaptive_matches_the_per_level_reference():
    capped = 0
    for factory in SPECS:
        for s in SHAPES:
            spec = factory(s)
            for x in XS:
                got = _outcome(gamma._adaptive, spec, s, x)
                assert got == _outcome(_reference_adaptive, spec, s, x), \
                    (spec.name, s, x)
                capped += isinstance(got, tuple)
    assert capped > 0   # the cap-hit path is compared too
    # a cap of d levels folds exactly d: convergence at the last level counts
    for factory in SPECS:
        spec = factory(0.5)
        for x in (0.5, 2.0, 8.0):
            for d in range(1, 41):
                assert _outcome(gamma._adaptive, spec, 0.5, x, 1e-12, d) == \
                    _outcome(_reference_adaptive, spec, 0.5, x, 1e-12, d), \
                    (spec.name, x, d)


def test_level_streams_match_the_coefficient_callables():
    for factory in SPECS:
        for s in SHAPES:
            spec = factory(s)
            for x in XS:
                stream = list(islice(spec.levels(x), 500))
                want = [(spec.a(k, x), spec.b(k, x)) for k in range(1, 501)]
                assert np.array(stream).tobytes() == np.array(want).tobytes(), \
                    (spec.name, s, x)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       x=st.floats(min_value=1.0, max_value=1.7976931348623157e308))
def test_adaptive_forms_stay_inside_the_s01_bracket(s, x):
    # for s <= 1, Gamma(s, x) <= x^(s-1) e^-x gives M <= 1, and the depth-2
    # l1 convergent x/(x + 1 - s) is a lower bound
    lo = x / (x + 1.0 - s) - 1e-12
    for form in (laguerre, cf_l1, winitzki_cf):
        try:
            m = form(s, x)
        except ConvergenceError:
            continue
        assert math.isfinite(m) and lo <= m <= 1.0 + 1e-12, (form.__name__, s, x, m)


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
    except (ValueError, OverflowError, ConvergenceError):
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
