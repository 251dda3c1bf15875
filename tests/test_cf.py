"""Engine-level checks: recursions, backward folding, the depth rule, and
verify's toolkit."""

import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from millscf import gamma
from millscf.cf import (
    CFEvaluationError,
    CFSpec,
    eval_backward,
    forward_recurrence,
)
from millscf.gamma import bounds_s01, cf_l1, laguerre, lower_cf, winitzki_cf
from millscf.gauss import (asymptotic_series, decays_beyond, delta, mills,
                           mills_grid, scan_max_delta, taylor_mills,
                           truncation_bound)
from millscf.tails import beta0, custom, mod_constants
from millscf.verify import (
    _InvalidTransformError as InvalidTransformError,
    _continuant_oracle as continuant_oracle,
    _equivalence_transform as equivalence_transform,
    _eval_doubly_modified as eval_doubly_modified,
    _laplace_spec as laplace_spec,
)

LAP = laplace_spec()


def natural_tail(x):
    # the unmodified terminating denominator of the Laplace fraction
    return x


def test_first_convergents_by_hand():
    # 1/x, x/(x^2+1), 1/(x + 1/(x + 2/x)) worked out by hand
    assert forward_recurrence(LAP, 2.0, 1).value() == 0.5
    assert forward_recurrence(LAP, 1.0, 2).value() == 0.5
    assert forward_recurrence(LAP, 1.0, 3).value() == 0.75


def test_forward_depth_zero():
    st_ = forward_recurrence(LAP, 2.0, 0)
    assert (st_.A, st_.B, st_.A_prev, st_.B_prev) == (0.0, 1.0, 1.0, 0.0)
    assert st_.scale_log2 == 0


def test_determinant_identity_small_depths():
    # A_{n-1} B_n - A_n B_{n-1} = prod (-a_i) = (-1)^n (n-1)!
    for n in range(1, 12):
        st_ = forward_recurrence(LAP, 1.0, n)
        det = st_.A_prev * st_.B - st_.A * st_.B_prev
        want = (-1.0) ** n * math.factorial(n - 1)
        assert math.isclose(det, want, rel_tol=1e-9), (n, det, want)


def test_backward_reproduces_forward():
    for x in (0.5, 1.0, 3.0, 10.0):
        for n in (1, 2, 5, 17, 30):
            back = eval_backward(LAP, x, n, natural_tail(x))
            fwd = forward_recurrence(LAP, x, n).value()
            assert math.isclose(back, fwd, rel_tol=1e-13), (x, n)


def test_backward_hand_values():
    # depth 2 with a replaced terminating denominator: 1/(x + 1/tail)
    assert eval_backward(LAP, 1.0, 2, 1.0) == 0.5
    assert eval_backward(LAP, 1.0, 2, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # depth 0 is the tail itself
    assert eval_backward(LAP, 1.0, 0, 7.25) == 7.25


def test_backward_zero_numerator_truncates():
    spec = CFSpec(a=lambda k, x: float(3 - k), b=lambda k, x: x, name="trunc")
    # a_3 = 0, so levels >= 3 cannot contribute: any tail gives the same value
    v1 = eval_backward(spec, 2.0, 5, 123.0)
    v2 = eval_backward(spec, 2.0, 5, -0.5)
    assert v1 == v2


def test_backward_error_paths():
    with pytest.raises(CFEvaluationError):
        eval_backward(LAP, 1.0, 3, 0.0)
    with pytest.raises(CFEvaluationError):
        eval_backward(LAP, 1.0, 3, float("nan"))
    with pytest.raises(ValueError):
        eval_backward(LAP, 1.0, -1, 1.0)


def test_forward_recurrence_names_a_non_finite_level():
    # a_k is checked before b_k, on a callable spec and a stream spec alike
    for level, text in (((1.0, math.inf), "b(2) = inf"),
                        ((math.nan, 1.0), "a(2) = nan"),
                        ((-math.inf, math.nan), "a(2) = -inf")):
        rows = [(1.0, 1.0), level, (1.0, 1.0)]
        calls = CFSpec(a=lambda k, x: rows[k - 1][0],
                       b=lambda k, x: rows[k - 1][1], name="t")
        stream = CFSpec(name="t", levels=lambda x: iter(rows))
        for spec in (calls, stream):
            forward_recurrence(spec, 1.0, 1)
            with pytest.raises(CFEvaluationError) as err:
                forward_recurrence(spec, 1.0, 3)
            assert str(err.value) == f"non-finite coefficient {text} in spec 't'"


def test_domain_rejection():
    with pytest.raises(ValueError):
        forward_recurrence(LAP, -1.0, 5)
    with pytest.raises(ValueError):
        forward_recurrence(LAP, 0.0, 5)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=1e3), n=st.integers(max_value=-1))
def test_negative_depth_raises_on_every_route(x, n):
    with pytest.raises(ValueError, match=r"^forward_recurrence needs a depth"):
        forward_recurrence(LAP, x, n)
    with pytest.raises(ValueError, match=r"^eval_backward needs a depth"):
        eval_backward(LAP, x, n, x)


def _untouchable(*args):
    raise AssertionError("a tail or level was read before the depth check")


_NO_TAIL = custom(_untouchable)
_NO_SPEC = CFSpec(a=_untouchable, b=_untouchable, name="untouchable",
                  levels=_untouchable)

# every entry point that takes a depth or a term count, on inputs that are
# valid apart from it; a tail, a spec level or a Gamma fold read before the
# depth check fails the test
_DEPTH_TAKERS = {
    "mills": lambda n: mills(1.0, n, _NO_TAIL),
    "mills_grid": lambda n: mills_grid(np.array([1.0]), n, _NO_TAIL),
    "delta": lambda n: delta(1.0, n, _NO_TAIL),
    "scan_max_delta": lambda n: scan_max_delta(_NO_TAIL, n),
    "decays_beyond": lambda n: decays_beyond(_NO_TAIL, n),
    "truncation_bound": lambda n: truncation_bound(1.0, n),
    "asymptotic_series": lambda n: asymptotic_series(1.0, n),
    "taylor_mills": lambda n: taylor_mills(1.0, n),
    "beta0": beta0,
    "mod_constants": mod_constants,
    "eval_backward": lambda n: eval_backward(_NO_SPEC, 1.0, n, 1.0),
    "forward_recurrence": lambda n: forward_recurrence(_NO_SPEC, 1.0, n),
    "cf_l1": lambda n: cf_l1(0.5, 1.0, n),
    "laguerre": lambda n: laguerre(0.5, 1.0, n),
    "lower_cf": lambda n: lower_cf(0.5, 1.0, n),
    "winitzki_cf": lambda n: winitzki_cf(0.5, 1.0, n),
    "bounds_s01": lambda n: bounds_s01(0.5, 1.0, n),
}
# None means adaptive for the Gamma forms, and all terms for taylor_mills
_NONE_IS_VALID = {"cf_l1", "laguerre", "lower_cf", "winitzki_cf", "taylor_mills"}

# ints past 2**20 go up to 10**400, so an entry point that folds before it
# checks hangs instead of passing
_BAD_DEPTHS = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**20 + 1, max_value=10**400),
    st.sampled_from([2.5, 3.0, -0.0, 1e300, math.nan, math.inf, -math.inf,
                     None]))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_DEPTH_TAKERS)), n=_BAD_DEPTHS)
@example(name="bounds_s01", n=2**20)   # it folds depth n + 1
def test_every_depth_taker_refuses_a_bad_depth_by_name(name, n):
    if n is None and name in _NONE_IS_VALID:
        return
    # bounds_s01 folds through gamma._l1_fold, the Gamma forms through _evaluate
    with mock.patch.object(gamma, "_evaluate", _untouchable), \
            mock.patch.object(gamma, "_l1_fold", _untouchable), \
            pytest.raises(ValueError) as err:
        _DEPTH_TAKERS[name](n)
    text = str(err.value)
    assert text.startswith(f"{name} needs a depth") and \
        text.endswith(f"got {n!r}"), text


def test_the_depth_rule_at_its_edges():
    # a bare TypeError, a bare OverflowError, c_0 for nan, and a fold that
    # did not return
    for f, n in ((mills, 2.5), (mills, 2**20 + 1), (taylor_mills, math.nan),
                 (taylor_mills, math.inf)):
        with pytest.raises(ValueError, match=f"got {n!r}$"):
            f(1.0, n, "classic") if f is mills else f(1.0, n)
    with pytest.raises(ValueError, match="got 10{400}$"):
        mills(1.0, 10**400, "sqrt")
    with pytest.raises(ValueError, match="got 10{400}$"):
        beta0(10**400)
    # integral floats are refused, where the series took 2.5 as 3 terms
    with pytest.raises(ValueError, match="got 3.0$"):
        taylor_mills(1.0, 3.0)
    with pytest.raises(ValueError, match="from 1 to"):
        taylor_mills(1.0, 0)
    # the deepest fold still runs (about 0.2 s); ints of any kind are depths
    deepest = mills(1.0, 2**20, "classic")
    assert deepest.n == 2**20 and 0.0 < deepest.value < 1.0
    assert mills(1.0, np.int64(3), "sqrt") == mills(1.0, 3, "sqrt")
    assert type(mills(1.0, np.int64(3)).n) is int


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.05, max_value=30.0),
       n=st.integers(min_value=1, max_value=40))
def test_backward_forward_agree(x, n):
    back = eval_backward(LAP, x, n, natural_tail(x))
    fwd = forward_recurrence(LAP, x, n).value()
    assert math.isclose(back, fwd, rel_tol=1e-11)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=0.1, max_value=20.0),
       c=st.floats(min_value=0.5, max_value=3.0),
       n=st.integers(min_value=1, max_value=25))
def test_equivalence_leaves_convergents_alone(x, c, n):
    scaled = equivalence_transform(LAP, lambda k, x_: 1.0 if k == 0 else c)
    for d in range(1, n + 1):
        va = forward_recurrence(LAP, x, d).value()
        vb = forward_recurrence(scaled, x, d).value()
        assert math.isclose(va, vb, rel_tol=1e-12)


def test_equivalence_validation():
    bad_head = equivalence_transform(LAP, lambda k, x: 2.0)
    with pytest.raises(InvalidTransformError):
        forward_recurrence(bad_head, 1.0, 3)
    vanishing = equivalence_transform(
        LAP, lambda k, x: 1.0 if k == 0 else float(k - 2))
    with pytest.raises(InvalidTransformError):
        forward_recurrence(vanishing, 1.0, 4)


def test_doubly_modified_reductions():
    x, n = 1.5, 6
    plain = forward_recurrence(LAP, x, n).value()
    an = float(n - 1)
    assert eval_doubly_modified(LAP, x, n, alpha=an, gamma=0.0) == pytest.approx(
        plain, rel=1e-14)
    shallower = forward_recurrence(LAP, x, n - 1).value()
    assert eval_doubly_modified(LAP, x, n, alpha=0.0, gamma=5.0) == pytest.approx(
        shallower, rel=1e-14)
    # gamma shifts the terminating denominator like a backward tail of b_n+gamma
    g = 0.75
    via_tail = eval_backward(LAP, x, n, x + g)
    assert eval_doubly_modified(LAP, x, n, alpha=an, gamma=g) == pytest.approx(
        via_tail, rel=1e-13)
    with pytest.raises(ValueError):
        eval_doubly_modified(LAP, x, 1, alpha=0.0, gamma=0.0)


def test_continuant_oracle_agrees_with_recursion():
    for x in (0.5, 1.0, 2.0, 5.0):
        for n in range(0, 9):
            a_det, b_det = continuant_oracle(LAP, x, n)
            st_ = forward_recurrence(LAP, x, n)
            assert math.isclose(a_det, st_.A, rel_tol=1e-10, abs_tol=1e-12)
            assert math.isclose(b_det, st_.B, rel_tol=1e-10)


def test_continuant_anchors_and_cap():
    assert continuant_oracle(LAP, 3.0, 1) == pytest.approx((1.0, 3.0))
    assert continuant_oracle(LAP, 1.0, 2) == pytest.approx((1.0, 2.0))
    with pytest.raises(ValueError):
        continuant_oracle(LAP, 1.0, 9)


def test_deep_evaluation_rescales_instead_of_overflowing():
    st_ = forward_recurrence(LAP, 0.5, 1500)
    assert st_.scale_log2 > 0
    assert math.isfinite(st_.B) and st_.B > 0
    from millscf.reference import reference_mills

    assert math.isclose(st_.value(), reference_mills(0.5), rel_tol=1e-13)


def test_levels_past_the_headroom_rescale_before_the_multiply():
    # b_k = x beyond 2^512 would overflow a level even from continuants
    # rescaled under 2^500; B_31 is x^31 to within 31 * 30 / x^2
    for x in (1e160, 1e300, 1.7e308):
        st_ = forward_recurrence(LAP, x, 31)
        assert math.isfinite(st_.B) and st_.B > 0 and st_.B_prev > 0
        log_b = math.log(st_.B) + st_.scale_log2 * math.log(2.0)
        assert log_b == pytest.approx(31 * math.log(x), rel=1e-13), x


def test_numerators_survive_huge_x():
    # A_k falls about x below B_k: a scale shared by both pairs pushed the
    # numerators to 0 (depth 4 at x = 1e300 read 0.0); each pair has its own
    for x in (1e160, 1e300, 1.7e308):
        vals = [forward_recurrence(LAP, x, d).value() for d in range(1, 9)]
        for v in vals:
            assert abs(v - 1.0 / x) <= 2 * math.ulp(1.0 / x), (x, vals)


def test_cross_determinant_under_separate_scales():
    # stored A_prev B - A B_prev = prod(-a_i) * 2^-(a_scale + b_scale); a
    # first numerator of 2^-900 keeps the A pair under 2^-500, so only it is
    # scaled up and the two scales differ
    tiny = CFSpec(a=lambda k, x: 2.0 ** -900 if k == 1 else 1.0,
                  b=lambda k, x: 1.0, name="tiny")
    fib = [1, 1]
    for n in range(1, 13):
        fib.append(fib[-1] + fib[-2])
        st_ = forward_recurrence(tiny, 1.0, n)
        assert (st_.a_scale_log2, st_.scale_log2) == (-512, 0)
        det = st_.A_prev * st_.B - st_.A * st_.B_prev
        assert math.ldexp(det, st_.a_scale_log2 + st_.scale_log2) == (
            pytest.approx((-1) ** n * 2.0 ** -900, rel=1e-12))
        # the unit fraction's convergents are F_n / F_{n+1}
        assert st_.value() == pytest.approx(
            2.0 ** -900 * fib[n - 1] / fib[n], rel=1e-15)


def test_cfspec_is_a_frozen_slotted_record():
    a = lambda k, x: 1.0
    b = lambda k, x: x
    spec = CFSpec(a, b)
    assert (spec.a, spec.b, spec.name, spec.levels) == (a, b, "", None)
    assert not hasattr(spec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "other"
    # a name that is not a field is refused the same way, set or deleted
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.other = 1
    for name in ("name", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(spec, name)
    stream = lambda x: iter(())
    kw = CFSpec(a=a, b=b, name="n", levels=stream)
    assert kw == CFSpec(a, b, "n", stream) and kw != spec
    assert (kw.name, kw.levels) == ("n", stream)
    # the benchmark tracer swaps a counting a in through replace
    f = lambda k, x: 2.0
    swapped = dataclasses.replace(kw, a=f)
    assert type(swapped) is CFSpec and swapped.a is f
    assert (swapped.b, swapped.name, swapped.levels) == (b, "n", stream)


def test_a_stream_spec_has_no_callables():
    # the Gamma specs give only a level stream; the tracer's replace of a
    # still builds a spec from one
    stream = lambda x: iter(((1.0, x), (1.0, x)))
    spec = CFSpec(name="s", levels=stream)
    assert spec.a is spec.b is None and spec.levels is stream
    for factory in (gamma.l1_spec, gamma.laguerre_spec, gamma.lower_spec,
                    gamma.winitzki_spec):
        assert factory(0.5).a is factory(0.5).b is None
    f = lambda k, x: 2.0
    swapped = dataclasses.replace(spec, a=f)
    assert type(swapped) is CFSpec and swapped.a is f
    assert (swapped.b, swapped.name, swapped.levels) == (None, "s", stream)
    # both routes read the stream, not a
    assert eval_backward(swapped, 2.0, 2, 2.0) == 1.0 / (2.0 + 1.0 / 2.0)
    assert forward_recurrence(swapped, 2.0, 2).value() == 1.0 / (2.0 + 1.0 / 2.0)


def test_backward_fold_of_callables_runs_in_constant_memory():
    # levels are computed one at a time, innermost first: a list of them
    # would take about 11 MB at this depth
    tracemalloc.start()
    try:
        eval_backward(LAP, 1.0, 2**17, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak
