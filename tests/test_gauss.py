"""Gaussian Mills ratio approximants, error functionals, and series."""

import copy
import dataclasses
import math
import pickle
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millscf import cf, gauss, tails
from millscf.gauss import (
    Approximation,
    asymptotic_series,
    decays_beyond,
    delta,
    hazard,
    mills,
    mills_grid,
    pade_r2,
    phi,
    scan_max_delta,
    taylor_mills,
    truncation_bound,
)
from millscf.reference import reference_mills, reference_tail
from millscf.tails import TailFamily, get_family
from millscf.verify import (
    _error_integrand as error_integrand,
    _laplace_spec as laplace_spec,
    _lcf_spec as lcf_spec,
    _mills_derivatives as mills_derivatives,
    _second_error_integrand as second_error_integrand,
    _sign_operator as sign_operator,
)

SQRT_PI_2 = math.sqrt(math.pi / 2.0)


def test_phi_anchors():
    assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert phi(1.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2.0 * math.pi),
                                     rel=1e-15)


def test_mills_hand_values():
    # classic n=1 at x=1: 1/(1 + 1/1) worked out by hand
    a = mills(1.0, 1, "classic")
    assert a.value == 0.5
    assert a.bound_side == "lower"
    assert a.trunc_bound == pytest.approx(0.5, rel=1e-15)
    # the origin fit of the shift-linear tail
    b = mills(0.0, 3, "shift-linear")
    assert b.value == pytest.approx(SQRT_PI_2, abs=1e-14)
    assert b.trunc_bound is None
    # far tail: x R(x) -> 1 from below
    far = mills(50.0, 2, "classic").value * 50.0
    assert 0.999 < far < 1.0


def test_mills_bound_sides():
    for n in range(6):
        side = mills(1.5, n, "classic").bound_side
        assert side == ("upper" if n % 2 == 0 else "lower")
        val = mills(1.5, n, "classic").value
        ref = reference_mills(1.5)
        assert (val >= ref) == (n % 2 == 0)
    assert mills(1.5, 2, "improved-expo").bound_side == "unknown"


def test_mills_domain_errors():
    with pytest.raises(ValueError):
        mills(0.0, 1, "classic")
    with pytest.raises(ValueError):
        mills(-0.5, 1, "linear")
    with pytest.raises(ValueError):
        mills(1.0, -2, "linear")
    with pytest.raises(ValueError):
        mills(0.0, 0, "limit-ansatz")
    with pytest.raises(ValueError):
        mills(1.0, 1, "no-such-family")


def test_rn_domain_faults_are_refused():
    # a tail that is not positive folded on into a wrong value: R_0 = -1,
    # and R_2 = 1.5 where R(1) = 0.656
    with pytest.raises(ValueError, match=r"custom tail beta_0\(1.0\) = -1.0"):
        mills(1.0, 0, tails.custom(lambda n, x: -1.0))
    with pytest.raises(ValueError, match=r"custom tail beta_2\(1.0\) = -0.5"):
        mills(1.0, 2, tails.custom(lambda n, x: -0.5))
    # mills takes one x; an array gave a record whose value was an array
    with pytest.raises(TypeError, match="mills_grid"):
        mills(np.array([1.0]), 2, "linear")
    with pytest.raises(TypeError, match="mills_grid"):
        mills(np.array(1.0), 2, "linear")
    # mills_grid takes a 1-D array, and an empty one is an empty result
    with pytest.raises(ValueError, match="1-D"):
        mills_grid(np.ones((2, 2)), 1)
    empty = mills_grid(np.array([]), 1)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert delta(np.array([]), 1).shape == (0,)
    with pytest.raises(ValueError, match=r"^mills_grid needs a depth .* got -1$"):
        mills_grid(np.array([1.0]), -1)


def test_truncation_bound_values():
    assert truncation_bound(1.0, 1) == pytest.approx(0.5, rel=1e-14)
    # 10!/(B_10 B_11) at x=1, denominators from the forward recursion
    assert truncation_bound(1.0, 10) == pytest.approx(3628800.0 / 338969216.0,
                                                      rel=1e-12)
    for n in (1, 4, 9):
        assert truncation_bound(2.0, n) < truncation_bound(1.0, n)
    with pytest.raises(ValueError):
        truncation_bound(0.0, 3)
    with pytest.raises(ValueError):
        truncation_bound(1.0, -1)


def test_truncation_bound_is_honest():
    for x in (0.5, 1.0, 3.0):
        for n in range(1, 9):
            err = abs(mills(x, n, "classic").value - reference_mills(x))
            assert err < truncation_bound(x, n), (x, n)


def test_truncation_bound_never_a_false_zero():
    # n!/x^(2n+1) underflows here, and past x = 2^512 a level also outgrew
    # the rescaling headroom; the bound must stay positive and strict
    for x in (1e100, 1e154, 1e160, 1e300):
        for n in (0, 1, 3, 30):
            bound = truncation_bound(x, n)
            assert bound > 0.0, (x, n)
            err = abs(mills(x, n, "classic").value - reference_mills(x))
            assert err < bound, (x, n)
    assert truncation_bound(1e100, 0) == pytest.approx(1e-100, rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(), n=st.integers(min_value=0, max_value=200))
def test_truncation_bound_is_positive_or_raises(x, n):
    try:
        bound = truncation_bound(x, n)
    except ValueError:
        return
    assert bound > 0.0, (x, n, bound)   # inf is allowed, 0 and nan are not


def test_truncation_bound_past_the_largest_double_is_inf():
    # n!/(B_n B_{n+1}) = 1/x at n = 0 exceeds every double here; inf is
    # still a true bound, and never a false 0
    assert truncation_bound(5e-324, 0) == math.inf
    assert mills(5e-324, 0, "classic").trunc_bound == math.inf
    assert truncation_bound(1e-300, 0) == pytest.approx(1e300, rel=1e-13)
    with pytest.raises(ValueError):
        truncation_bound(math.inf, 1)
    with pytest.raises(ValueError):
        truncation_bound(math.nan, 1)


LOG_XS = np.logspace(-3.0, math.log10(30.0), 25).tolist()


def _bits(f, *args):
    """f(*args) as its exact bits, or the type of what it raised."""
    try:
        return f(*args).hex()
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc)


def test_fold_is_the_engine_fold_bit_for_bit():
    lap = laplace_spec()
    for name in tails.FAMILIES:
        fam = tails.get_family(name)
        for n in range(61):
            xs = LOG_XS + [1e-300, 1e300]
            if name != "classic" and not (name == "limit-ansatz" and n == 0):
                xs.append(0.0)
            for x in xs:
                want = _bits(lambda: cf.eval_backward(lap, x, n + 1, fam.value(n, x)))
                assert _bits(lambda: mills(x, n, name).value) == want, (name, n, x)


def _engine_bound(x, n):
    st = cf.forward_recurrence(laplace_spec(), x, n + 1)
    log_bound = (math.lgamma(n + 1.0) - math.log(st.B) - math.log(st.B_prev)
                 - 2.0 * st.scale_log2 * math.log(2.0))
    return max(math.exp(log_bound), math.ulp(0.0))


def test_truncation_bound_is_the_engine_formula_bit_for_bit():
    for x in LOG_XS + [1e100, 1e160, 1e300]:
        for n in range(61):
            assert truncation_bound(x, n).hex() == _engine_bound(x, n).hex(), (x, n)


def test_fold_past_the_float_levels_is_the_engine_fold():
    # the fast box folds on gauss._LEVELS up to its length, on range past it
    lap = laplace_spec()
    size = len(gauss._LEVELS)
    for name in tails.FAMILIES:
        fam = tails.get_family(name)
        for n in (size - 1, size, size + 1, 5000):
            for x in LOG_XS + [1e-300, 1e300]:
                want = _bits(lambda: cf.eval_backward(lap, x, n + 1, fam.value(n, x)))
                assert _bits(lambda: mills(x, n, name).value) == want, (name, n, x)


def _engine_bound_or_inf(x, n):
    # truncation_bound returns a bound past the largest double as inf
    try:
        return _engine_bound(x, n)
    except OverflowError:
        return math.inf


def test_truncation_bound_on_both_sides_of_its_box():
    # x <= 64 and n <= 64 run the unchecked loop, anything past it the checked
    for x in (64.0, math.nextafter(64.0, math.inf), 5e-324, 1e-300):
        for n in (0, 63, 64, 65):
            assert truncation_bound(x, n).hex() == _engine_bound_or_inf(x, n).hex(), (x, n)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=5e-324, max_value=200.0),
       n=st.integers(min_value=0, max_value=150))
def test_truncation_bound_is_the_engine_formula_anywhere(x, n):
    assert truncation_bound(x, n).hex() == _engine_bound_or_inf(x, n).hex()


def test_non_finite_x_raises_for_every_family():
    for name in tails.FAMILIES:
        for x in (math.nan, math.inf):
            for n in (0, 3):
                with pytest.raises(cf.CFEvaluationError):
                    mills(x, n, name)


def test_fold_overflow_raises_on_both_routes():
    # R_1(5e-324) = x/(x^2 + 1) is about 5e-324, but its fold passes 1/x,
    # which the old fold carried on into 0.0; at x = 1e-308 the fold of
    # R_2 = (x^2 + 2)/(x^3 + 3x), about 6.7e307, passes 2/x and came out 1e308
    for x, n in ((5e-324, 1), (5e-324, 2), (5e-324, 7), (1e-308, 2)):
        with pytest.raises(OverflowError, match="overflows a double"):
            mills(x, n, "classic")
        with pytest.raises(OverflowError, match="overflows a double"):
            mills_grid(np.array([1.0, x]), n, "classic")
    # only the last step overflowing means R_n itself is past the largest
    # double, which comes back as inf, like its truncation bound
    assert mills(5e-324, 0, "classic").value == math.inf
    assert mills_grid(np.array([1.0, 5e-324]), 0, "classic")[1] == math.inf
    assert mills(5e-324, 0, "limit-ansatz").value == math.inf
    # the same tiny x is harmless under a tail of order one
    assert mills(5e-324, 7, "sqrt").value == mills(0.0, 7, "sqrt").value


def test_approximation_record_semantics():
    names = ["value", "n", "family", "bound_side", "trunc_bound"]
    for x, n, family in ((1.3, 2, "classic"), (0.0, 5, "improved-expo"),
                         (2.0, 1, "sqrt")):
        a = mills(x, n, family)
        fields = {name: getattr(a, name) for name in names}
        b = Approximation(**fields)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(a)] == names
        assert dataclasses.asdict(a) == fields
        moved = dataclasses.replace(a, n=7)
        assert moved == Approximation(**{**fields, "n": 7}) and moved != a
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, proto)) == a
        assert copy.deepcopy(a) == a and copy.copy(a) == a
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
        with pytest.raises((AttributeError, TypeError)):
            a.extra = 1
        assert not hasattr(a, "__dict__")
        assert not isinstance(a, tuple)   # callers that encode tuples differ


def _improved_expo_mp(x, n):
    """R_n(x) at 50 digits from the improved-expo tail's double constants."""
    c = tails.mod_constants(n)
    rate = math.sqrt(c.r)
    cn = c.lam + rate * c.beta_at_zero
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        t = (mpmath.mpf(cn) * x
             + mpmath.mpf(c.beta_at_zero) * mpmath.exp(-mpmath.mpf(rate) * x))
        for k in range(n, 0, -1):
            t = x + k / t
        return float(1 / t)


def test_improved_expo_up_to_the_largest_double():
    # c_n x overflows near the largest double (c_n > 1); R_n is about 1/x
    xs = [1e307, 3e307, 1e308, 1.5e308, 1.7e308, 1.79e308,
          1.7976931348623157e308]
    for n in range(61):
        grid = mills_grid(np.array(xs), n, "improved-expo")
        for x, g in zip(xs, grid.tolist()):
            want = _improved_expo_mp(x, n)
            got = mills(x, n, "improved-expo").value
            assert got == g, (n, x)
            assert abs(got - want) <= 4 * math.ulp(want), (n, x, got, want)
    # a tail that overflows but does not grow linearly there is refused
    steep = tails.custom(lambda n, x: x * (1.0 + x / 1.79e308))
    with pytest.raises(cf.CFEvaluationError):
        mills(1.79e308, 0, steep)
    with pytest.raises(cf.CFEvaluationError):
        mills_grid(np.array([1.0, 1.79e308]), 0, steep)


def test_hazard_anchors():
    assert hazard(0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-13)
    assert hazard(1.0) == pytest.approx(1.5251352761609812, rel=1e-12)
    assert 10.0 < hazard(10.0) < 10.1
    assert hazard(2.0) * reference_mills(2.0) == pytest.approx(1.0, abs=1e-15)


def test_hazard_at_infinity_is_the_bracket_limit():
    # R(inf) = 0: the hazard, bracketed by (x, x + 1/x), goes to inf there
    assert hazard(math.inf) == math.inf
    assert hazard(1e300) == pytest.approx(1e300, rel=1e-15)
    for bad in (-1.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            hazard(bad)


def _mp_hazard(x):
    """phi(x)/(1 - Phi(x)) from mpmath's erfc, at enough digits for x."""
    with mpmath.workdps(40 + 2 * int(math.log10(x))):
        x = mpmath.mpf(x)
        r = (mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(x * x / 2)
             * mpmath.erfc(x / mpmath.sqrt(2)))
        return float(1 / r)


def test_hazard_up_to_the_largest_double():
    # from 1e8 on, the hazard x + 1/x - 2/x^3 + ... is within an ulp of x;
    # the next term is 1e-48 of it, so three terms at 60 digits round right
    def want(x):
        with mpmath.workdps(60):
            v = mpmath.mpf(x)
            return float(v + 1 / v - 2 / v ** 3)

    big = 1.7976931348623157e308
    for x in (1e8, 1e20, 1e100):
        assert want(x) == _mp_hazard(x), x
    logs = np.linspace(math.log(1e8), math.log(big), 401).tolist()
    for x in [1e8, big] + [min(math.exp(v), big) for v in logs]:
        got = hazard(x)
        assert abs(got - want(x)) <= math.ulp(want(x)), x
        assert abs(got - x) <= math.ulp(x), x
    assert hazard(big) == big
    assert hazard(math.inf) == math.inf
    # below 1e8 the value is still the oracle's reciprocal
    for x in (1.0, 1e4, 9.9e7, 99999999.99999999):
        assert hazard(x) == 1.0 / reference_mills(x), x


def test_asymptotic_series_values():
    r = asymptotic_series(5.0, 2)
    assert r.value == pytest.approx(603.0 / 3125.0, rel=1e-15)
    assert not r.diverging
    assert asymptotic_series(5.0, 13).diverging          # 27 > 25
    assert not asymptotic_series(5.0, 12).diverging
    good = asymptotic_series(10.0, 4)
    assert abs(good.value - reference_mills(10.0)) < 1e-5
    assert not good.diverging
    with pytest.raises(ValueError):
        asymptotic_series(0.0, 2)
    with pytest.raises(ValueError):
        asymptotic_series(5.0, -1)


def test_asymptotic_series_where_the_square_underflows():
    # m = 0 is 1/x whenever that is a double, even where x^2 underflows to 0
    tiny = asymptotic_series(1e-200, 0)
    assert tiny == (1e200, True)
    assert asymptotic_series(1e-100, 1) == pytest.approx((-1e300, True),
                                                         rel=1e-15)
    # past the largest double the sum raises, naming the function
    for x, m in ((1e-200, 1), (1e-200, 5), (5e-324, 0), (5e-324, 3),
                 (1e-100, 3), (1e-100, 2)):
        with pytest.raises(OverflowError, match="asymptotic_series"):
            asymptotic_series(x, m)
    with pytest.raises(ValueError):
        asymptotic_series(math.nan, 5)
    # inf: the partial sum is 1/x = 0, and never diverging
    assert asymptotic_series(math.inf, 3) == (0.0, False)


def test_taylor_mills():
    for x in (0.0, 0.25, 1.0, 3.5):
        assert taylor_mills(x) == pytest.approx(reference_mills(x), rel=1e-13)
    assert taylor_mills(1.0, m=40) == pytest.approx(reference_mills(1.0),
                                                    rel=1e-13)
    # few terms leave a visible remainder; more terms shrink it
    rough = abs(taylor_mills(1.0, m=3) - reference_mills(1.0))
    finer = abs(taylor_mills(1.0, m=20) - reference_mills(1.0))
    assert rough > 0.1 and finer < 1e-9
    with pytest.raises(ValueError):
        taylor_mills(4.5)
    with pytest.raises(ValueError):
        taylor_mills(1.0, m=0)


def test_taylor_mills_refuses_nan_and_infinities():
    for bad in (math.nan, math.inf, -math.inf, -4.5):
        with pytest.raises(ValueError, match="restricted"):
            taylor_mills(bad)


def test_delta_values():
    assert delta(1.0, 1, "classic") == pytest.approx(0.03766989167188537,
                                                     rel=1e-10)
    for name in ("sqrt", "linear", "shift-linear", "improved-expo"):
        assert abs(delta(0.0, 2, name)) < 1e-14, name


# 4 ulp of the subtracted terms phi R and phi R_n: delta is their
# difference, and numpy's exp may differ from math.exp by an ulp
GRID_ULPS = 4.0 * 2.0**-52
GRID_XS = np.concatenate([[0.0, 1e-3, 0.999, 1.0, 1.001], np.arange(1, 41) * 0.5])


def test_grid_delta_matches_scalar():
    tails_ref = np.array([reference_tail(x) for x in GRID_XS.tolist()])
    for name in tails.FAMILIES:
        for n in range(13):
            skip = name == "classic" or (name == "limit-ansatz" and n == 0)
            xs = GRID_XS[1:] if skip else GRID_XS
            scalar = np.array([delta(x, n, name) for x in xs.tolist()])
            got = delta(xs, n, name)
            # phi R_n = phi R - delta, so this dominates both terms
            tol = GRID_ULPS * (tails_ref[len(GRID_XS) - len(xs):] + np.abs(scalar))
            assert np.all(np.abs(got - scalar) <= tol), (name, n)
            # the fold itself is the scalar arithmetic; only exp may differ
            values = [mills(x, n, name).value for x in xs.tolist()]
            if name == "improved-expo":
                assert mills_grid(xs, n, name) == pytest.approx(values, rel=GRID_ULPS)
            else:
                assert mills_grid(xs, n, name).tolist() == values, (name, n)


def test_grid_errors_match_scalar():
    with pytest.raises(ValueError, match="classic tail .* is not positive"):
        delta(np.array([0.0, 1.0]), 1, "classic")
    with pytest.raises(ValueError, match="x >= 0"):
        mills_grid(np.array([1.0, -0.5]), 1, "linear")
    with pytest.raises(ValueError, match="limit-ansatz tail .* is not positive"):
        mills_grid(np.array([0.0, 1.0]), 0, "limit-ansatz")
    with pytest.raises(cf.CFEvaluationError):
        mills_grid(np.array([1.0, np.inf]), 2, "sqrt")
    with pytest.raises(cf.CFEvaluationError):
        mills(np.inf, 2, "sqrt")
    # a tail that is not positive somewhere on the grid is refused up front
    dip = tails.custom(lambda n, x: x - 1.0)
    with pytest.raises(ValueError, match="custom tail beta_0"):
        mills_grid(np.array([0.5, 1.0]), 0, dip)
    with pytest.raises(ValueError, match="custom tail beta_0"):
        mills(1.0, 0, dip)


def test_error_integrand_hand_values():
    # classic depth 0 is R_0 = 1/u, so delta_0(u) = -1/u^2
    classic = get_family("classic")
    assert error_integrand(1.0, 0, classic) == pytest.approx(-1.0, rel=1e-13)
    assert error_integrand(2.0, 0, classic) == pytest.approx(-0.25, rel=1e-13)
    # and the second form R'' - 2uR' + (u^2-1)R - u gives 2/u^3 + 1/u
    assert second_error_integrand(1.0, 0, classic) == pytest.approx(3.0,
                                                                    rel=1e-11)


def test_derivatives_match_differences():
    h = 1e-5
    for name in ("classic", "improved-expo", "linear"):
        for n in (1, 3):
            for u in (0.8, 2.0):
                r, r1, r2 = mills_derivatives(u, n, get_family(name))
                vp = mills(u + h, n, name).value
                vm = mills(u - h, n, name).value
                assert r == pytest.approx(mills(u, n, name).value, rel=1e-13)
                assert r1 == pytest.approx((vp - vm) / (2 * h), abs=5e-9)
                assert r2 == pytest.approx((vp - 2 * r + vm) / (h * h), abs=5e-5)


def test_exact_continuation_tail_kills_the_error():
    # replacing the terminating denominator by the true continuation of the
    # fraction reproduces R itself, so delta_n collapses to rounding noise
    def continuation(n, x, depth=80):
        t = x
        for m in range(depth, n + 1, -1):
            t = x + (m - 1) / t
        return t

    def deriv(n, x, h=1e-6):
        return (continuation(n, x + h) - continuation(n, x - h)) / (2.0 * h)

    def second(n, x, h=1e-5):
        return (deriv(n, x + h) - deriv(n, x - h)) / (2.0 * h)

    # the proof helpers read both derivatives, so the tail carries them
    fam = TailFamily(kind="custom", value=continuation, deriv=deriv,
                     second=second)
    assert abs(delta(2.0, 3, fam)) < 1e-14
    assert abs(error_integrand(2.0, 3, fam)) < 1e-10
    assert abs(error_integrand(4.0, 3, fam)) < 1e-10


def test_sign_operator_families():
    # classic tail: u x + 1 + n - x^2 at x = u collapses to n + 1
    classic = get_family("classic")
    for n in (0, 2, 5):
        for u in (0.5, 2.0):
            assert sign_operator(u, n, classic) == pytest.approx(n + 1.0,
                                                                 rel=1e-12)
    # limit ansatz: the operator reduces to beta'
    fam = tails.get_family("limit-ansatz")
    for n in (1, 3):
        for u in (0.0, 1.5):
            assert sign_operator(u, n, fam) == pytest.approx(
                fam.deriv(n, u), rel=1e-10)
    assert sign_operator(0.0, 2, fam) == pytest.approx(0.5, rel=1e-12)
    # sqrt family starts negative at the origin: 1/2 + n - beta_n(0)^2 < 0
    for n in (0, 1, 4):
        v = sign_operator(0.0, n, get_family("sqrt"))
        assert -0.5 < v < 0.0, (n, v)


def test_quantitative_sign_lemma():
    # delta_n(u) (beta B_n + n B_{n-1})^2 = (-1)^(n-1) n! G_n(beta)
    lap = laplace_spec()
    for name in ("classic", "sqrt", "improved-expo"):
        fam = tails.get_family(name)
        for n in (1, 2, 3):
            for u in (0.7, 1.5, 3.0):
                st = cf.forward_recurrence(lap, u, n)
                d_n = fam.value(n, u) * st.B + n * st.B_prev
                lhs = error_integrand(u, n, fam) * d_n * d_n
                rhs = (-1.0) ** (n - 1) * math.factorial(n) * sign_operator(
                    u, n, fam)
                assert lhs == pytest.approx(rhs, rel=1e-9), (name, n, u)


def test_pade_variants():
    assert pade_r2(0.0) == pytest.approx(SQRT_PI_2, abs=1e-15)
    assert pade_r2(0.0, origin_terms=3) == pytest.approx(SQRT_PI_2, abs=1e-15)
    # both reproduce the 1/x leading behaviour at infinity
    for terms in (1, 3):
        assert pade_r2(1e6, origin_terms=terms) * 1e6 == pytest.approx(
            1.0, rel=1e-5)
    # the default also matches the next asymptotic coefficient: x^3(f-1/x) -> -1
    x = 1e3
    assert x**3 * (pade_r2(x) - 1.0 / x) == pytest.approx(-1.0, rel=0.01)
    # the 3-term variant matches value, slope and curvature at the origin
    h = 1e-4
    f0 = pade_r2(0.0, origin_terms=3)
    f1 = (pade_r2(h, origin_terms=3) - pade_r2(0.0, origin_terms=3)) / h
    fp, fm = pade_r2(h, origin_terms=3), pade_r2(0.0, origin_terms=3)
    second = (pade_r2(2 * h, origin_terms=3) - 2 * fp + fm) / (h * h)
    assert f1 == pytest.approx(-1.0, abs=1e-3)
    assert second == pytest.approx(SQRT_PI_2, abs=1e-2)
    with pytest.raises(ValueError):
        pade_r2(1.0, origin_terms=2)


def test_pade_at_the_domain_edges():
    for terms in (1, 3):
        # past x = 1.34e154 the square overflows; the value is the 1/x limit
        for x in (1.4e154, 1e200, 1.7976931348623157e308):
            assert pade_r2(x, origin_terms=terms) == 1.0 / x, (terms, x)
        assert pade_r2(math.inf, origin_terms=terms) == 0.0
        # just below the overflow it is 1/x to the leading order too
        x = 1.3e154
        assert x * x < math.inf
        assert pade_r2(x, origin_terms=terms) * x == pytest.approx(1.0, rel=1e-15)
        for bad in (-1.0, -1e-300, -math.inf, math.nan):
            with pytest.raises(ValueError):
                pade_r2(bad, origin_terms=terms)
    # the origin is in the domain, including -0.0
    assert pade_r2(-0.0) == pade_r2(0.0)
    with pytest.raises(ValueError):
        pade_r2(1e200, origin_terms=2)


def test_pade_global_error_levels():
    grid = [i / 10.0 for i in range(0, 81)]
    worst1 = max(abs(pade_r2(x) - reference_mills(x)) for x in grid)
    worst3 = max(abs(pade_r2(x, origin_terms=3) - reference_mills(x))
                 for x in grid)
    assert 0.05 < worst1 < 0.07      # one matched term at each end
    assert 5e-3 < worst3 < 6e-3      # three terms at the origin, one at infinity
    assert worst3 < worst1


def test_scan_max_delta_improved_depth0():
    x_star, worst = scan_max_delta("improved-expo", 0)
    assert worst == pytest.approx(2.139459e-4, rel=1e-3)
    assert x_star == pytest.approx(1.387, abs=5e-3)
    assert decays_beyond("improved-expo", 0)


def test_scan_refuses_xmin_outside_its_grid():
    # nan, inf and 25 ended in numpy's argmax of an empty sequence or a bare
    # int conversion error
    for xmin in (math.nan, math.inf, -math.inf, 25.0, -1e-3):
        with pytest.raises(ValueError, match=r"^scan_max_delta needs 0 <= xmin "
                           rf"<= 20, got xmin={re.escape(repr(xmin))}$"):
            scan_max_delta("improved-expo", 1, xmin=xmin)
    # xmin = 20 is the grid's last point alone
    x_star, worst = scan_max_delta("improved-expo", 1, xmin=20.0)
    assert x_star == 20.0 and worst == abs(delta(20.0, 1))


# (argmax, max) from the point-by-point scan that the array scan replaced
SCALAR_SCAN = {
    0: (1.3870129692183344, 2.139458574723918e-04),
    1: (0.8284959217965706, 4.8679214152774763e-05),
    2: (0.7744099790143331, 3.03960780990431e-05),
    3: (0.7024790794627878, 1.693296668864308e-05),
}


def test_scan_max_delta_keeps_the_scalar_argmax():
    for n, (x_star, worst) in SCALAR_SCAN.items():
        got_x, got = scan_max_delta("improved-expo", n)
        assert got_x == pytest.approx(x_star, abs=1e-9), n
        assert got == pytest.approx(worst, rel=1e-9), n
    # the grid step picks the first maximum, as the strict ">" loop did
    xs = np.arange(401) * 0.05
    for n in range(4):
        best_i, best = 0, -1.0
        for i, x in enumerate(xs.tolist()):
            v = abs(delta(x, n, "improved-expo"))
            if v > best:
                best, best_i = v, i
        assert np.argmax(np.abs(delta(xs, n, "improved-expo"))) == best_i, n


# scan_max_delta as it was before the shared reference grid: the grid step
# through delta on the array, then the same golden section
def _old_scan(family, n, xmin=0.0, xmax=20.0, step=1e-3, refine_width=1e-8):
    fam = tails.get_family(family)

    def f(x):
        return abs(delta(x, n, fam))

    npts = int(round((xmax - xmin) / step))
    best_i = int(np.argmax(f(xmin + np.arange(npts + 1) * step)))
    lo = max(xmin, xmin + (best_i - 1) * step)
    hi = min(xmax, xmin + (best_i + 1) * step)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > refine_width:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = f(d)
    x_star = (lo + hi) / 2.0
    return x_star, f(x_star)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def test_scan_shares_one_reference_grid(monkeypatch):
    from millscf import gauss, reference

    calls = []
    real = reference.reference_mills_grid

    def counted(xs):
        calls.append(len(xs))
        return real(xs)

    gauss._reference_grid.cache_clear()
    monkeypatch.setattr(reference, "reference_mills_grid", counted)
    for n in range(4):
        scan_max_delta("improved-expo", n)
    assert calls == [20001]
    assert gauss._reference_grid.cache_info().maxsize is not None
    for v in gauss._reference_grid(0.0):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 1.0
    gauss._reference_grid.cache_clear()


def test_scan_matches_the_previous_scan():
    for name in tails.FAMILIES:
        xmin = 1.0 if name == "classic" else 0.0
        for n in range(4):
            got = _outcome(scan_max_delta, name, n, xmin=xmin)
            want = _outcome(_old_scan, name, n, xmin=xmin)
            assert got == want, (name, n)


def test_lcf_matches_laplace_up_to_x():
    # the 1/x^2 form evaluates x R(x); level by level it is x times the
    # plain fraction
    lap, lcf = laplace_spec(), lcf_spec()
    x = 2.0
    for d in range(1, 11):
        va = cf.forward_recurrence(lap, x, d).value()
        vb = cf.forward_recurrence(lcf, 1.0 / (x * x), d).value()
        assert vb == pytest.approx(x * va, rel=1e-13)
