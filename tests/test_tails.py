"""Terminating-denominator families and their origin constants."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest

from millscf.gauss import mills, scan_max_delta
from millscf.tails import (
    FAMILIES,
    TailFamily,
    beta0,
    custom,
    get_family,
    improved_expo,
    mod_constants,
)

ALL_NAMES = ("classic", "limit-ansatz", "sqrt", "linear", "lee",
             "shift-linear", "improved-expo")


def test_registry_names():
    assert set(FAMILIES) == set(ALL_NAMES)
    with pytest.raises(ValueError):
        get_family("cubic")


def test_beta0_anchors():
    assert beta0(0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert beta0(1) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
    assert beta0(2) == pytest.approx(1.5957691216057308, rel=1e-13)
    with pytest.raises(ValueError):
        beta0(-1)


def test_bad_depths_raise_value_error_naming_n():
    # nan and inf gave nan, 2.5 a record no family can use; the depth rule
    # refuses integral floats too, and ints past 2**20 (10**400 gave a bare
    # OverflowError)
    for bad in (math.nan, math.inf, -math.inf, 2.5, -1, -1.0, 3.0, 1e300,
                2**20 + 1, 10**400):
        for f in (beta0, mod_constants):
            with pytest.raises(ValueError, match=rf"^{f.__name__} needs a "
                               rf"depth .* got {re.escape(repr(bad))}$"):
                f(bad)
    # within the rule, a depth whose r_n cancels to <= 0 is refused by name
    # (1e300 gave a bare "math domain error")
    with pytest.raises(ValueError, match="n=31301"):
        mod_constants(31301)


def test_beta0_recursion_and_bracket():
    prev = beta0(0)
    for n in range(1, 51):
        b = beta0(n)
        assert math.isclose(b, n / prev, rel_tol=1e-12), n
        assert math.sqrt(n + 0.5) < b < math.sqrt(n + 1.0), n
        prev = b


def test_mod_constants_positive_with_anchors():
    c1 = mod_constants(1)
    assert c1.lam == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-13)
    assert c1.r == pytest.approx(math.pi - 3.0, rel=1e-12)
    c0 = mod_constants(0)
    assert c0.lam == pytest.approx(2.0 / math.pi, rel=1e-13)
    assert c0.r == pytest.approx(2.0 * (2.0 / math.pi - 0.5), rel=1e-12)
    for n in range(51):
        c = mod_constants(n)
        assert c.lam > 0.0 and c.r > 0.0


def test_fit_flags():
    fits = {name: get_family(name) for name in ALL_NAMES}
    assert not fits["classic"].fits_value
    assert fits["sqrt"].fits_value and not fits["sqrt"].fits_slope
    assert fits["linear"].fits_value and fits["linear"].fits_slope
    assert fits["shift-linear"].fits_value
    assert not fits["lee"].fits_value
    imp = fits["improved-expo"]
    assert imp.fits_value and imp.fits_slope and imp.fits_curvature
    # a tail that misses lambda_n at 0 carries no slope flag
    alt = _rate_r_tail()
    assert alt.deriv(2, 0.0) != pytest.approx(mod_constants(2).lam, rel=1e-3)
    assert not alt.fits_slope


def test_value_fit_at_zero():
    for name in ("sqrt", "linear", "shift-linear", "improved-expo"):
        fam = get_family(name)
        for n in range(5):
            assert fam.value(n, 0.0) == pytest.approx(beta0(n), rel=1e-14), (
                name, n)
    # lee starts from sqrt(n+1), inside the bracket but not the exact constant
    lee = get_family("lee")
    assert lee.value(2, 0.0) == math.sqrt(3.0)
    assert lee.value(2, 0.0) != pytest.approx(beta0(2), rel=1e-8)


def test_limit_ansatz_values():
    fam = get_family("limit-ansatz")
    assert fam.value(4, 0.0) == 2.0
    # fixed point property: beta = x + n/beta
    for n in (1, 3, 7):
        for x in (0.5, 2.0):
            b = fam.value(n, x)
            assert math.isclose(b, x + n / b, rel_tol=1e-14)
    # n = 0 degenerates to the classic tail
    assert fam.value(0, 1.3) == 1.3


def test_deriv_matches_differences():
    h = 1e-6
    for name in ALL_NAMES:
        fam = get_family(name)
        for n in (0, 1, 4):
            for x in (0.3, 1.0, 2.7):
                num = (fam.value(n, x + h)
                       - fam.value(n, x - h)) / (2.0 * h)
                assert fam.deriv(n, x) == pytest.approx(num, abs=1e-6), (
                    name, n, x)


def test_second_matches_differences():
    # every built-in family carries its closed-form curvature
    h = 1e-6
    for name in ALL_NAMES:
        fam = get_family(name)
        for n in (0, 1, 4):
            for x in (0.3, 1.0, 2.7):
                num = (fam.deriv(n, x + h)
                       - fam.deriv(n, x - h)) / (2.0 * h)
                assert fam.second(n, x) == pytest.approx(num, abs=1e-6), (
                    name, n, x)


def _rate_r_tail():
    """improved-expo with c_n = lambda_n + r_n beta_n(0) for sqrt(r_n) beta_n(0).

    The value and curvature conditions at 0 still hold, the slope condition
    does not.  It carries the slope, which test_fit_flags reads.
    """

    def value(n, x):
        k = mod_constants(n)
        c = k.lam + k.r * k.beta_at_zero
        return c * x + k.beta_at_zero * np.exp(-k.sqrt_r * x)

    def deriv(n, x):
        k = mod_constants(n)
        c = k.lam + k.r * k.beta_at_zero
        return c - k.sqrt_r * k.beta_at_zero * math.exp(-k.sqrt_r * x)

    return TailFamily(kind="custom", value=value, deriv=deriv)


def test_improved_slope_variants_differ():
    default = improved_expo()
    alt = _rate_r_tail()
    # both are exact at the origin
    assert default.value(2, 0.0) == pytest.approx(beta0(2), rel=1e-14)
    assert alt.value(2, 0.0) == pytest.approx(beta0(2), rel=1e-14)
    # but carry different linear coefficients away from it
    assert abs(default.value(2, 1.0) - alt.value(2, 1.0)) > 1e-4


def test_slope_condition_buys_two_orders_of_magnitude():
    # the reason improved-expo takes c_n = lambda_n + sqrt(r_n) beta_n(0):
    # the rate-r coefficient's worst error is 139x, 360x, 419x and 566x
    # larger for n = 0-3
    alt = _rate_r_tail()
    for n in range(4):
        _, worst = scan_max_delta("improved-expo", n)
        _, worst_alt = scan_max_delta(alt, n)
        assert worst_alt >= 100.0 * worst, (n, worst_alt / worst)


def test_constants_computed_once_per_depth():
    assert mod_constants(7) is mod_constants(7)
    assert beta0.cache_info().maxsize is not None
    assert mod_constants.cache_info().maxsize is not None
    k = mod_constants(7)
    assert k.beta_sq == k.beta_at_zero * k.beta_at_zero
    assert k.sqrt_r == math.sqrt(k.r)
    assert k.c == k.lam + k.sqrt_r * k.beta_at_zero


def test_families_read_one_constants_record():
    # every built-in family takes its per-depth constants from mod_constants
    # alone: after clearing both caches, all values, slopes and curvatures at
    # one depth cost one mod_constants miss and one beta0 call, its miss
    mod_constants.cache_clear()
    beta0.cache_clear()
    for name in ALL_NAMES:
        fam = get_family(name)
        for x in (0.0, 0.5, 3.0):
            fam.value(5, x)
            fam.deriv(5, x)
            fam.second(5, x)
    assert mod_constants.cache_info().misses == 1
    info = beta0.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def test_values_take_floats_and_arrays():
    xs = np.linspace(0.0, 6.0, 25)
    for name in ALL_NAMES:
        fam = get_family(name)
        for n in (1, 2, 7):
            assert type(fam.value(n, 1.5)) is float, name
            got = fam.value(n, xs)
            assert isinstance(got, np.ndarray) and got.shape == xs.shape
            # numpy's exp may differ from math.exp by an ulp
            want = [fam.value(n, x) for x in xs.tolist()]
            assert got == pytest.approx(want, rel=2.0**-51, abs=0.0), name


def test_custom_requires_callables():
    with pytest.raises(TypeError):
        custom(value=1.0)
    with pytest.raises(TypeError):
        custom("nope")
    # a custom tail is its value alone
    with pytest.raises(TypeError):
        custom(lambda n, x: 1.0, lambda n, x: 0.0)
    fam = custom(lambda n, x: 1.0)
    assert (fam.kind, fam.deriv, fam.second) == ("custom", None, None)


def test_point_check_rejects_negative_depth():
    fam = get_family("classic")
    with pytest.raises(ValueError):
        mills(1.0, -1, fam)


def test_names_resolve_once():
    for name in ALL_NAMES:
        assert get_family(name) is get_family(name), name
    fam = custom(lambda n, x: x)
    assert get_family(fam) is fam


def test_replaced_factory_is_resolved_again(monkeypatch):
    # a wrapping factory swapped into FAMILIES, as a tracer does, is used,
    # and the original family again once it is put back
    original = get_family("sqrt")
    factory = FAMILIES["sqrt"]
    seen = []

    def wrapping():
        fam = factory()

        def value(n, x):
            seen.append(x)
            return fam.value(n, x)

        return dataclasses.replace(fam, value=value)

    with monkeypatch.context() as m:
        m.setitem(FAMILIES, "sqrt", wrapping)
        wrapped = get_family("sqrt")
        assert wrapped is not original and wrapped is get_family("sqrt")
        assert mills(1.5, 2, "sqrt").value == mills(1.5, 2, original).value
        assert seen == [1.5]
    restored = get_family("sqrt")
    assert restored is not wrapped
    assert mills(1.5, 2, "sqrt").value == mills(1.5, 2, original).value
    assert seen == [1.5]


# the sqrt and limit-ansatz tails before their huge-x guard: x/2 + sqrt(h^2 + g)
# with h = x/2 and its slope, squaring h on every call (overflows past 2.7e154)
def _old_value(x, g):
    return x / 2.0 + math.sqrt((x / 2.0) ** 2 + g)


def _old_deriv(x, g):
    return 0.5 + (x / 4.0) / math.sqrt((x / 2.0) ** 2 + g)


def _mp_second(x, g):
    """The curvature g/(4 s^3), s = sqrt((x/2)^2 + g), at mpmath's precision."""
    s = mpmath.sqrt((mpmath.mpf(x) / 2) ** 2 + g)
    return float(g / (4 * s ** 3))


def test_half_root_tails_unchanged_below_the_guard():
    # value and slope bit for bit as before; the curvature, now g/(4 s^3) in
    # place of the cancelling 1/(4 s) - h^2/(4 s^3), within 8 ulp of 50 digits
    xs = np.exp(np.linspace(math.log(1e-3), math.log(30.0), 301)).tolist()
    xs += [0.0, 1e3, 1e10, 1e100, 1e150]
    with mpmath.workdps(50):
        for name in ("sqrt", "limit-ansatz"):
            fam = get_family(name)
            for n in range(61):
                if name == "limit-ansatz" and n == 0:
                    continue   # the classic tail x, no square root
                g = n if name == "limit-ansatz" else beta0(n) ** 2
                for x in xs:
                    assert fam.value(n, x) == _old_value(x, g), (name, n, x)
                    assert fam.deriv(n, x) == _old_deriv(x, g), (name, n, x)
                    want = _mp_second(x, g)
                    assert (abs(fam.second(n, x) - want)
                            <= 8 * math.ulp(want)), (name, n, x)
                grid = fam.value(n, np.array(xs))
                assert grid.tolist() == [fam.value(n, x) for x in xs], (name, n)


def test_half_root_tails_finite_at_huge_x(capsys):
    from millscf.cli import main

    huge = [2.0 ** 512, 1e155, 1e200, 1e300, 1.7976931348623157e308]
    for name in ("sqrt", "limit-ansatz"):
        fam = get_family(name)
        for n in (1, 3, 60):
            for x in huge:
                assert fam.value(n, x) == x, (name, n, x)
                assert fam.deriv(n, x) == 1.0
                assert 0.0 <= fam.second(n, x) < 1e-300
            assert fam.value(n, np.array(huge)).tolist() == huge
        got = mills(1e200, 3, name).value
        want = mills(1e200, 3, "classic").value
        assert abs(got - want) <= 4 * math.ulp(want), name
    assert main(["eval", "--x", "1e200", "--family", "sqrt", "--n", "3"]) == 0
    assert "value: 1e-200" in capsys.readouterr().out
