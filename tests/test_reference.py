"""Oracle checks, including independent cross-checks against scipy.special.

scipy.special appears here only as a second opinion; the package itself
never imports it for function values.
"""

import math
import sys

import numpy as np
import pytest
from scipy.special import erfcx, gammaincc
from scipy.special import gamma as gamma_fn

from millscf.reference import (
    OracleError,
    _mills_cf,
    _mills_series,
    reference_gamma_mills,
    reference_mills,
    reference_mills_grid,
    reference_tail,
)

FROZEN_MILLS = {
    0.5: 0.8763644564536923,
    1.0: 0.65567954241879847,
    2.0: 0.42136922928805456,
    4.0: 0.23665238291356087,
}


def test_frozen_anchor_values():
    assert reference_mills(0.0) == pytest.approx(math.sqrt(math.pi / 2.0),
                                                 rel=1e-15)
    for x, want in FROZEN_MILLS.items():
        assert reference_mills(x) == pytest.approx(want, rel=1e-13), x


def test_bracket_at_eight():
    r = reference_mills(8.0)
    assert 1.0 / (8.0 + 1.0 / 8.0) < r < 1.0 / 8.0


def test_tail_values():
    assert reference_tail(0.0) == 0.5
    assert reference_tail(1.0) == pytest.approx(0.15865525393145707, rel=1e-13)
    phi5 = math.exp(-12.5) / math.sqrt(2.0 * math.pi)
    assert reference_tail(5.0) == pytest.approx(phi5 * reference_mills(5.0),
                                                rel=1e-15)
    assert reference_tail(5.0) == pytest.approx(2.866515719e-7, rel=1e-9)


def test_against_scaled_erfc():
    for i in range(1, 41):
        x = i * 0.25
        independent = math.sqrt(math.pi / 2.0) * erfcx(x / math.sqrt(2.0))
        assert reference_mills(x) == pytest.approx(independent, rel=1e-13), x


def test_branch_overlap():
    # series and deep-fraction branches, driven directly on [0.5, 2]
    for i in range(50):
        x = 0.5 + 1.5 * i / 49.0
        assert _mills_series(x) == pytest.approx(_mills_cf(x), rel=1e-13), x


def test_monotone_decrease():
    xs = [i * 0.1 for i in range(101)]
    rm = [reference_mills(x) for x in xs]
    rt = [reference_tail(x) for x in xs]
    assert all(a > b for a, b in zip(rm, rm[1:]))
    assert all(a > b for a, b in zip(rt, rt[1:]))


def test_domain_rejection():
    with pytest.raises(ValueError):
        reference_mills(-0.01)
    with pytest.raises(ValueError):
        reference_mills(float("nan"))
    with pytest.raises(ValueError):
        reference_tail(-1.0)


def test_grid_oracle_is_bit_identical():
    # the paper's scan grid plus the branch edges and the ends
    edges = [0.0, math.nextafter(1.0, 0.0), 1.0, 4.0, 20.0]
    xs = np.concatenate([np.arange(20001) * 1e-3, edges])
    got = reference_mills_grid(xs)
    assert got.tolist() == [reference_mills(x) for x in xs.tolist()]


def test_grid_oracle_rejects_like_the_scalar_one():
    for bad in (float("nan"), -0.01):
        with pytest.raises(ValueError):
            reference_mills(bad)
        with pytest.raises(ValueError):
            reference_mills_grid([1.0, bad, 2.0])
    with pytest.raises(ValueError):
        reference_mills_grid([[1.0]])
    assert reference_mills_grid([]).size == 0


def test_huge_arguments():
    # the recursion would overflow past 2^512; the depth-1 certificate
    # 1/x^2 <= rel_tol holds long before, so the value is 1/x
    xs = [1e8, 1e154, 1e160, 1e300, sys.float_info.max]
    for x in xs[:-1]:
        independent = math.sqrt(math.pi / 2.0) * erfcx(x / math.sqrt(2.0))
        assert reference_mills(x) == pytest.approx(independent, rel=1e-15), x
    assert reference_mills(xs[-1]) == 1.0 / xs[-1]
    assert reference_mills_grid(xs).tolist() == [reference_mills(x) for x in xs]
    assert reference_mills(math.inf) == reference_mills_grid([math.inf])[0] == 0.0


def test_gamma_oracle_closed_forms():
    assert reference_gamma_mills(1.0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert reference_gamma_mills(2.0, 2.0) == pytest.approx(1.5, rel=1e-12)
    # M_{1/2}(z^2/2) = z R(z) with z = 2
    assert reference_gamma_mills(0.5, 2.0) == pytest.approx(
        2.0 * reference_mills(2.0), rel=1e-10)


def test_gamma_oracle_against_scipy():
    for s in (0.5, 1.5, 2.0, 3.0):
        for x in (0.5, 1.0, 2.0, 5.0):
            independent = (x ** (1.0 - s) * math.exp(x)
                           * gammaincc(s, x) * gamma_fn(s))
            assert reference_gamma_mills(s, x) == pytest.approx(
                independent, rel=1e-9), (s, x)


def test_gamma_oracle_cache_is_bounded():
    assert reference_gamma_mills.cache_info().maxsize is not None
    reference_gamma_mills(1.5, 2.0)
    hits = reference_gamma_mills.cache_info().hits
    reference_gamma_mills(1.5, 2.0)
    assert reference_gamma_mills.cache_info().hits == hits + 1


def test_gamma_oracle_domain():
    with pytest.raises(ValueError):
        reference_gamma_mills(-1.0, 2.0)
    with pytest.raises(ValueError):
        reference_gamma_mills(0.5, -2.0)


def test_oracle_error_is_a_runtime_error():
    assert issubclass(OracleError, RuntimeError)
