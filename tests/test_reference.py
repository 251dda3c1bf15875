"""Oracle checks, including independent cross-checks against scipy.special.

scipy.special appears here only as a second opinion; the package itself
never imports it for function values.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import erfcx, gammaincc
from scipy.special import gamma as gamma_fn

from millscf.reference import (
    OracleError,
    _mills_cf,
    _mills_cf_grid,
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


def test_against_mpmath():
    # sqrt(pi/2) exp(x^2/2) erfc(x/sqrt(2)) at 40 digits, on [0, 20) step 0.01
    # and 200 log points on [20, 1e6], for the point and the grid route
    xs = np.concatenate([np.arange(2000) / 100.0, np.geomspace(20.0, 1e6, 200)])
    with mpmath.workdps(40):
        c = mpmath.sqrt(mpmath.pi / 2)
        want = np.array([float(c * mpmath.exp(mpmath.mpf(x) ** 2 / 2)
                               * mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)))
                         for x in xs.tolist()])
    points = np.array([reference_mills(x) for x in xs.tolist()])
    for got in (points, reference_mills_grid(xs)):
        worst = np.max(np.abs(got - want) / want)
        assert worst <= 2e-15, (worst, xs[np.argmax(np.abs(got - want) / want)])


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


def test_gamma_oracle_domain():
    with pytest.raises(ValueError):
        reference_gamma_mills(-1.0, 2.0)
    with pytest.raises(ValueError):
        reference_gamma_mills(0.5, -2.0)


def test_oracle_error_is_a_runtime_error():
    assert issubclass(OracleError, RuntimeError)


# the certification loops as they were before the lighter rewrite (A and B
# both watched for the rescale, every log taken afresh at every level), kept
# as the reference that _mills_cf and _mills_cf_grid must match bit for bit
_BIG = 2.0 ** 500
_SHRINK = 2.0 ** -512
_LOG2 = math.log(2.0)


def _old_mills_cf(x, rel_tol=1e-15, max_depth=2000):
    if x >= (1.0 / rel_tol) ** 0.5:
        return 1.0 / x
    A_prev, B_prev = 1.0, 0.0
    A, B = 0.0, 1.0
    scale_bits = 0
    depth = None
    m = 0
    while m < max_depth:
        m += 1
        a = 1.0 if m == 1 else m - 1.0
        A, A_prev = x * A + a * A_prev, A
        B, B_prev = x * B + a * B_prev, B
        if B > _BIG or A > _BIG:
            A *= _SHRINK
            B *= _SHRINK
            A_prev *= _SHRINK
            B_prev *= _SHRINK
            scale_bits += 512
        if m >= 2:
            log_bound = (math.lgamma(m) - math.log(B_prev) - math.log(B)
                         - 2.0 * scale_bits * _LOG2)
            if log_bound <= math.log(rel_tol * (A / B)):
                depth = m - 1
                break
    if depth is None:
        raise OracleError(
            f"classic fraction for R({x}) not certified within {max_depth} levels")
    t = x
    for k in range(depth, 1, -1):
        t = x + (k - 1.0) / t
    return 1.0 / t


def _old_mills_cf_grid(x, rel_tol=1e-15, max_depth=2000):
    depth = np.ones(x.shape, dtype=np.intp)
    idx = np.flatnonzero(~(x >= (1.0 / rel_tol) ** 0.5))
    xa = x[idx]
    A_prev, B_prev = np.ones_like(xa), np.zeros_like(xa)
    A, B = np.zeros_like(xa), np.ones_like(xa)
    scale_bits = np.zeros_like(xa)
    m = 0
    while idx.size and m < max_depth:
        m += 1
        a = 1.0 if m == 1 else m - 1.0
        A, A_prev = xa * A + a * A_prev, A
        B, B_prev = xa * B + a * B_prev, B
        big = (B > _BIG) | (A > _BIG)
        if big.any():
            for v in (A, B, A_prev, B_prev):
                v[big] *= _SHRINK
            scale_bits[big] += 512
        if m >= 2:
            log_bound = (math.lgamma(m) - np.log(B_prev) - np.log(B)
                         - 2.0 * scale_bits * _LOG2)
            done = log_bound <= np.log(rel_tol * (A / B))
            if done.any():
                depth[idx[done]] = m - 1
                keep = ~done
                idx, xa, A, B, A_prev, B_prev, scale_bits = (
                    v[keep] for v in (idx, xa, A, B, A_prev, B_prev, scale_bits))
    if idx.size:
        raise OracleError(f"classic fraction for R({x[idx[0]]}) not certified "
                          f"within {max_depth} levels")
    order = np.argsort(-depth, kind="stable")
    xs, neg_depth = x[order], -depth[order]
    t = xs.copy()
    for k in range(int(depth.max(initial=1)), 1, -1):
        c = np.searchsorted(neg_depth, -k, side="right")
        t[:c] = xs[:c] + (k - 1.0) / t[:c]
    out = np.empty_like(x)
    out[order] = 1.0 / t
    return out


def test_certification_loops_match_the_previous_ones():
    figure = np.arange(601) / 100.0
    log_uniform = np.exp(np.random.default_rng(5).uniform(
        0.0, math.log(1e6), 50000))
    grids = [
        1.0 + np.arange(19001) * 1e-3,          # the scan grid's x >= 1 part
        figure[figure >= 1.0],
        log_uniform,
        np.array([1e150, 1e300, 1.0 / math.sqrt(1e-15)]),
        np.array([]),
    ]
    for xs in grids:
        assert _mills_cf_grid(xs).tobytes() == _old_mills_cf_grid(xs).tobytes()
    # the scalar loop on [1, 2] (the deepest points), every 4th point of
    # (2, 20], the figure grid from 0.5 (the branch checks' lower end) and
    # every 10th log-uniform point
    points = np.concatenate([grids[0][:1001], grids[0][1001::4],
                             figure[figure >= 0.5], log_uniform[::10],
                             grids[3]]).tolist()
    points += [0.5 + 1.5 * i / 49.0 for i in range(50)]
    for x in points:
        assert _mills_cf(x) == _old_mills_cf(x), x


def test_certification_cap_matches_the_previous_one():
    xs = np.array([1.0, 1.5, 3.0])
    for cap in (1, 2, 5, 40):
        with pytest.raises(OracleError) as new:
            _mills_cf_grid(xs, max_depth=cap)
        with pytest.raises(OracleError) as old:
            _old_mills_cf_grid(xs, max_depth=cap)
        assert str(new.value) == str(old.value)
        for x in xs.tolist():
            with pytest.raises(OracleError) as new:
                _mills_cf(x, max_depth=cap)
            with pytest.raises(OracleError) as old:
                _old_mills_cf(x, max_depth=cap)
            assert str(new.value) == str(old.value)


# (x, certified depth): depth d is certified at level d + 1
_CERTIFIED_DEPTHS = ((1.0, 343), (1.5, 159), (3.0, 47), (10.0, 12))


def test_certification_cap_boundary():
    # max_depth = d + 1 is the smallest cap that returns, on both routes and
    # for the previous loops too; max_depth = d raises the same error
    for x, d in _CERTIFIED_DEPTHS:
        want = _old_mills_cf(x)
        assert _old_mills_cf(x, max_depth=d + 1) == want
        assert _mills_cf(x, max_depth=d + 1) == want
        xs = np.array([x])
        assert _mills_cf_grid(xs, max_depth=d + 1).tolist() == [want]
        for route, old_route, arg in ((_mills_cf, _old_mills_cf, x),
                                      (_mills_cf_grid, _old_mills_cf_grid, xs)):
            with pytest.raises(OracleError) as new:
                route(arg, max_depth=d)
            with pytest.raises(OracleError) as old:
                old_route(arg, max_depth=d)
            assert str(new.value) == str(old.value)
            assert f"within {d} levels" in str(new.value)
    # on one array the deepest point sets the cap
    xs = np.array([x for x, _ in _CERTIFIED_DEPTHS])
    assert (_mills_cf_grid(xs, max_depth=344).tobytes()
            == _old_mills_cf_grid(xs).tobytes())
    with pytest.raises(OracleError, match=r"R\(1\.0\) not certified within 343"):
        _mills_cf_grid(xs, max_depth=343)


def test_oracle_cache():
    from millscf.reference import _certified_mills

    info = _certified_mills.cache_info
    assert info().maxsize is not None
    want = reference_mills(2.0)
    hits = info().hits
    assert reference_mills(2.0) == want
    assert info().hits == hits + 1
    # every float-like spelling of 2 is the same float key and value
    for x in (np.float64(2.0), 2, np.array(2.0), np.float32(2.0)):
        got = reference_mills(x)
        assert type(got) is float and got == want, x
    assert info().hits == hits + 5
    # rejected arguments raise every time and never reach the cache
    size = info().currsize
    for bad in (math.nan, -1.0, -math.inf, np.float64(-0.5)):
        for _ in range(2):
            with pytest.raises(ValueError):
                reference_mills(bad)
    assert info().currsize == size
