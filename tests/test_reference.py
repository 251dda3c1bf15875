"""Oracle checks, including independent cross-checks against scipy.special.

scipy.special appears here only as a second opinion; the package itself
never imports it for function values.
"""

import ast
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfcx, gammaincc
from scipy.special import gamma as gamma_fn

from millscf import reference
from millscf.reference import (
    _BREAKS,
    _EDGES,
    OracleError,
    _mills_cf,
    _mills_cf_grid,
    _mills_series,
    _gamma_quadrature,
    _quadrature_nodes,
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


_HUGE = (1e150, 1e300, sys.float_info.max, 1.0 / math.sqrt(1e-15), math.inf)


@st.composite
def _oracle_grids(draw):
    """Unsorted 1-D grids: both branches, dense near 1, duplicates, huge x."""
    kind = draw(st.sampled_from(["mixed", "dense", "repeats", "stragglers"]))
    if kind == "stragglers":
        # all on the fraction branch, at 0, 1 and 47-49 points
        size = draw(st.sampled_from([0, 1, 47, 48, 49]))
        return draw(st.lists(st.floats(1.0, 30.0), min_size=size,
                             max_size=size))
    if kind == "dense":   # 300 and more levels
        xs = st.floats(1.0, 1.1)
    elif kind == "repeats":
        xs = st.sampled_from(draw(st.lists(st.floats(0.0, 30.0), min_size=1,
                                           max_size=4)))
    else:
        xs = st.one_of(st.floats(0.0, 30.0), st.floats(1.0, 1.1),
                       st.sampled_from(_HUGE))
    return draw(st.lists(xs, max_size=120))


@settings(max_examples=150, deadline=None)
@given(xs=_oracle_grids())
@example(xs=[1.0] * 49 + [20.0, 0.5, 1e300])
def test_grid_oracle_matches_the_scalar_one_bit_for_bit(xs):
    want = np.array([reference_mills(x) for x in xs], dtype=float)
    assert reference_mills_grid(xs).tobytes() == want.tobytes()


def _uncertified_text(x, cap):
    return f"classic fraction for R({x}) not certified within {cap} levels"


def _fold(x, depth):
    t = x
    for k in range(depth, 1, -1):
        t = x + (k - 1.0) / t
    return 1.0 / t


def _certified_fold(x, cap=2000):
    """The fold at the depth the forward pass _certify picks, or None."""
    depth = reference._certify(x, cap)
    return None if depth is None else _fold(x, depth)


def _near_a_break(xs):
    """Where x is within a relative 1e-10 of a breakpoint b_d.

    Within about 1e-14 of one the log-space loops below and _certify can
    pick different depths: they do at 461 of the 1026 doubles b_d >= 1 and
    their neighbours one ulp either side.  There the depth _certify picks
    is the reference.
    """
    xs = np.asarray(xs, dtype=float)
    b = np.array(_BREAKS)
    return (np.abs(xs[:, None] - b) <= 1e-10 * b).any(axis=1)


def _neighbours(xs, ulps=1):
    """Each x and the doubles up to ulps either side of it."""
    out = []
    for x in xs:
        below = above = x
        out.append(x)
        for _ in range(ulps):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
    return out


_BREAK_DOUBLES = _neighbours([b for b in _BREAKS if b >= 1.0])


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(1.0, 40.0), st.sampled_from(_HUGE)),
                   min_size=1, max_size=120),
       cap=st.integers(1, 400))
@example(xs=_BREAK_DOUBLES, cap=400)
@example(xs=_BREAK_DOUBLES[::-1], cap=150)
@example(xs=[3.0, _BREAKS[101], 1e300], cap=102)
def test_grid_oracle_names_the_same_uncertified_point(xs, cap):
    # at a small cap the error names the first uncertified x in input order.
    # The reference is the log-space loop, except near a breakpoint, where
    # it is the depth _certify picks (below _depth_one's threshold, from
    # which on both give 1/x)
    xs = np.array(xs)
    near = _near_a_break(xs) & (xs < _BREAKS[0])
    want = np.empty_like(xs)
    bad = []
    for i in np.flatnonzero(near).tolist():
        value = _certified_fold(xs[i], cap)
        if value is None:
            bad.append(i)
        else:
            want[i] = value
    far = np.flatnonzero(~near)
    try:
        want[far] = _old_mills_cf_grid(xs[far], max_depth=cap)
    except OracleError as exc:
        # certification depends on x alone, so the first place of the x it
        # names is the first uncertified place among the far points
        named = float(str(exc).split("R(")[1].split(")")[0])
        bad.append(int(far[xs[far] == named][0]))
    if bad:
        with pytest.raises(OracleError) as new:
            _mills_cf_grid(xs, max_depth=cap)
        assert str(new.value) == _uncertified_text(xs[min(bad)], cap)
    else:
        assert _mills_cf_grid(xs, max_depth=cap).tobytes() == want.tobytes()


def test_grid_oracle_does_not_depend_on_its_sort(monkeypatch):
    # the depths come from the table, not from a pass over x sorted; each
    # element keeps its depth whatever the order of the input, and a sort
    # by x put back in would have to keep the bits while shuffled
    xs = np.concatenate([1.0 + np.arange(1001) * 1e-3, [1.5, 3.0, 1e8]])
    want = _mills_cf_grid(xs)
    rng = np.random.default_rng(7)
    argsort = np.argsort

    def shuffled(a, *args, **kwargs):   # the fold's depth sort stays true
        if a.dtype.kind == "f":
            return rng.permutation(a.size)
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", shuffled)
    for _ in range(3):
        assert _mills_cf_grid(xs).tobytes() == want.tobytes()
        perm = rng.permutation(xs.size)
        assert _mills_cf_grid(xs[perm]).tobytes() == want[perm].tobytes()


def test_grid_oracle_at_the_deepest_table_point():
    # x = 1 certifies at depth 343, the deepest of the [0, 20] grids, read
    # from the table alone, beside a shallower point, and beside many
    want = reference_mills(1.0)
    assert want == _old_mills_cf(1.0)
    for xs in ([1.0] * 50, [1.0, 2.0], [1.0] + [30.0] * 96):
        got = reference_mills_grid(xs)
        assert got[0].hex() == want.hex(), len(xs)
        assert got.tobytes() == np.array([reference_mills(x) for x in xs]).tobytes()


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


def test_gamma_oracle_against_mpmath():
    # x^(1-s) e^x Gamma(s, x) at 40 digits on a 15 x 15 log grid; the oracle
    # on the engine's adaptive contracted fraction raised OracleError at 60
    # of these points and was 100 % off at worst
    worst = (0.0, None)
    with mpmath.workdps(40):
        for s in np.geomspace(1e-2, 50.0, 15).tolist():
            for x in np.geomspace(1e-2, 1e2, 15).tolist():
                want = (mpmath.mpf(x) ** (1 - mpmath.mpf(s)) * mpmath.exp(x)
                        * mpmath.gammainc(s, x, mpmath.inf))
                err = float(abs(reference_gamma_mills(s, x) - want) / want)
                worst = max(worst, (err, (s, x)))
    assert worst[0] <= 1e-12, worst


def test_gamma_oracle_refuses_where_its_series_cancels():
    # at tiny shapes the series' first term passes 2^10 times the value;
    # these points came out 2.0e-7, 8.1e-10 and 9.6e-12 off against mpmath
    for s, x in ((1.7e-8, 0.66), (1e-6, 0.2), (1e-4, 0.5)):
        with pytest.raises(OracleError, match="the series cancels"):
            reference_gamma_mills(s, x)


def test_gamma_oracle_is_exactly_one_at_shape_one():
    # the fraction's first numerator 1(s - 1) is 0 at s = 1: x/x, no series
    for x in (5e-324, 0.5, 2.0, 49.0, 1e300, sys.float_info.max):
        assert reference_gamma_mills(1.0, x) == 1.0, x


def test_oracle_imports_nothing_from_the_engine():
    # the oracle is kept independent, so an engine bug cannot cancel in it
    engine = {"cf", "gamma", "gauss", "tails"}
    tree = ast.parse(Path(reference.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names = {a.name for a in node.names}
        else:
            continue
        parts = {p for name in names for p in name.split(".")}
        assert not parts & engine, ast.unparse(node)


def test_gamma_oracle_domain():
    with pytest.raises(ValueError):
        reference_gamma_mills(-1.0, 2.0)
    with pytest.raises(ValueError):
        reference_gamma_mills(0.5, -2.0)


def test_gamma_oracle_refuses_an_overflowing_quadrature():
    # (1 + u/x)^(s-1) overflows at large s: numpy's RuntimeWarning came
    # before the OracleError, and a nan quadrature would pass the tolerance
    for s, x in ((200.0, 1.0), (400.0, 2.0), (1e300, 1.0)):
        with pytest.raises(OracleError, match="quadrature inf is not finite"):
            reference_gamma_mills(s, x)


def test_quadrature_nodes_are_computed_once():
    u, w = _quadrature_nodes()
    assert _quadrature_nodes()[1] is w
    assert not (u.flags.writeable or w.flags.writeable)
    # the same bits as the nodes and weights built afresh on every call
    for s, x in ((0.5, 1.0), (2.5, 3.0), (30.0, 100.0)):
        y = (1.0 + u / x) ** (s - 1.0) * np.exp(-u)
        h = 60.0 / 12000
        want = float((h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                                  + 2.0 * y[2:-1:2].sum()))
        assert _gamma_quadrature(s, x) == want, (s, x)


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


# The breakpoint table.  q_d(x) = d!/(B_d A_{d+1}) is the certified bound
# d!/(B_d B_{d+1}) over the convergent A_{d+1}/B_{d+1}; _certify keeps the
# first d with q_d(x) <= 1e-15 and q_d falls as x grows, so its depth at x is
# one more than the number of crossings b_d of 1e-15 above x.

_TOL = mpmath.mpf(1e-15)   # the double 1e-15, exactly


def _q(x, d):
    """q_d(x) at the working precision, from the exact double x."""
    x = mpmath.mpf(x)
    a_prev, a, b_prev, b = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1), x
    for k in range(1, d):   # X_{k+1} = x X_k + k X_{k-1}, from A_1 = 1, B_1 = x
        a_prev, a = a, x * a + k * a_prev
        b_prev, b = b, x * b + k * b_prev
    return mpmath.factorial(d) / (b * (x * a + d * a_prev))


def _scan_breaks(top=len(_BREAKS)):
    """b_1 ... b_top, each the nearest double to a 40-digit root of
    ln q_d(e^t) = ln 1e-15 in t, started from the previous one.  All 343
    take about 10 s; run this file as a script to rebuild the table."""
    breaks = []
    with mpmath.workdps(40):
        log_tol = mpmath.log(_TOL)
        guess = 1 / mpmath.sqrt(_TOL)   # b_1, where q_1(x) = 1/x^2
        for d in range(1, top + 1):
            t0 = mpmath.log(guess)
            root = mpmath.findroot(
                lambda t: mpmath.log(_q(mpmath.exp(t), d)) - log_tol,
                (t0, t0 - mpmath.mpf("1e-3")), solver="secant",
                tol=mpmath.mpf(10) ** -70)
            guess = mpmath.exp(root)
            breaks.append(float(guess))
    return tuple(breaks)


def test_the_scan_rebuilds_the_table():
    assert _scan_breaks(40) == _BREAKS[:40]


def test_breakpoint_table_certificate():
    # at 30 digits: q_d is past 1e-15 by a factor 1 + 1e-11 at the lower
    # edge of b_d's margin and short of it by 1 - 1e-11 at the upper edge,
    # both as the oracle computes them, b_d (1 -+ 1e-10) in doubles.  The
    # loop's test carries at most about 2.7e-13 of rounding, so outside the
    # margins it decides as q_d does
    assert len(_BREAKS) == 343
    assert all(a > b for a, b in zip(_BREAKS, _BREAKS[1:]))
    assert all(a < b for a, b in zip(_EDGES, _EDGES[1:]))
    assert _BREAKS[0] == (1.0 / 1e-15) ** 0.5   # _depth_one's threshold
    assert _BREAKS[-1] < 1.0 <= _BREAKS[-2]
    lower, upper = _EDGES[-2::-2], _EDGES[::-1][::2]
    with mpmath.workdps(30):
        for d, (b, lo, hi) in enumerate(zip(_BREAKS, lower, upper), 1):
            assert lo == b * (1.0 - 1e-10) and hi == b * (1.0 + 1e-10), d
            assert _q(lo, d) > _TOL * (1 + mpmath.mpf("1e-11")), d
            assert _q(hi, d) < _TOL * (1 - mpmath.mpf("1e-11")), d


def _table_depths(xs):
    """1 + the number of b_d above x, and where the table applies: outside
    every margin and above the last breakpoint's."""
    xs = np.asarray(xs, dtype=float)
    above = len(_BREAKS) - np.searchsorted(_BREAKS[::-1], xs, side="right")
    applies = ~_near_a_break(xs) & (xs > _BREAKS[-1])
    return above + 1, applies


def test_table_depth_is_the_forward_pass_depth():
    # on the table grid, the figure grid and 120,000 random x the depth
    # read from the table is the depth _certify picks
    rng = np.random.default_rng(30)
    grids = [np.arange(20001) * 1e-3, np.arange(601) / 100.0,
             rng.uniform(1.0, 50.0, 60000),
             np.exp(rng.uniform(0.0, math.log(3.16e7), 60000))]
    for xs in grids:
        depths, applies = _table_depths(xs)
        assert applies[xs >= 1.0].all()
        for x, d in zip(xs[applies].tolist(), depths[applies].tolist()):
            assert reference._certify(x, 2000) == d, x


def test_lookup_at_its_edges(monkeypatch):
    calls = []
    certify = reference._certify

    def counted(x, max_depth):
        calls.append(x)
        return certify(x, max_depth)

    monkeypatch.setattr(reference, "_certify", counted)
    last = _BREAKS[-1]
    # below the last breakpoint's margin, and inside it, the forward pass
    # decides: depth 344 and more on [0.5, 1) would be a wrong depth there
    below = [x for x in np.linspace(0.5, 1.0, 500).tolist() if x < last]
    below += _neighbours([last], 3)
    for x in below:
        assert certify(x, 2000) >= 343, x
        want = _certified_fold(x)
        calls.clear()
        assert _mills_cf(x) == want, x
        assert calls == [x], x
    assert _mills_cf(0.5) == _old_mills_cf(0.5)
    # just past the last margin, the table alone: depth 343
    x = math.nextafter(_EDGES[1], math.inf)
    want = _certified_fold(x)
    calls.clear()
    assert _mills_cf(x) == _fold(x, 343) == want
    assert calls == []
    # inside every other margin the forward pass decides, and outside the
    # table does; from b_1 = _depth_one's threshold on the value is 1/x
    for b in _BREAKS:
        for x in (b * (1.0 - 0.9e-10), b, b * (1.0 + 0.9e-10)):
            calls.clear()
            _mills_cf(x)
            assert calls == ([] if x >= _BREAKS[0] else [x]), x
        for x in (b * (1.0 - 1.1e-10), b * (1.0 + 1.1e-10)):
            calls.clear()
            _mills_cf(x)
            assert calls == [] or x < _EDGES[1], x
    # at and past _depth_one's threshold the value is 1/x on both routes
    edge = (1.0 / 1e-15) ** 0.5
    for x in (edge, math.nextafter(edge, math.inf), 1e300, math.inf):
        calls.clear()
        assert _mills_cf(x) == 1.0 / x
        assert _mills_cf_grid(np.array([x]))[0] == 1.0 / x
        assert calls == []
    below_edge = math.nextafter(edge, 0.0)
    assert _mills_cf(below_edge) == _certified_fold(below_edge)


def test_uncertified_depths_at_caps_1_to_400():
    # a depth at or past the cap raises the forward pass's error, on the
    # table, inside a margin and below the last breakpoint; the grid names
    # the first uncertified x in input order
    xs = [3.0, 1.5, 10.0, _BREAKS[150], 1.0, 0.9995, 1e300, 50.0]
    for cap in range(1, 401):
        first = None
        for i, x in enumerate(xs):
            want = _certified_fold(x, cap) if x < 1e300 else 1.0 / x
            if want is None:
                first = i if first is None else first
                with pytest.raises(OracleError) as new:
                    _mills_cf(x, max_depth=cap)
                assert str(new.value) == _uncertified_text(x, cap)
            else:
                assert _mills_cf(x, max_depth=cap) == want, (x, cap)
        if first is None:
            want = [_mills_cf(x) for x in xs]
            assert _mills_cf_grid(np.array(xs), max_depth=cap).tolist() == want
        else:
            with pytest.raises(OracleError) as new:
                _mills_cf_grid(np.array(xs), max_depth=cap)
            assert str(new.value) == _uncertified_text(xs[first], cap), cap


if __name__ == "__main__":
    # rebuild the breakpoint table and compare it with the committed one
    table = _scan_breaks()
    print("same as _BREAKS" if table == _BREAKS else "differs from _BREAKS")
    for i in range(0, len(table), 3):
        print("    " + ", ".join(repr(b) for b in table[i:i + 3]) + ",")
