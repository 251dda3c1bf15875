"""Runtime verification suites: every structural identity the library rests on.

Each suite is a zero-argument callable returning (ok, detail); run_suites
executes a selection in registry order and never lets one suite's exception
take down the rest.  The suites re-derive their expectations from closed
forms or from the independent reference module, so they double as a smoke
test of a freshly built environment (exposed as the CLI's `verify`
subcommand).  The proof operators behind the paper's bracketing statements,
R_n's derivatives, delta_n and the sign operator, are private helpers here:
only the fit-conditions and sign-identity suites read them.  So is the
continued-fraction toolkit of the structural suites (the Laplace specs,
doubly modified levels, equivalence transforms, continuant determinants).
"""

import math
import random
from fractions import Fraction

from . import gamma, gauss, reference
from .cf import (CFEvaluationError, CFSpec, _check_depth, _check_x,
                 _non_finite, eval_backward, forward_recurrence)
from .tails import FAMILIES, beta0, get_family, mod_constants

_X_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def _laplace_spec():
    """The Gaussian Mills fraction: a = 1, 1, 2, 3, ...; all b = x."""
    return CFSpec(
        a=lambda k, x: 1.0 if k == 1 else float(k - 1),
        b=lambda k, x: x,
        name="laplace",
    )


def _lcf_spec():
    """The same fraction in v = 1/x^2; its value is x R(x), not R(x).

    a_1 = 1, a_k = (k-1) v for k >= 2, all b = 1.  The equivalence transform
    with p(k) = x carries this into _laplace_spec times x.
    """
    return CFSpec(
        a=lambda k, v: 1.0 if k == 1 else (k - 1) * v,
        b=lambda k, v: 1.0,
        name="lcf",
    )


def _coeff(spec, which, k, x):
    """a(k, x) or b(k, x) of a callable spec, refused as forward_recurrence
    refuses it where it is not finite."""
    v = (spec.a if which == "a" else spec.b)(k, x)
    if not math.isfinite(v):
        raise _non_finite(which, k, v, spec.name)
    return v


def _convergents(spec, x, n):
    """The convergents at depths 1..n, one forward pass each (n is small)."""
    return [forward_recurrence(spec, x, d).value() for d in range(1, n + 1)]


def _eval_doubly_modified(spec, x, n, alpha, gamma):
    """Convergent with the last level replaced by alpha / (b_n + gamma).

    Equals (A_n + gamma A_{n-1} + (alpha - a_n) A_{n-2}) /
           (B_n + gamma B_{n-1} + (alpha - a_n) B_{n-2}),
    computed from the depth n-1 state as ((b_n+gamma) A_{n-1} + alpha A_{n-2})
    over the same combination of B's.  alpha = a_n, gamma = 0 reduces to the
    plain convergent; alpha = 0 collapses to the depth n-1 convergent.
    """
    n = _check_depth(n, "doubly modified evaluation", lo=2)
    st = forward_recurrence(spec, x, n - 1)
    bn = _coeff(spec, "b", n, x)
    num = (bn + gamma) * st.A + alpha * st.A_prev
    den = (bn + gamma) * st.B + alpha * st.B_prev
    if den == 0.0:
        raise CFEvaluationError(f"vanishing modified denominator at depth {n}")
    return num / den


class _InvalidTransformError(ValueError):
    """An equivalence transform used a vanishing or ill-normalized multiplier."""


def _equivalence_transform(spec, p):
    """Spec with a'_k = p(k-1,x) p(k,x) a_k and b'_k = p(k,x) b_k.

    Convergents are unchanged at every depth.  p(0, x) must be 1 and no
    p(k, x) may vanish; violations raise _InvalidTransformError at
    evaluation time (the multipliers may depend on x, so they cannot be
    checked here).
    """

    def pval(k, x):
        v = p(k, x)
        if k == 0:
            if v != 1.0:
                raise _InvalidTransformError(f"p(0, {x!r}) = {v!r}, must be 1")
            return 1.0
        if v == 0.0:
            raise _InvalidTransformError(f"p({k}, {x!r}) = 0")
        return v

    def a2(k, x):
        return pval(k - 1, x) * pval(k, x) * spec.a(k, x)

    def b2(k, x):
        return pval(k, x) * spec.b(k, x)

    return CFSpec(a=a2, b=b2, name=f"{spec.name}|equiv")


def _continuant_oracle(spec, x, n):
    """(A_n, B_n) as tridiagonal determinants via np.linalg.det, n <= 8.

    The matrix has the b's on the diagonal, -1 above and the a's below.
    Independent of both recursions; small n only because the determinant
    route has no rescaling.
    """
    import numpy as np

    n = _check_depth(n, "continuant oracle", top=8)
    _check_x(spec, x)
    m = np.zeros((n + 1, n + 1))   # m[0, 0] is A_0 = 0
    for k in range(1, n + 1):
        m[k, k] = _coeff(spec, "b", k, x)
        m[k - 1, k] = -1.0
        m[k, k - 1] = _coeff(spec, "a", k, x)
    a_det = float(np.linalg.det(m))
    b_det = float(np.linalg.det(m[1:, 1:]))
    return a_det, b_det


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _determinant():
    # the cross product A_prev*B - A*B_prev cancels ~10 digits at depth 15,
    # x = 5 (products ~1e20 against a determinant ~1e10), so the identity is
    # checked exactly in rationals on the same coefficients, and the float
    # state only against its own cancellation noise floor
    spec = _laplace_spec()
    eps = 2.0 ** -52
    worst_noise = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        xf = Fraction(x)
        A_prev, B_prev = Fraction(1), Fraction(0)
        A, B = Fraction(0), Fraction(1)
        for n in range(1, 16):
            ak = Fraction(spec.a(n, x))
            bk = Fraction(spec.b(n, x))
            assert bk == xf
            A, A_prev = bk * A + ak * A_prev, A
            B, B_prev = bk * B + ak * B_prev, B
            rhs = Fraction((-1) ** n * math.factorial(n - 1))
            if A_prev * B - A * B_prev != rhs:
                return False, f"exact identity broken at depth {n}, x={x}"
            st = forward_recurrence(spec, x, n)
            if st.scale_log2 or st.a_scale_log2:
                return False, f"unexpected rescale at depth {n}, x={x}"
            if st.B <= 0.0:
                return False, f"B_{n}({x}) = {st.B} not positive"
            det = st.A_prev * st.B - st.A * st.B_prev
            floor = eps * abs(st.B * st.B_prev) + eps * abs(float(rhs))
            err = abs(det - float(rhs))
            worst_noise = max(worst_noise, err / max(floor, 1e-300))
    ok = worst_noise <= 50.0
    return ok, (
        "exact in rationals at every depth; float determinant within "
        f"{worst_noise:.1f}x its cancellation noise floor (cap 50x)"
    )


def _backward_forward():
    spec = _laplace_spec()
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0):
        for n in (1, 2, 3, 5, 8, 13, 21, 30):
            f = forward_recurrence(spec, x, n).value()
            b = eval_backward(spec, x, n, spec.b(n, x))
            worst = max(worst, _rel(b, f))
    return worst <= 1e-12, f"backward vs forward: worst rel {worst:.2e} (tol 1e-12)"


def _equivalence():
    spec = _laplace_spec()
    ident = _equivalence_transform(spec, lambda k, x: 1.0)
    double = _equivalence_transform(spec, lambda k, x: 1.0 if k == 0 else 2.0)
    worst = 0.0
    for x in (1.0, 2.0):
        base = _convergents(spec, x, 10)
        for other in (ident, double):
            for v, w in zip(base, _convergents(other, x, 10)):
                worst = max(worst, _rel(w, v))
    return worst <= 1e-13, f"transformed convergents: worst rel {worst:.2e} (tol 1e-13)"


def _lcf_transform():
    # the unit-denominator fraction in v = 1/x^2 equals x times the Laplace
    # fraction level by level; multiplying its denominators through by x is
    # the equivalence transform that exposes that
    la = _laplace_spec()
    lcf = _lcf_spec()
    x = 2.0
    v = 1.0 / (x * x)
    conv_la = _convergents(la, x, 10)
    conv_lcf = _convergents(lcf, v, 10)
    worst = max(_rel(cv, x * cl) for cv, cl in zip(conv_lcf, conv_la))
    scaled = _equivalence_transform(
        lcf, lambda k, vv: 1.0 if k == 0 else 1.0 / math.sqrt(vv)
    )
    worst2 = max(
        _rel(cs, cv) for cs, cv in zip(_convergents(scaled, v, 10), conv_lcf)
    )
    ok = worst <= 1e-13 and worst2 <= 1e-13
    return ok, (
        f"levelwise x*Laplace vs 1/x^2 form: worst rel {worst:.2e}; "
        f"p_k = x transform: worst rel {worst2:.2e} (tol 1e-13)"
    )


def _doubly_modified():
    spec = _laplace_spec()
    worst = 0.0
    for x in (1.0, 2.0):
        for n in (2, 3, 5, 8):
            st = forward_recurrence(spec, x, n)
            an = spec.a(n, x)
            for g in (0.0, 1.0, 2.5):
                direct = (st.A + g * st.A_prev) / (st.B + g * st.B_prev)
                dm = _eval_doubly_modified(spec, x, n, alpha=an, gamma=g)
                worst = max(worst, _rel(dm, direct))
            prev = forward_recurrence(spec, x, n - 1).value()
            worst = max(
                worst, _rel(_eval_doubly_modified(spec, x, n, 0.0, 0.0), prev)
            )
    spot = _rel(
        _eval_doubly_modified(spec, 1.0, 2, spec.a(2, 1.0), 1.0),
        eval_backward(spec, 1.0, 2, 2.0),
    )
    worst = max(worst, spot)
    return worst <= 1e-13, (
        f"singly modified / collapsed / tail-shift forms: worst rel {worst:.2e}"
    )


def _continuant():
    spec = _laplace_spec()
    a1, b1 = _continuant_oracle(spec, 3.0, 1)
    if not (a1 == 1.0 and abs(b1 - 3.0) <= 1e-12):
        return False, f"depth-1 anchor at x=3: got A={a1}, B={b1}, want 1, 3"
    worst = 0.0
    for x in (1.0, 3.0):
        for n in range(0, 9):
            a_det, b_det = _continuant_oracle(spec, x, n)
            st = forward_recurrence(spec, x, n)
            worst = max(worst, _rel(a_det, st.A), _rel(b_det, st.B))
    return worst <= 1e-12, (
        f"tridiagonal determinants vs recursion, n <= 8: worst rel {worst:.2e}"
    )


def _alternating():
    violations = 0
    checks = 0
    for x in _X_GRID:
        ref = reference.reference_mills(x)
        vals = [gauss.mills(x, k, "classic").value for k in range(13)]
        evens = vals[0::2]
        odds = vals[1::2]
        for v in evens:
            checks += 1
            if not v > ref:
                violations += 1
        for v in odds:
            checks += 1
            if not v < ref:
                violations += 1
        for a, b in zip(evens, evens[1:]):
            checks += 1
            if not a > b:
                violations += 1
        for a, b in zip(odds, odds[1:]):
            checks += 1
            if not a < b:
                violations += 1
    return violations == 0, (
        f"even-from-above / odd-from-below bracketing, depths 0..12: "
        f"{violations} violations in {checks} checks"
    )


def _error_bound():
    violations = 0
    checks = 0
    tightest = math.inf
    for x in _X_GRID:
        ref = reference.reference_mills(x)
        for n in range(13):
            err = abs(ref - gauss.mills(x, n, "classic").value)
            bound = gauss.truncation_bound(x, n)
            checks += 1
            if not err < bound:
                violations += 1
            elif err > 0.0:
                tightest = min(tightest, bound / err)
    return violations == 0, (
        f"strict |R - R_n| < n!/(B_n B_(n+1)): {violations} violations in "
        f"{checks} checks; smallest bound/error ratio {tightest:.3f}"
    )


def _euler_diff():
    spec = _laplace_spec()
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        vals = _convergents(spec, x, 13)
        B = [forward_recurrence(spec, x, m).B for m in range(14)]
        for m in range(1, 13):
            lhs = vals[m - 1] - vals[m]
            rhs = (-1.0) ** (m + 1) * math.factorial(m) / (B[m] * B[m + 1])
            worst = max(worst, _rel(lhs, rhs))
        for m in range(1, 7):
            lhs = vals[2 * m] - vals[2 * m - 2]
            rhs = -x * math.factorial(2 * m - 1) / (B[2 * m - 1] * B[2 * m + 1])
            worst = max(worst, _rel(lhs, rhs))
        for m in range(1, 7):
            prev = vals[2 * m - 3] if m > 1 else 0.0
            lhs = vals[2 * m - 1] - prev
            rhs = x * math.factorial(2 * m - 2) / (B[2 * m - 2] * B[2 * m])
            worst = max(worst, _rel(lhs, rhs))
    return worst <= 1e-9, (
        f"consecutive and skip-level difference identities: worst rel {worst:.2e}"
    )


def _ode_residual():
    h = 1e-4
    worst = 0.0
    for i in range(25):
        x = 0.1 + 7.9 * i / 24.0
        d = (reference.reference_mills(x + h) - reference.reference_mills(x - h)) / (
            2.0 * h
        )
        worst = max(worst, abs(d - (x * reference.reference_mills(x) - 1.0)))
    return worst <= 1e-6, f"R' = xR - 1 by central differences: worst abs {worst:.2e}"


def _mills_derivatives(u, n, fam):
    """(R_n, R_n', R_n'') at u, by differentiating the backward recursion.

    Every denominator level is u itself (unit derivative), the numerators are
    constants, and the tail contributes its own three derivatives, so each
    fold t <- u + k/t maps (t, t', t'') exactly.  fam is a built-in family,
    which carries deriv and second, and u is 0 or in [1e-6, 10], the points
    the suites below ask for.
    """
    t = fam.value(n, u)
    t1 = fam.deriv(n, u)
    t2 = fam.second(n, u)
    for k in range(n, 0, -1):
        s = u + k / t
        s1 = 1.0 - k * t1 / (t * t)
        s2 = -k * t2 / (t * t) + 2.0 * k * t1 * t1 / (t * t * t)
        t, t1, t2 = s, s1, s2
    # top level: R = 1/t
    r = 1.0 / t
    r1 = -t1 / (t * t)
    r2 = -t2 / (t * t) + 2.0 * t1 * t1 / (t * t * t)
    return r, r1, r2


def _error_integrand(u, n, fam):
    """delta_n(u) = 1 + R_n'(u) - u R_n(u); identically 0 iff R_n is exact."""
    r, r1, _ = _mills_derivatives(u, n, fam)
    return 1.0 + r1 - u * r


def _second_error_integrand(u, n, fam):
    """delta_n''-type operator: R_n'' - 2u R_n' + (u^2 - 1) R_n - u."""
    r, r1, r2 = _mills_derivatives(u, n, fam)
    return r2 - 2.0 * u * r1 + (u * u - 1.0) * r - u


def _sign_operator(u, n, fam):
    """u beta + beta' + n - beta^2: carries the sign of delta_n.

    sign(delta_n(u)) = (-1)^(n-1) sign(_sign_operator) wherever the operator
    is nonzero; the positive factor n!/D_n(u)^2 never flips it.
    """
    b = fam.value(n, u)
    b1 = fam.deriv(n, u)
    return u * b + b1 + n - b * b


def _fit_conditions():
    # a family is held to the conditions at 0 that its fits_* flags claim
    fams = {name: get_family(name) for name in FAMILIES}
    for flag, fn, label, tol in (
            ("fits_value", gauss.delta, "Delta_{}(0)", "1e-14"),
            ("fits_slope", _error_integrand, "delta_{}(0)", "1e-12"),
            ("fits_curvature", _second_error_integrand, "delta_{}''(0)", "1e-9")):
        for name in [name for name, f in fams.items() if getattr(f, flag)]:
            for n in range(5):
                v = fn(0.0, n, fams[name])
                if abs(v) > float(tol):
                    return False, f"{label.format(n)} = {v:.2e} for {name} (tol {tol})"
    reports = []
    for fam in [name for name, f in fams.items() if f.fits_curvature]:
        slopes = []
        for n in range(4):
            lo = abs(gauss.delta(1e-3, n, fam))
            hi = abs(gauss.delta(1e-1, n, fam))
            slope = math.log(hi / lo) / math.log(100.0)
            slopes.append(slope)
            if slope < 2.7:
                return False, f"log-log slope at 0 for {fam} n={n}: {slope:.2f}"
        reports.append(f"{fam} origin slopes " + ", ".join(f"{s:.2f}" for s in slopes))
    return True, "value/slope/curvature fits hold; " + "; ".join(reports)


_SIGN_SAMPLES = 200


def _sign_identity():
    rng = random.Random(987321)
    families = [get_family(name) for name in FAMILIES]
    checked = 0
    disagreements = 0
    while checked < _SIGN_SAMPLES:
        n = rng.randint(0, 6)
        u = rng.uniform(1e-6, 10.0)
        fam = rng.choice(families)
        g = _sign_operator(u, n, fam)
        if abs(g) <= 1e-9:
            continue
        d = _error_integrand(u, n, fam)
        if abs(d) < 1e-13:
            # below double-precision resolution of 1 + R' - uR; no sign to read
            continue
        parity = -1.0 if n % 2 == 0 else 1.0
        checked += 1
        if math.copysign(1.0, d) != parity * math.copysign(1.0, g):
            disagreements += 1
    return disagreements == 0, (
        f"sign(delta_n) vs (-1)^(n-1) sign(u b + b' + n - b^2): "
        f"{disagreements} disagreements in {checked} samples"
    )


def _hazard_bracket():
    worst = 0.0
    for i in range(33):
        x = 8.0 * i / 32.0
        worst = max(worst, abs(gauss.hazard(x) * reference.reference_mills(x) - 1.0))
    h10 = gauss.hazard(10.0)
    if not 10.0 < h10 < 10.1:
        return False, f"hazard(10) = {h10} outside (x, x + 1/x)"
    h0 = gauss.hazard(0.0)
    if _rel(h0, math.sqrt(2.0 / math.pi)) > 1e-14:
        return False, f"hazard(0) = {h0}, want sqrt(2/pi)"
    return worst <= 1e-14, (
        f"hazard * mills = 1 on [0, 8]: worst abs {worst:.2e} (tol 1e-14)"
    )


def _zero_fit_constants():
    rec = math.sqrt(2.0 / math.pi)
    worst = _rel(beta0(0), rec)
    for n in range(1, 51):
        rec = n / rec
        b = beta0(n)
        worst = max(worst, _rel(b, rec))
        if not math.sqrt(n + 0.5) < b < math.sqrt(n + 1.0):
            return False, f"beta_{n}(0) = {b} outside (sqrt(n+1/2), sqrt(n+1))"
        c = mod_constants(n)
        if not (c.lam > 0.0 and c.r > 0.0):
            return False, f"lambda_{n} = {c.lam}, r_{n} = {c.r}: not both positive"
        worst = max(worst, _rel(beta0(n) * beta0(n - 1), float(n)))
    anchors = (
        (mod_constants(1).lam, math.pi / 2.0 - 1.0),
        (mod_constants(1).r, math.pi - 3.0),
        (mod_constants(0).lam, 2.0 / math.pi),
        (mod_constants(0).r, 2.0 * (2.0 / math.pi - 0.5)),
    )
    for got, want in anchors:
        worst = max(worst, _rel(got, want))
    return worst <= 1e-12, (
        f"closed form vs recursion vs anchors, n <= 50: worst rel {worst:.2e}"
    )


def _pade():
    p0 = gauss.pade_r2(0.0)
    if abs(p0 - math.sqrt(0.5 * math.pi)) > 1e-15:
        return False, f"pade_r2(0) = {p0!r}, want sqrt(pi/2)"
    x = 1e6
    if abs(x * gauss.pade_r2(x) - 1.0) > 1e-6:
        return False, "x * pade_r2(x) not within 1e-6 of 1 at x = 1e6"
    x = 1e3
    k = x ** 3 * (gauss.pade_r2(x) - 1.0 / x)
    if abs(k + 1.0) > 0.01:
        return False, f"x^3 (pade_r2 - 1/x) = {k:.6f} at x=1e3, want -1 within 1%"
    p3 = gauss.pade_r2(0.0, origin_terms=3)
    if abs(p3 - math.sqrt(0.5 * math.pi)) > 1e-14:
        return False, f"three-origin-term variant at 0: {p3!r}"
    if abs(1e6 * gauss.pade_r2(1e6, origin_terms=3) - 1.0) > 1e-3:
        return False, "three-origin-term variant drifts from 1/x at x = 1e6"
    return True, f"value anchor, 1/x tail, and x^-3 coefficient {k:.4f} all hold"


def _series():
    if gauss.asymptotic_series(4.0, 0).value != 0.25:
        return False, "m = 0 partial sum is not 1/x"
    v = gauss.asymptotic_series(5.0, 2).value
    if _rel(v, 603.0 / 3125.0) > 1e-15:
        return False, f"x=5, m=2 partial sum {v!r}, want 603/3125"
    if not gauss.asymptotic_series(1.0, 10).diverging:
        return False, "divergence flag not set at x=1, m=10"
    if gauss.asymptotic_series(10.0, 4).diverging:
        return False, "divergence flag wrongly set at x=10, m=4"
    far = abs(gauss.asymptotic_series(10.0, 4).value - reference.reference_mills(10.0))
    if far > 1e-5:
        return False, f"x=10, m=4 misses reference by {far:.2e}"
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        worst = max(worst, _rel(gauss.taylor_mills(x), reference.reference_mills(x)))
    c2 = gauss.taylor_mills(1.0, 3) - gauss.taylor_mills(1.0, 2)
    if _rel(c2, math.sqrt(0.5 * math.pi) / 2.0) > 1e-14:
        return False, f"series coefficient c_2 = {c2!r}, want c_0/2"
    return worst <= 1e-13, (
        f"asymptotic anchors hold; Taylor vs reference worst rel {worst:.2e}"
    )


def _branch_agreement():
    worst = 0.0
    for i in range(50):
        x = 0.5 + 1.5 * i / 49.0
        worst = max(
            worst, _rel(reference._mills_series(x), reference._mills_cf(x))
        )
    return worst <= 1e-13, (
        f"series vs deep-fraction oracle branches on [0.5, 2]: worst rel {worst:.2e}"
    )


def _tail_monotonicity():
    xs = [0.1 * i for i in range(101)]
    mills_vals = [reference.reference_mills(x) for x in xs]
    tail_vals = [reference.reference_tail(x) for x in xs]
    ok_m = all(a > b for a, b in zip(mills_vals, mills_vals[1:]))
    ok_t = all(a > b for a, b in zip(tail_vals, tail_vals[1:]))
    return ok_m and ok_t, (
        f"strict decrease on [0, 10]: mills {ok_m}, tail {ok_t}"
    )


def _oracle_bracket():
    for x in _X_GRID:
        ref = reference.reference_mills(x)
        lo = gauss.mills(x, 11, "classic").value
        hi = gauss.mills(x, 12, "classic").value
        if not lo < ref < hi:
            return False, f"reference at x={x} outside depth-11/12 bracket"
    return True, "reference always inside the depth-11/12 classic bracket"


def _gamma_closed_forms():
    checks = [
        ("M_1(5) via contracted form", gamma.laguerre(1.0, 5.0, 10), 1.0, 1e-12),
        ("M_1(2.5) via alternating form", gamma.cf_l1(1.0, 2.5, 7), 1.0, 1e-14),
        ("M_2(4) via reduction", gamma.reduce_s(2.0, 4.0), 1.25, 1e-12),
        ("M_2(0.5) at depth 100", gamma.laguerre(2.0, 0.5, 100), 3.0, 1e-12),
        ("M_3(5) exact truncation", gamma.laguerre(3.0, 5.0, 100), 1.48, 1e-12),
        ("M_3(2) via reduction", gamma.reduce_s(3.0, 2.0), 2.5, 1e-12),
        ("cumulative side at s=1", gamma.lower_cf(1.0, 1.0, 30), math.e - 1.0, 1e-10),
        ("index-shift anchor M_2(2)", reference.reference_gamma_mills(2.0, 2.0), 1.5, 1e-12),
    ]
    for label, got, want, tol in checks:
        if _rel(got, want) > tol:
            return False, f"{label}: got {got!r}, want {want!r} (tol {tol})"
    return True, f"{len(checks)} closed-form anchors hold"


# Fixed depths, deep enough to converge at x >= 1/2, rather than adaptive:
# without a depth every form answers through gamma_mills, and these suites
# compare the fractions themselves
_L1_DEPTH, _LAGUERRE_DEPTH, _LOWER_DEPTH = 200, 100, 50


def _gamma_form_agreement():
    worst = 0.0
    for s in (0.3, 0.5, 0.9):
        for x in (1.0, 2.0, 5.0):
            a = gamma.cf_l1(s, x, _L1_DEPTH)
            b = gamma.laguerre(s, x, _LAGUERRE_DEPTH)
            c = gamma.winitzki_cf(s, x, _L1_DEPTH)
            worst = max(worst, _rel(a, b), _rel(b, c), _rel(a, c))
    return worst <= 1e-8, (
        f"three tail forms pairwise, depths {_L1_DEPTH}/{_LAGUERRE_DEPTH}/{_L1_DEPTH}: "
        f"worst rel {worst:.2e} (tol 1e-8)"
    )


def _gamma_complement():
    worst = 0.0
    for s in (0.5, 0.8, 1.0, 1.5):
        for x in (0.5, 1.0, 2.0):
            total = (gamma.lower_cf(s, x, _LOWER_DEPTH)
                     + gamma.laguerre(s, x, _LAGUERRE_DEPTH))
            target = x ** (1.0 - s) * math.exp(x) * math.gamma(s)
            worst = max(worst, _rel(total, target))
    return worst <= 1e-8, (
        f"lower + upper vs x^(1-s) e^x Gamma(s): worst rel {worst:.2e} (tol 1e-8)"
    )


def _gamma_ode():
    h = 1e-4
    worst = 0.0
    for s in (0.5, 2.5):
        for x in (1.0, 2.0, 5.0):
            d = (gamma.laguerre(s, x + h, _LAGUERRE_DEPTH)
                 - gamma.laguerre(s, x - h, _LAGUERRE_DEPTH)) / (2.0 * h)
            q = 1.0 + (1.0 - s) / x
            rhs = q * gamma.laguerre(s, x, _LAGUERRE_DEPTH) - 1.0
            worst = max(worst, _rel(d, rhs))
    return worst <= 1e-5, f"M' = q M - 1 by central differences: worst rel {worst:.2e}"


def _gamma_limit():
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        worst = max(worst, abs(gamma.laguerre(s, 1000.0, _LAGUERRE_DEPTH) - 1.0))
    return worst <= 0.01, f"|M_s(1000) - 1| <= 0.01: worst {worst:.2e}"


def _gamma_gauss():
    # fixed depths rather than adaptive: the unit-denominator form creeps
    # too slowly at x = z^2/2 = 0.125 for the successive-convergent stop
    worst = 0.0
    for z in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        want = z * reference.reference_mills(z)
        x = z * z / 2.0
        worst = max(worst, _rel(gamma.laguerre(0.5, x, 400), want))
        worst = max(worst, _rel(gamma.winitzki_cf(0.5, x, 500), want))
    return worst <= 1e-8, (
        f"M_(1/2)(z^2/2) = z R(z), both forms: worst rel {worst:.2e} (tol 1e-8)"
    )


def _gamma_bracket():
    for s in (0.25, 0.5, 0.75, 1.0):
        for x in (0.5, 1.0, 2.0, 4.0, 5.0):
            ref = reference.reference_gamma_mills(s, x)
            for n in (1, 3, 6, 8, 10):
                lo, hi = gamma.bounds_s01(s, x, n)
                if not lo <= ref <= hi:
                    return False, (
                        f"oracle outside bracket at s={s}, x={x}, n={n}: "
                        f"({lo}, {hi}) vs {ref}"
                    )
    widths = [
        b - a for a, b in (gamma.bounds_s01(0.5, 2.0, n) for n in range(2, 13))
    ]
    if not all(a > b for a, b in zip(widths, widths[1:])):
        return False, "bracket width not strictly shrinking at s=0.5, x=2"
    return True, "all brackets contain the oracle; widths shrink monotonically"


SUITES = {
    "determinant": _determinant,
    "backward-forward": _backward_forward,
    "equivalence": _equivalence,
    "lcf-transform": _lcf_transform,
    "doubly-modified": _doubly_modified,
    "continuant": _continuant,
    "alternating": _alternating,
    "error-bound": _error_bound,
    "euler-diff": _euler_diff,
    "ode-residual": _ode_residual,
    "fit-conditions": _fit_conditions,
    "sign-identity": _sign_identity,
    "hazard-bracket": _hazard_bracket,
    "zero-fit-constants": _zero_fit_constants,
    "pade": _pade,
    "series": _series,
    "branch-agreement": _branch_agreement,
    "tail-monotonicity": _tail_monotonicity,
    "oracle-bracket": _oracle_bracket,
    "gamma-closed-forms": _gamma_closed_forms,
    "gamma-form-agreement": _gamma_form_agreement,
    "gamma-complement": _gamma_complement,
    "gamma-ode": _gamma_ode,
    "gamma-limit": _gamma_limit,
    "gamma-gauss": _gamma_gauss,
    "gamma-bracket": _gamma_bracket,
}


def run_suites(names=None):
    """Run the named suites (all by default); returns [(name, ok, detail)].

    Unknown names raise ValueError.  A suite that raises is reported as a
    failure carrying the exception text instead of aborting the run.
    """
    selected = list(SUITES) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITES]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {unknown}; available: {', '.join(SUITES)}"
        )
    results = []
    for name in selected:
        fn = SUITES[name]
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - suite crash is a failure
            ok, detail = False, f"raised {exc!r}"
        results.append((name, ok, detail))
    return results
