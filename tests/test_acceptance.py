"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a single pass/fail line (visible with -s, and in the
captured output on failure) in addition to pytest's own verdict.
"""

from millscf import gamma, verify
from millscf.cli import main as cli_main
from millscf.gauss import scan_max_delta
from millscf.reference import (
    _gamma_quadrature,
    reference_gamma_mills,
    reference_mills,
)

REPORTED_MAXERR = (2.1e-4, 4.8e-5, 3.0e-5, 1.6e-5)


def _report(k, ok, detail):
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_reported_maxerr_sequence():
    worst_ratio = 0.0
    measured = []
    for n, target in enumerate(REPORTED_MAXERR):
        _, got = scan_max_delta("improved-expo", n)
        measured.append(got)
        worst_ratio = max(worst_ratio, abs(got - target) / target)
    _report(1, worst_ratio <= 0.15,
            f"improved-expo max errors {['%.3e' % v for v in measured]}, "
            f"worst deviation {worst_ratio:.1%} (cap 15%)")


def _suite(name):
    [(_, ok, detail)] = verify.run_suites([name])
    return ok, detail


def test_criterion_02_alternating_bounds():
    _report(2, *_suite("alternating"))


def test_criterion_03_error_estimate_strict():
    _report(3, *_suite("error-bound"))


def test_criterion_04_origin_constants():
    _report(4, *_suite("zero-fit-constants"))


def test_criterion_05_sign_identity():
    ok, detail = _suite("sign-identity")
    _report(5, ok and "0 disagreements" in detail, detail)


def test_criterion_06_two_point_pade():
    _report(6, *_suite("pade"))


def test_criterion_07_gamma_gaussian_equivalence():
    worst = 0.0
    for z in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        want = z * reference_mills(z)
        x = z * z / 2.0
        for got in (gamma.laguerre(0.5, x, 400), gamma.winitzki_cf(0.5, x, 500)):
            worst = max(worst, abs(got - want) / want)
    _report(7, worst <= 1e-8,
            f"M_(1/2)(z^2/2) vs z R(z), both forms, worst rel {worst:.2e}")


def test_criterion_08_shape_reduction():
    worst = 0.0
    for s in (2.0, 3.0, 4.5):
        for x in (1.0, 2.0, 5.0):
            direct = gamma.laguerre(s, x, 200)
            worst = max(worst, abs(gamma.reduce_s(s, x) - direct) / direct)
    closed = 0.0
    for x in (1.0, 2.0, 5.0):
        closed = max(closed, abs(gamma.cf_l1(1.0, x, 10) - 1.0))
        closed = max(closed, abs(gamma.cf_l1(2.0, x) - (1.0 + 1.0 / x)))
    ok = worst <= 1e-8 and closed <= 1e-12
    _report(8, ok,
            f"reduction vs direct worst rel {worst:.2e}; "
            f"closed forms M_1, M_2 off by {closed:.2e}")


def test_criterion_09_gamma_bracketing():
    ok = True
    for s in (0.25, 0.5, 0.75, 1.0):
        for x in (0.5, 1.0, 2.0, 4.0):
            ref = reference_gamma_mills(s, x)
            for n in (3, 8):
                lo, hi = gamma.bounds_s01(s, x, n)
                ok &= lo <= ref <= hi
    _report(9, ok, "every bounds_s01 pair contains the oracle value")


def test_criterion_10_oracle_self_consistency():
    ok_gauss, detail = _suite("branch-agreement")
    worst_gamma = 0.0
    for s in (0.5, 1.5, 3.0):
        for x in (1.0, 2.0, 5.0):
            quad = _gamma_quadrature(s, x)
            val = gamma.laguerre(s, x)
            worst_gamma = max(worst_gamma, abs(val - quad) / quad)
    ok = ok_gauss and worst_gamma <= 1e-7
    _report(10, ok,
            f"{detail}; Gamma fraction vs quadrature worst rel "
            f"{worst_gamma:.2e} (cap 1e-7)")


def test_criterion_11_equivalence_transform():
    _report(11, *_suite("lcf-transform"))


def test_criterion_12_figure_reproduction(tmp_path):
    caps = {1: REPORTED_MAXERR[0], 2: REPORTED_MAXERR[1], 3: REPORTED_MAXERR[3]}
    ok = True
    details = []
    for fig_id, cap in caps.items():
        first = tmp_path / f"fig{fig_id}.csv"
        second = tmp_path / f"fig{fig_id}_again.csv"
        assert cli_main(["figure", "--id", str(fig_id),
                         "--out", str(first)]) == 0
        assert cli_main(["figure", "--id", str(fig_id),
                         "--out", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
        rows = first.read_text().splitlines()
        col = rows[0].split(",").index("improved-expo")
        peak = max(abs(float(r.split(",")[col])) for r in rows[1:])
        ok &= peak <= 1.15 * cap
        details.append(f"id {fig_id} peak {peak:.2e} <= {1.15 * cap:.2e}")
    _report(12, ok, "; ".join(details))
