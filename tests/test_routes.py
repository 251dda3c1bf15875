"""The scalar routes load no numpy, and agree with the array routes."""

import math
import os
import subprocess
import sys

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

import millscf
from millscf import FAMILIES, CFEvaluationError, custom, delta, mills, mills_grid
from millscf.reference import (OracleError, reference_mills,
                               reference_mills_grid, reference_tail)
from millscf.tails import get_family

_SCALAR_CALLS = """
import sys
import millscf as m

# the proof suites, and the exact arithmetic they use, load on first use
for name in ("millscf.verify", "fractions", "decimal"):
    assert name not in sys.modules, "import millscf loaded " + name

for name in m.FAMILIES:
    m.mills(0.5 if name == "classic" else 0.0, 3, name)
    m.mills(2.5, 0, name)
m.truncation_bound(1.5, 4)
m.delta(0.5, 2)
m.reference_mills(3.0)
for form in (m.laguerre, m.cf_l1, m.winitzki_cf, m.lower_cf):
    form(0.5, 2.0)
m.reduce_s(3.5, 2.0)
m.bounds_s01(0.5, 1.0, 8)
assert "numpy" not in sys.modules, "a scalar call loaded numpy"

# the array route imports numpy itself
grid = m.mills_grid([0.5, 1.0, 2.0], 2, "linear")
assert grid.tolist() == [m.mills(x, 2, "linear").value for x in (0.5, 1.0, 2.0)]
"""


def _python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(millscf.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_scalar_calls_leave_numpy_unloaded():
    proc = _python(_SCALAR_CALLS)
    assert proc.returncode == 0, proc.stderr
    # the CLI needs arrays for table and figure, and loads numpy up front;
    # it loads verify up front too, so a timed command pays no import
    proc = _python("import sys, millscf.cli; "
                   "assert {'numpy', 'millscf.verify'} <= set(sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_public_surface():
    names = millscf.__all__
    assert len(names) == len(set(names)) == 31
    for name in names:
        assert getattr(millscf, name) is not None, name
    # the proof operators and the forward toolkit live in verify (the
    # forward recurrence and its state in millscf.cf), run_suites is
    # verify.run_suites
    for name in ("mills_derivatives", "error_integrand",
                 "second_error_integrand", "sign_operator", "run_suites",
                 "ConvergentState", "InvalidTransformError",
                 "continuant_oracle", "convergents", "equivalence_transform",
                 "eval_doubly_modified", "forward_recurrence"):
        assert name not in names and not hasattr(millscf, name), name


def _outcome(f):
    """f()'s value as a float, or the type of the documented error it raised."""
    try:
        return float(f())
    except (ValueError, ArithmeticError, OracleError) as exc:
        return type(exc)


def _agree(scalar, grid, rel=0.0, scale=0.0):
    """Both routes raised the same error type, or gave values within rel."""
    if isinstance(scalar, type) or isinstance(grid, type):
        return scalar is grid
    return scalar == grid or abs(scalar - grid) <= rel * (abs(scalar) + scale)


# numpy's exp may differ from math.exp by an ulp; in R_n or in phi R and
# phi R_n, which delta subtracts, that is at most 4 ulp of the terms
_EXP_ULPS = 4.0 * 2.0**-52

# 0, a subnormal, tiny and huge points, the floats of
# test_exit_codes_for_any_float_argument, and any other float
_X = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300, math.inf,
                                -math.inf, math.nan, -1.0, 2.5]), st.floats())
# every built-in family, and constant custom tails of either sign (and 0, -0)
_TAILS = st.one_of(st.sampled_from(sorted(FAMILIES)),
                   st.floats(min_value=-10.0, max_value=10.0).map(
                       lambda c: custom(lambda n, x: c)))
_RN_ERRORS = (ValueError, CFEvaluationError, OverflowError)
_LARGEST = 1.7976931348623157e308


def _rn_mp(x, n, family):
    """R_n(x) at 50 digits from the tail's double value."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        t = mpmath.mpf(float(get_family(family).value(n, float(x))))
        for k in range(n, 0, -1):
            t = x + k / t
        return 1 / t


# a negative, a non-integral and a too-deep depth, which both routes refuse
_BAD_DEPTHS = (-1, 2.5, 2**20 + 1)


@settings(max_examples=500, deadline=None)
@given(x=_X, n=st.one_of(st.integers(min_value=0, max_value=60),
                         st.sampled_from(_BAD_DEPTHS)), family=_TAILS)
def test_scalar_and_array_routes_agree(x, n, family):
    # R_n is a positive float, inf only past the largest double, or one of
    # its documented errors; the array route gives the same on one element
    value = _outcome(lambda: mills(x, n, family).value)
    if n in _BAD_DEPTHS:
        assert value is ValueError, (x, n, family, value)
    elif isinstance(value, type):
        assert value in _RN_ERRORS, (x, n, family, value)
    else:
        assert type(mills(x, n, family).value) is float
        assert value > 0.0, (x, n, family, value)
        if value == math.inf:
            assert _rn_mp(x, n, family) > _LARGEST, (x, n, family)
    xs = np.array([x])
    exp_ulps = _EXP_ULPS if family == "improved-expo" else 0.0
    assert _agree(value, _outcome(lambda: mills_grid(xs, n, family)[0]),
                  exp_ulps), (x, n, family)
    assert _agree(_outcome(lambda: reference_mills(x)),
                  _outcome(lambda: reference_mills_grid(xs)[0])), x
    # phi takes numpy's exp on an array, for every family
    tail = _outcome(lambda: reference_tail(x))
    scale = tail if isinstance(tail, float) else 0.0
    assert _agree(_outcome(lambda: delta(x, n, family)),
                  _outcome(lambda: delta(xs, n, family)[0]),
                  _EXP_ULPS, scale), (x, n, family)
