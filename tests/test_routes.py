"""The scalar routes load no numpy, and agree with the array routes."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

import millscf
from millscf import FAMILIES, delta, mills, mills_grid
from millscf.reference import (OracleError, reference_mills,
                               reference_mills_grid, reference_tail)

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
    assert len(names) == len(set(names)) == 38
    for name in names:
        assert getattr(millscf, name) is not None, name
    # the proof operators live in verify, run_suites is verify.run_suites
    for name in ("mills_derivatives", "error_integrand",
                 "second_error_integrand", "sign_operator", "run_suites"):
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

# 0, a subnormal, tiny and huge points, and any other float (inf, nan and
# negatives included)
_X = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e300]), st.floats())


@settings(max_examples=300, deadline=None)
@given(x=_X, n=st.integers(min_value=0, max_value=60),
       family=st.sampled_from(sorted(FAMILIES)))
def test_scalar_and_array_routes_agree(x, n, family):
    xs = np.array([x])
    exp_ulps = _EXP_ULPS if family == "improved-expo" else 0.0
    assert _agree(_outcome(lambda: mills(x, n, family).value),
                  _outcome(lambda: mills_grid(xs, n, family)[0]),
                  exp_ulps), (x, n, family)
    assert _agree(_outcome(lambda: reference_mills(x)),
                  _outcome(lambda: reference_mills_grid(xs)[0])), x
    # phi takes numpy's exp on an array, for every family
    tail = _outcome(lambda: reference_tail(x))
    scale = tail if isinstance(tail, float) else 0.0
    assert _agree(_outcome(lambda: delta(x, n, family)),
                  _outcome(lambda: delta(xs, n, family)[0]),
                  _EXP_ULPS, scale), (x, n, family)
