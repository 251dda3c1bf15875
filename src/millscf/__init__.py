"""Gaussian and Gamma Mills ratios via modified continued fractions."""

from .cf import CFEvaluationError, CFSpec, eval_backward
from .tails import FAMILIES, beta0, custom, get_family, mod_constants
from .gauss import (
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
from .gamma import (
    ConvergenceError,
    bounds_s01,
    cf_l1,
    gamma_mills,
    laguerre,
    lower_cf,
    reduce_s,
    winitzki_cf,
)
from .reference import (
    OracleError,
    reference_gamma_mills,
    reference_mills,
    reference_mills_grid,
    reference_tail,
)

__version__ = "0.1.0"

__all__ = [
    "CFEvaluationError",
    "CFSpec",
    "ConvergenceError",
    "FAMILIES",
    "OracleError",
    "asymptotic_series",
    "beta0",
    "bounds_s01",
    "cf_l1",
    "custom",
    "decays_beyond",
    "delta",
    "eval_backward",
    "gamma_mills",
    "get_family",
    "hazard",
    "laguerre",
    "lower_cf",
    "mills",
    "mills_grid",
    "mod_constants",
    "pade_r2",
    "phi",
    "reduce_s",
    "reference_gamma_mills",
    "reference_mills",
    "reference_mills_grid",
    "reference_tail",
    "scan_max_delta",
    "taylor_mills",
    "truncation_bound",
    "winitzki_cf",
]
