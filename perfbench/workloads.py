"""Seeded inputs for the three workloads.  The same seed gives the same inputs.

point   scalar `mills(x, n, family)` calls by family name, 3000 per family:
        n is 0-12 for 85 % of calls and 13-60 otherwise, x is log-uniform
        on [1e-3, 30], and 5 % of calls sit at x = 0 where the family is
        defined there.
gamma   adaptive `laguerre`, `cf_l1`, `winitzki_cf` (a quarter each), and in
        the last quarter `reduce_s` for s > 1 or `bounds_s01` (depth 1-40)
        for s <= 1; s is log-uniform on [1e-2, 50] and x on [1e-2, 1e2].
        The domain is not trimmed to where the forms work.
repro   the paper's reproduction from the shell: maxerr 0..3, the [0, 20]
        step 1e-3 table, figures 1-3 and verify, each in a fresh interpreter.
        The seed picks the command order and the table's depth.
"""

import math
import random

FAMILIES = ("classic", "limit-ansatz", "sqrt", "linear", "lee",
            "shift-linear", "improved-expo")

POINT_CALLS = 21000         # 3000 per family
GAMMA_CALLS = 4000


def _strata(rng, k):
    """k uniforms on [0, 1), one in each interval [j/k, (j+1)/k), shuffled.

    Every seed then draws the same distribution almost exactly, so seeds
    differ in their points but not in their mix of cheap and costly calls.
    """
    u = [(j + rng.random()) / k for j in range(k)]
    rng.shuffle(u)
    return u


def _log_uniform(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _defined_at_zero(family, n):
    return family != "classic" and not (family == "limit-ansatz" and n == 0)


def point_inputs(seed):
    rng = random.Random(seed)
    k = POINT_CALLS
    fams, us_n, us_x = _strata(rng, k), _strata(rng, k), _strata(rng, k)
    out = []
    for uf, un, ux in zip(fams, us_n, us_x):
        family = FAMILIES[int(uf * len(FAMILIES))]
        n = int(un / 0.85 * 13) if un < 0.85 else 13 + int((un - 0.85) / 0.15 * 48)
        if ux < 0.05 and _defined_at_zero(family, n):
            x = 0.0
        else:
            x = _log_uniform(ux / 0.05 if ux < 0.05 else (ux - 0.05) / 0.95, 1e-3, 30.0)
        out.append([x, n, family])
    return out


def gamma_inputs(seed):
    rng = random.Random(seed)
    k = GAMMA_CALLS
    out = []
    for uf, us, ux in zip(_strata(rng, k), _strata(rng, k), _strata(rng, k)):
        s = _log_uniform(us, 1e-2, 50.0)
        x = _log_uniform(ux, 1e-2, 1e2)
        form = ("laguerre", "cf_l1", "winitzki_cf", "split")[int(uf * 4)]
        n = None
        if form == "split":
            form = "reduce_s" if s > 1.0 else "bounds_s01"
            if form == "bounds_s01":
                n = rng.randint(1, 40)
        out.append([form, s, x, n])
    return out


def repro_commands(seed, workdir):
    """The CLI argument lists of one reproduction, in the seed's order."""
    rng = random.Random(seed)
    cmds = [
        ["maxerr", "--nmin", "0", "--nmax", "3"],
        ["table", "--xmin", "0", "--xmax", "20", "--step", "0.001",
         "--n", str(rng.randint(0, 3)), "--out", f"{workdir}/table.csv"],
        ["verify"],
    ]
    cmds += [["figure", "--id", str(i), "--out", f"{workdir}/figure{i}.csv"]
             for i in (1, 2, 3)]
    rng.shuffle(cmds)
    return cmds
