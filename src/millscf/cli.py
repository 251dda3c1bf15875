"""Command line front end.

Subcommands: eval (one point), table (CSV error table), maxerr (per-depth
maximum error report), figure (error-curve CSVs on a fixed grid), verify
(the invariant suites).  Exit codes: 0 success, 1 verification failure,
2 usage, domain, evaluation or allocation error, 3 I/O error.

table and figure evaluate their x-grids as numpy arrays in one call per
column; eval and the refinement inside maxerr work point by point.
"""

import argparse
import sys

# the package before numpy: where no bytecode is cached, the memory spent
# compiling verify.py then lands below numpy's, not on top of it, and the
# process's peak RSS stays about 1.8 MB lower
from . import gauss, verify
from .cf import _check_depth
from .reference import OracleError, reference_mills, reference_mills_grid
from .tails import FAMILIES, custom, get_family

import numpy as np

_FIGURE_DEPTH = {1: 0, 2: 1, 3: 4}
_FIGURE_FAMILIES = ("improved-expo", "linear", "sqrt")

# reported maximum errors for the first four improved-expo depths
_PUBLISHED_MAXERR = {0: 2.1e-4, 1: 4.8e-5, 2: 3.0e-5, 3: 1.6e-5}

# rows per % call and write in _write_csv.  Writing the 20001-row table
# (2-vCPU host, 50 interleaved runs) took a median 122 ms row by row and
# 105-111 ms in blocks of 512, 1024 or 4096 rows, against 97 ms for the
# bare reprs of its cells; past a few hundred rows the size makes no
# difference, and 1024 rows keep a block's text near 70 KB
_CSV_BLOCK = 1024


def _fmt(v):
    # repr of a float is the shortest decimal that round-trips (<= 17 digits)
    return repr(float(v))


def _load_custom_tail(path):
    """Two-column x, beta(x) file -> tail, by monotone cubic interpolation.

    Blank lines are skipped and the first other line may be a header; every
    later line must be two numbers, split by a comma or whitespace, else
    ValueError names the file and the line.
    """
    from scipy.interpolate import PchipInterpolator

    with open(path, "r", encoding="ascii") as fh:
        lines = [(i, line) for i, line in enumerate(fh, 1) if line.strip()]
    xs, bs = [], []
    for k, (i, line) in enumerate(lines):
        try:
            xv, bv = map(float, line.replace(",", " ").split())
        except ValueError:
            if k == 0:
                continue   # the header
            raise ValueError(f"tail file {path!r} line {i} is not two numbers "
                             f"x, beta: {line.strip()!r}") from None
        xs.append(xv)
        bs.append(bv)
    if len(xs) < 2:
        raise ValueError(f"tail file {path!r} needs at least two x,beta rows")
    # slopes between rows near the largest double overflow inside the fit;
    # such a fit is refused below instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        interp = PchipInterpolator(xs, bs)
    if not np.isfinite(interp.c).all():
        raise ValueError(f"tail file {path!r} is too steep to interpolate")

    def value(n, x):
        # arrays on the grid paths, a float for one point
        return interp(x) if isinstance(x, np.ndarray) else float(interp(x))

    return custom(value)


def _resolve_family(args):
    if args.tail_file is not None:
        return _load_custom_tail(args.tail_file)
    return get_family(args.family)


def _write_csv(path, header, columns):
    """The header line, then one row per element of the float arrays in columns.

    Each cell is %r, the repr _fmt gives.  Rows go out in blocks of
    _CSV_BLOCK: a block's cells are interleaved row by row into one list,
    formatted by one % of the row pattern repeated, and written at once, so
    the per-row cost of a % call and a write is paid once per block and the
    table is never held whole.  LF endings and ASCII bytes keep the files
    byte-deterministic.
    """
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = np.column_stack([c[lo:lo + _CSV_BLOCK] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def run_eval(args):
    fam = _resolve_family(args)
    approx = gauss.mills(args.x, args.n, fam)
    ref = reference_mills(args.x)
    print(f"x: {_fmt(args.x)}")
    print(f"family: {approx.family}")
    print(f"n: {approx.n}")
    print(f"value: {_fmt(approx.value)}")
    print(f"bound_side: {approx.bound_side}")
    if approx.trunc_bound is not None:
        print(f"trunc_bound: {_fmt(approx.trunc_bound)}")
    print(f"reference: {_fmt(ref)}")
    print(f"error: {_fmt(approx.value - ref)}")
    return 0


def run_table(args):
    if args.xmax < args.xmin:
        raise ValueError("xmax must be >= xmin")
    if args.step <= 0:
        raise ValueError("step must be > 0")
    fam = _resolve_family(args)
    count = int((args.xmax - args.xmin) / args.step + 1e-9)
    # row k is xmin + k * step; row 0 is xmin itself, never xmin + 0 * step,
    # which is NaN for an infinite step
    xs = np.full(count + 1, args.xmin)
    xs[1:] += np.arange(1, count + 1) * args.step
    values = gauss.mills_grid(xs, args.n, fam)
    refs = reference_mills_grid(xs)
    _write_csv(args.out, "x,approx,reference,error",
               (xs, values, refs, values - refs))
    print(f"wrote {xs.size} rows to {args.out}")
    return 0


def run_maxerr(args):
    nmin = _check_depth(args.nmin, "maxerr --nmin")
    nmax = _check_depth(args.nmax, "maxerr --nmax", lo=nmin)
    fam = _resolve_family(args)
    xmin = 1.0 if fam.kind == "classic" else 0.0
    print(f"family: {fam.kind}  scan [{_fmt(xmin)}, 20.0] step 0.001")
    for n in range(nmin, nmax + 1):
        if fam.value(n, xmin) == 0.0:   # R_n(xmin) is infinite
            print(f"n={n}  undefined: {fam.kind} with n = {n} vanishes "
                  f"at x = {xmin:g}")
            continue
        x_star, worst = gauss.scan_max_delta(fam, n, xmin=xmin)
        decays = gauss.decays_beyond(fam, n)
        line = (f"n={n}  max|error|={worst:.6e}  at x={x_star:.4f}  "
                f"decays beyond scan: {'yes' if decays else 'NO'}")
        if fam.kind == "improved-expo" and n in _PUBLISHED_MAXERR:
            pub = _PUBLISHED_MAXERR[n]
            line += f"  published={pub:.1e}  ratio={worst / pub:.3f}"
        print(line)
    return 0


def run_figure(args):
    n = _FIGURE_DEPTH[args.id]
    columns = list(_FIGURE_FAMILIES)
    fams = {name: name for name in columns}
    if args.tail_file is not None:
        fams["custom"] = _load_custom_tail(args.tail_file)
        columns.append("custom")
    xs = np.arange(601) / 100.0  # x in [0, 6] step 0.01
    # gauss.delta's arithmetic, with the reference tail shared by the columns
    pdf = gauss.phi(xs)
    tail = pdf * reference_mills_grid(xs)
    curves = [tail - pdf * gauss.mills_grid(xs, n, fams[name])
              for name in columns]
    for name, curve in zip(columns, curves):
        # a tail below 1/(the largest double) makes R_0 inf, not an error
        if not np.isfinite(curve).all():
            raise OverflowError(f"the {name} error curve at n={n} is not finite")
    _write_csv(args.out, ",".join(["x"] + columns), [xs] + curves)
    print(f"wrote error curves for depth n={n} to {args.out}")
    return 0


def run_verify(args):
    names = [args.suite] if args.suite else None
    results = verify.run_suites(names)
    failures = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name:<22} {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures} of {len(results)} suites passed")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="millscf",
        description="Gaussian and Gamma Mills ratios from modified "
                    "continued fractions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def family_flags(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--family", choices=sorted(FAMILIES),
                           default="improved-expo")
        group.add_argument("--tail-file",
                           help="two-column x,beta CSV: a custom tail")

    p = sub.add_parser("eval", help="evaluate one point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n", type=int, default=1,
                   help="number of fraction terms kept")
    family_flags(p)
    p.set_defaults(func=run_eval)

    p = sub.add_parser("table", help="CSV table of approx/reference/error")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1,
                   help="number of fraction terms kept")
    family_flags(p)
    p.set_defaults(func=run_table)

    p = sub.add_parser("maxerr", help="per-depth maximum error report")
    p.add_argument("--nmin", type=int, default=0)
    p.add_argument("--nmax", type=int, default=3)
    family_flags(p)
    p.set_defaults(func=run_maxerr)

    p = sub.add_parser("figure", help="error-curve CSV on the [0,6] grid")
    p.add_argument("--id", type=int, required=True, choices=sorted(_FIGURE_DEPTH))
    p.add_argument("--out", required=True)
    p.add_argument("--tail-file",
                   help="optional custom tail to plot alongside the built-ins")
    p.set_defaults(func=run_figure)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", help="run a single named suite")
    p.set_defaults(func=run_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # CFEvaluationError and ConvergenceError are ArithmeticErrors; a table
    # too large to allocate is numpy's MemoryError
    except (ValueError, ArithmeticError, OracleError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
