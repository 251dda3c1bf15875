"""One millscf process driven by the harness: the program under test.

Reads one JSON job on stdin and writes one JSON result on stdout.  The job
holds only generated inputs; this process makes the calls and times them,
and the harness checks the outputs afterwards.  millscf is imported from
the checkout's `src/`, never from an installed copy.

Job kinds:
  calls    {"workload": "point"|"gamma", "inputs": [...], "seconds": S,
            "trace": bool}: one untimed warm-up pass whose outputs are
            returned, then timed passes over the same inputs until S seconds
            have passed (at least three).  Returns each pass's wall time and
            each call's best time.  With trace, untraced and traced passes
            alternate.
  command  {"argv": [...], "trace": bool}: one CLI invocation through
            millscf.cli.main, timed after the import.
"""

import contextlib
import io
from array import array
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import millscf  # noqa: E402
from millscf import cli  # noqa: E402

from tracer import GAMMA_FORMS, Tracer  # noqa: E402

_clock = time.perf_counter
MIN_PASSES = 3


def _bind(workload, inputs):
    """Inputs as (function, args) pairs, resolved before a pass is timed.

    Resolved again for every pass, so traced passes call the wrappers.
    """
    if workload == "point":
        return [(millscf.mills, (x, n, family)) for x, n, family in inputs]
    forms = {name: getattr(millscf, name) for name in GAMMA_FORMS}
    return [(forms[form], (s, x) if n is None else (s, x, n))
            for form, s, x, n in inputs]


def _run_pass(job, lat, out):
    calls = _bind(job["workload"], job["inputs"])
    # exceptions are outcomes here: the harness counts every raise as a failure
    t_pass = _clock()
    for i, (fn, args) in enumerate(calls):
        t0 = _clock()
        try:
            r = fn(*args)
        except Exception as exc:  # noqa: BLE001 - recorded, checked by the harness
            r = type(exc)
        lat[i] = _clock() - t0
        out[i] = r
    return {"wall_s": _clock() - t_pass}


def _encode(r):
    if isinstance(r, type):
        return {"raised": r.__name__}
    if isinstance(r, tuple):
        return list(r)
    if isinstance(r, float):
        return r
    return [r.value, r.bound_side, r.trunc_bound]   # gauss.Approximation


def run_calls(job):
    k = len(job["inputs"])
    # unboxed doubles: a list would keep float objects of every pass alive,
    # scattered over the heap, and the peak RSS would grow with the run
    lat = array("d", bytes(8 * k))
    first = [None] * k
    _run_pass(job, lat, first)            # warm-up; its outputs get checked
    out = [None] * k
    # each input's best untraced time: a call hit by the host's interference
    # in one pass is timed cleanly in another
    best = array("d", [math.inf]) * k
    passes, traces, mismatches = [], [], 0
    start = _clock()
    while len(passes) < MIN_PASSES or _clock() - start < job["seconds"]:
        tracer = None
        if job["trace"] and len(passes) % 2 == 1:
            tracer = Tracer()
            uninstall = tracer.install()
        try:
            rec = _run_pass(job, lat, out)
        finally:
            if tracer is not None:
                uninstall()
        rec["traced"] = tracer is not None
        passes.append(rec)
        if tracer is not None:
            traces.append(tracer.summary())
        else:
            best = array("d", map(min, best, lat))
        mismatches += out != first
    return {"passes": passes, "traces": traces, "mismatches": mismatches,
            "best_s": best.tolist(),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "outputs": [_encode(r) for r in first]}


def run_command(job):
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    buf = io.StringIO()
    error = None
    t0 = _clock()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:       # argparse usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a CLI traceback is a failed command
            code, error = None, repr(exc)
    work_s = _clock() - t0
    return {"exit": code, "error": error, "work_s": work_s, "stdout": buf.getvalue(),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.summary() if tracer is not None else None}


def main():
    if not os.path.abspath(millscf.__file__).startswith(SRC + os.sep):
        sys.exit(f"millscf imported from {millscf.__file__}, not from {SRC}")
    job = json.load(sys.stdin)
    result = run_command(job) if "argv" in job else run_calls(job)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
