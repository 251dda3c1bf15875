"""millscf benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload point --seed 1 --seconds 34 --trace 0

Run from anywhere; the checkout is the directory above this file, and
millscf is imported from its `src/`.  Workloads (see workloads.py and
README.md): `repro` runs the paper's CLI reproduction, one command per
fresh interpreter; `point` makes scalar `mills` calls; `gamma` evaluates
the Gamma Mills ratio forms.  Each is a closed loop with one caller.

With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 untraced and traced passes alternate and it
carries the per-layer metrics.  The same line reports how many operations
were attempted and failed, and whether every failure is one the seed
baseline documents (`correct`).  Point and gamma timings are best
observed values (the fastest pass; quantiles of each call's best time):
other tenants of the host only ever slow a call down.  Repro times whole
reproductions and reports medians over passes (see run_repro); it checks
and counts each command.

Exit status is 0 when the run completed (whatever the checks found) and 1
when it could not run, e.g. when `src/millscf` is missing.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads
from tracer import CLI_COMMANDS, GAMMA_FORMS, ORACLE, ORACLE_BANDS, SCAN

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKDIR = os.path.join(ROOT, ".bench_work")

RUN_LIMIT_S = 170.0
SETUP_BATCH = 3         # imports per set-up sample; the sample is the fastest
RUN_SEGMENTS = 3        # point/gamma worker processes per run; set-up is sampled between
CALIBRATION_ITERATIONS = 1_000_000

_clock = time.perf_counter


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Deadline:
    def __init__(self, seconds):
        self.end = _clock() + seconds

    def left(self):
        left = self.end - _clock()
        if left <= 0:
            raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        return left


def calibrate():
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = _clock()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return _clock() - t0


def import_times(deadline, repeats):
    """Wall times of fresh interpreters importing millscf."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {SRC!r}); import millscf"]
    times = []
    for _ in range(repeats):
        t0 = _clock()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=deadline.left())
        if proc.returncode != 0:
            raise HarnessError(f"importing millscf failed:\n{proc.stderr}")
        times.append(_clock() - t0)
    return times


class SetupTimer:
    """Set-up time sampled before, during and after the workload.

    Each sample is the fastest of a few imports in a row, and the run
    reports the median over samples, so neither a short stall nor one slow
    stretch of the host decides the figure.  Disabled in traced runs.
    """

    def __init__(self, deadline, enabled):
        self.deadline = deadline
        self.enabled = enabled
        self.samples = []
        self.last = _clock()

    def sample(self):
        if self.enabled:
            self.samples.append(min(import_times(self.deadline, SETUP_BATCH)))
        self.last = _clock()

    def value(self):
        return statistics.median(self.samples)


# A process's peak RSS starts at the peak of the process that exec'd it, so
# workers are started by a small launcher: the peak they report is their own,
# not the harness's.
_LAUNCH = ("import subprocess, sys; "
           "sys.exit(subprocess.run([sys.executable] + sys.argv[1:]).returncode)")


def run_worker(job, deadline):
    timeout = deadline.left()
    # -S: the launcher needs no site-packages, and skipping them saves a
    # tenth of the per-command overhead
    proc = subprocess.Popen([sys.executable, "-S", "-c", _LAUNCH, WORKER],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the launcher and its worker
        proc.communicate()
        raise HarnessError(f"run exceeded {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker failed:\n{err[-4000:]}")
    return json.loads(out)


def quantile(values, p):
    ordered = sorted(values)
    i = p * (len(ordered) - 1)
    lo = int(i)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (i - lo)


def merge_traces(traces):
    """Sum the trace summaries of several processes (one per CLI command)."""
    spans, counts, edges, in_scan = {}, {}, {}, 0.0
    for t in traces:
        for parent, child, n in t["edges"]:
            edges[parent, child] = edges.get((parent, child), 0) + n
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        in_scan += t["oracle_in_scan_s"]
    return {"spans": spans, "counts": counts, "oracle_in_scan_s": in_scan,
            "edges": [[p, c, n] for (p, c), n in sorted(edges.items())]}


def count_fingerprint(trace):
    """The exact part of a trace: every call count and work counter."""
    calls = {name: rec["calls"] for name, rec in trace["spans"].items()}
    return json.dumps([calls, trace["counts"]], sort_keys=True)


class Outcome:
    """Checked operations of a run, with the reason of every unexpected failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.by_form = {}

    def add(self, verdict, known=False, form=None):
        self.attempted += 1
        if form is not None:
            rec = self.by_form.setdefault(form, {"raised": 0, "wrong": 0})
        if verdict is None:
            return
        self.failed += 1
        if form is not None:
            rec[verdict[0]] += 1
        if not known:
            self.unexpected.append(verdict[1])


# ---------------------------------------------------------------- workloads

def run_calls(name, seed, seconds, trace, deadline, outcome, setup):
    inputs = (workloads.point_inputs if name == "point" else workloads.gamma_inputs)(seed)
    chunks = []
    setup.sample()
    for _ in range(RUN_SEGMENTS):
        chunks.append(run_worker({"workload": name, "inputs": inputs, "trace": trace,
                                  "seconds": seconds / RUN_SEGMENTS}, deadline))
        setup.sample()
    outputs = chunks[0]["outputs"]
    if name == "point":
        for verdict in checks.check_point(inputs, outputs):
            outcome.add(verdict)
    else:
        for item, out, verdict in zip(inputs, outputs, checks.check_gamma(inputs, outputs)):
            known = verdict is not None and checks.known_gamma_failure(item, out, verdict)
            outcome.add(verdict, known, form=item[0])
    mismatches = (sum(c["mismatches"] for c in chunks)
                  + sum(c["outputs"] != outputs for c in chunks[1:]))
    if mismatches:
        outcome.unexpected.append(
            f"{mismatches} passes or processes returned other outputs than the first")
    passes = [p for c in chunks for p in c["passes"]]
    traces = iter([t for c in chunks for t in c["traces"]])
    traced = [(p["wall_s"], next(traces)) for p in passes if p["traced"]]
    best_wall = min(p["wall_s"] for p in passes if not p["traced"])
    best_call = list(map(min, *(c["best_s"] for c in chunks)))
    return {
        "ops_per_s": len(inputs) / best_wall,
        "op_us_p50": 1e6 * quantile(best_call, 0.5),
        "op_us_p99": 1e6 * quantile(best_call, 0.99),
        "peak_rss_mb": max(c["rss_kb"] for c in chunks) / 1024.0,
        "plain_s": best_wall,
        "traced": traced,
    }


def _command_key(argv):
    return argv[0] + (argv[2] if argv[0] == "figure" else "")


def run_repro(seed, seconds, trace, deadline, outcome, setup):
    """One operation is one reproduction: the six commands, each in a fresh
    interpreter, timed without their imports.

    Its times are medians and quantiles over the run's untraced passes, not
    best passes: the 40-90 ms figure and verify commands run up to 1.8x
    slower while the host is busy, for minutes at a time, so a best time
    depends on whether a quiet moment fell into the run, while a pass of
    about 2.5 s of work averages over the host's faster and slower moments.
    """
    cmds = workloads.repro_commands(seed, WORKDIR)
    best = {}                       # command -> best untraced work seconds
    plain_totals, pass_rss, traced = [], [], []
    setup.sample()
    start = _clock()
    while len(plain_totals) < 2 or _clock() - start < seconds:
        tracing = trace and len(plain_totals) > len(traced)
        results = []
        for argv in cmds:
            res = run_worker({"argv": argv, "trace": tracing}, deadline)
            outcome.add(checks.check_command(argv, res))
            results.append(res)
        total = sum(r["work_s"] for r in results)
        if tracing:
            traced.append((total, merge_traces([r["trace"] for r in results])))
            continue
        plain_totals.append(total)
        pass_rss.append(max(r["rss_kb"] for r in results))
        for argv, r in zip(cmds, results):
            key = _command_key(argv)
            best[key] = min(best.get(key, r["work_s"]), r["work_s"])
        if _clock() - setup.last >= seconds / RUN_SEGMENTS:
            setup.sample()
    setup.sample()
    ops = list(best.values())
    return {
        "ops_per_s": len(plain_totals) / sum(plain_totals),
        "op_us_p50": 1e6 * statistics.median(plain_totals),
        "op_us_p99": 1e6 * quantile(plain_totals, 0.99),
        "peak_rss_mb": statistics.median(pass_rss) / 1024.0,
        "plain_s": min(plain_totals),
        "traced": traced,
        "repro.total_s": sum(ops),
        "repro.maxerr_s": best["maxerr"],
        "repro.table_s": best["table"],
    }


# ------------------------------------------------------------------ metrics

def layer_metrics(run, fastest, outcome, calib, declared):
    """Per-layer metrics from the fastest traced pass, a (seconds, trace) pair."""
    prints = {count_fingerprint(t) for _, t in run["traced"]}
    if len(prints) != 1:
        outcome.unexpected.append("count metrics differ between traced passes")
    wall, trace = fastest
    spans, counts = trace["spans"], trace["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    m = {}
    for name in ("cf.eval_backward", "cf.forward_recurrence"):
        m[name + ".calls"] = span(name, "calls")
        m[name + ".levels"] = counts.get(name + ".levels", 0)
        m[name + ".self_s"] = span(name, "self_s")
    m["tails.get_family.calls"] = span("tails.get_family", "calls")
    m["tails.get_family.self_s"] = span("tails.get_family", "self_s")
    m["tails.mod_constants.calls"] = counts.get("tails.mod_constants.calls", 0)
    m["tails.beta0.calls"] = counts.get("tails.beta0.calls", 0)
    m["tails.value.calls"] = span("tails.value", "calls")
    m["tails.value.self_s"] = span("tails.value", "self_s")
    m["gauss.mills.calls"] = span("gauss.mills", "calls")
    m["gauss.mills.self_s"] = span("gauss.mills", "self_s")
    m["gauss.delta.calls"] = span("gauss.delta", "calls")
    scan_s = span(SCAN, "s")
    m["gauss.scan_max_delta.s"] = scan_s
    m["gauss.scan.oracle_share"] = trace["oracle_in_scan_s"] / scan_s if scan_s else 0.0
    oracle_calls = 0
    for band in ORACLE_BANDS:
        m[f"{ORACLE}.{band}.calls"] = span(f"{ORACLE}.{band}", "calls")
        m[f"{ORACLE}.{band}.self_s"] = span(f"{ORACLE}.{band}", "self_s")
        oracle_calls += m[f"{ORACLE}.{band}.calls"]
    reused = counts.get(ORACLE + ".reused", 0)
    m["reference.reuse_share"] = reused / oracle_calls if oracle_calls else 0.0
    for form in GAMMA_FORMS:
        m[f"gamma.{form}.calls"] = span("gamma." + form, "calls")
        m[f"gamma.{form}.s"] = span("gamma." + form, "s")
        failures = outcome.by_form.get(form, {})
        m[f"gamma.{form}.raised"] = failures.get("raised", 0)
        m[f"gamma.{form}.wrong"] = failures.get("wrong", 0)
    m["gamma.levels"] = counts.get("gamma.levels", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = span("cli." + cmd, "self_s")
    for name in declared:
        if name.startswith("verify."):
            m[name] = span(name[:-len(".s")], "s")
    m["trace.overhead_share"] = wall / run["plain_s"] - 1.0
    for key in ("repro.total_s", "repro.maxerr_s", "repro.table_s"):
        m[key] = run.get(key, 0.0)
    m["failed_share"] = outcome.failed / outcome.attempted
    m["host.calib_before_s"], m["host.calib_after_s"] = calib
    return m


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("repro", "point", "gamma"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not os.path.isfile(os.path.join(SRC, "millscf", "__init__.py")):
        raise HarnessError(f"no millscf package under {SRC}")
    declared = declared_metrics(trace)
    deadline = Deadline(RUN_LIMIT_S)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        import_times(deadline, 1)      # the first import also writes bytecode
        setup = SetupTimer(deadline, enabled=not trace)
        calib = [calibrate()]
        outcome = Outcome()
        if args.workload == "repro":
            run = run_repro(args.seed, args.seconds, trace, deadline, outcome, setup)
        else:
            run = run_calls(args.workload, args.seed, args.seconds, trace,
                            deadline, outcome, setup)
        calib.append(calibrate())
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if trace:
        fastest = min(run["traced"], key=lambda p: p[0])
        values = layer_metrics(run, fastest, outcome, calib, declared)
        print("span links of the fastest traced pass (parent -> child: calls)")
        for parent, child, n in fastest[1]["edges"]:
            print(f"  {parent} -> {child}: {n}")
    else:
        values = {key: run[key] for key in
                  ("ops_per_s", "op_us_p50", "op_us_p99", "peak_rss_mb")}
        values["ok_share"] = 1.0 - outcome.failed / outcome.attempted
        values["setup_s"] = setup.value()
    if set(values) != set(declared):
        raise HarnessError(
            f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")

    print(f"host calibration: {calib[0]:.4f} s before, {calib[1]:.4f} s after")
    print(f"{args.workload}: {outcome.failed} of {outcome.attempted} operations failed, "
          f"{len(outcome.unexpected)} outside the documented baseline failures")
    for reason in outcome.unexpected[:10]:
        print("  unexpected:", reason)
    metrics = {name: {"value": values[name], "unit": declared[name]["unit"]}
               for name in declared}
    print(json.dumps({"correct": not outcome.unexpected, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
