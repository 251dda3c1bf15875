"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 perfbench/smoke.py

For each workload it makes two short traced runs on one seed and asserts
that both complete, find nothing outside the documented baseline failures,
and report the same count metrics bit for bit.  It then copies only
BENCHMARK.json and perfbench/ into a scratch directory inside the checkout
and asserts that the benchmark refuses to run there.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BARE = os.path.join(ROOT, ".bench_work_smoke")

EXACT_SUFFIXES = (".calls", ".levels", ".raised", ".wrong", "reuse_share", "failed_share")


def run(cwd, workload, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def exact_metrics(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith(EXACT_SUFFIXES)}


def main():
    for workload in ("repro", "point", "gamma"):
        first = exact_metrics(run(ROOT, workload))
        second = exact_metrics(run(ROOT, workload))
        assert first == second, f"{workload}: count metrics differ between runs"
        print(f"ok  {workload}: {len(first)} count metrics repeat exactly")

    shutil.rmtree(BARE, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(BARE, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
        proc = run(BARE, "point")
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("ok  without src/millscf the benchmark exits", proc.returncode)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)


if __name__ == "__main__":
    main()
