#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

1. A deliberately wrong reference answer makes a run fail: judged in this
   process, one round of count-deep has no failed op against the recorded
   answers and a failed op against a copy with one answer changed (a run
   with a failed op prints ``"correct": false`` and exits 1).
2. Tracing changes no answer: for every workload, ``--trace 0`` and
   ``--trace 1`` print the same answers digest (each traced run also
   compares its traced rounds with its untraced ones).
3. In a directory holding only BENCHMARK.json and ``bench/``, the benchmark
   exits non-zero without printing a result.

Runs take about a minute and a half; files go to ``bench/out/``.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("count-deep", "sweep-grid", "spectral-curves")


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1"]
                          + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def digest(lines):
    return next(line.split()[-1] for line in lines if line.startswith("# answers_sha256"))


def corrupted_reference_fails():
    """Judge one round of count-deep in this process against the recorded
    answers and against a copy with one answer changed."""
    run.pin_environment()
    import checks as C
    import workloads as W
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    corrupted = copy.deepcopy(reference)
    corrupted["workloads"]["count-deep"]["answers"][0]["n"] += 1
    wl = W.build("count-deep", W.REFERENCE_SEED)
    rounds = [run.run_round(wl, False, None, False)]
    failed_right, _ = run.judge(wl, rounds, reference, W, C)
    failed_wrong, _ = run.judge(wl, rounds, corrupted, W, C)
    return failed_right == 0 and failed_wrong >= 1


def tracing_changes_nothing(name):
    code0, lines0 = bench(["--workload", name, "--trace", "0"])
    code1, lines1 = bench(["--workload", name, "--trace", "1"])
    return code0 == 0 and code1 == 0 and digest(lines0) == digest(lines1)


def bare_directory_fails():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = bench(["--workload", "count-deep"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return code != 0 and result(lines) is None


def main():
    OUT.mkdir(exist_ok=True)
    outcomes = {"wrong reference answer fails the run": corrupted_reference_fails()}
    for name in NAMES:
        outcomes[f"tracing changes no answer on {name}"] = tracing_changes_nothing(name)
    outcomes["no package: non-zero exit, no result"] = bare_directory_fails()
    for what, ok in outcomes.items():
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
    return 0 if all(outcomes.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
