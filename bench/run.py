#!/usr/bin/env python3
"""tractal benchmark: one workload per invocation, measured in this process.

    python3 bench/run.py --workload count-deep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src``.  A run
first starts fresh processes, one at a time, that import tractal and build
the workload (``setup_s``), then runs rounds of the workload's ops with one
closed-loop caller until ``--seconds`` have passed, then checks every answer
outside the timed region.  It prints one line per metric and, last, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a wrong
answer makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (sweep-grid calls ``tractal.cli.main`` in-process
in both), reports the per-layer metrics and the tracing overhead, and writes
every span to ``bench/out/``.  See ``bench/README.md`` for the metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# Speed correction.  Other tenants of a shared VM slow it down by up to 1.8x
# for a fraction of a second to minutes at a time.  The benchmark times a
# fixed loop of its own (SPEED_LOOP passes of three small numpy calls, fastest
# of SPEED_REPS) before and after each op and each set-up probe, and scales the
# op's time by SPEED_REF_S / the mean of the two.  SPEED_REF_S is about the loop's time on
# a 2-core Xeon VM in a quiet minute, so the times read as seconds there.
SPEED_LOOP = 40
SPEED_REPS = 3
SPEED_REF_S = 5e-5


def pin_environment():
    """Fix BLAS threads and the package path for this process and children.

    Runs before numpy is imported.  TRACTAL_THREADS is cleared; only the
    threaded sweep-grid commands set it.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("TRACTAL_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment_record():
    import numpy
    import scipy
    sources = sorted((SRC / "tractal").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": _git_sha(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "tractal_threads": "unset; 2 for threaded sweeps"}


def _git_sha():
    """HEAD of the checkout if it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except OSError:   # no git installed
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(argv, names, default_seed):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=default_seed)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def speed_sample():
    """The fastest of SPEED_REPS timings of a loop of numpy calls on a short
    array, the kind of call the package makes most.  On a noisy machine an
    op's time follows this loop's much more closely than a pure-Python one's."""
    import numpy as np   # only after pin_environment
    x = np.linspace(0.1, 1.0, 64)
    best = float("inf")
    for _ in range(SPEED_REPS):
        t0 = time.perf_counter()
        for _ in range(SPEED_LOOP):
            (x * 0.5 > 0.3).argmin()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(before, after):
    return 2.0 * SPEED_REF_S / (before + after)


def measure_setup(args):
    """Median speed-corrected time for a fresh process to import tractal and
    build the workload; also the raw times."""
    times, raw = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        before = speed_sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed * speed_scale(before, speed_sample()))
        raw.append(elapsed)
    return statistics.median(times), raw


def cache_clearers():
    """cache_clear of every memoized function in the package, so each round
    starts with the program's caches empty, as a fresh process does."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "tractal" or name.startswith("tractal."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


class Round:
    def __init__(self, traced):
        self.traced = traced
        self.wall = 0.0
        self.results = []   # (latency_s, answer or None, error or None) per op
        self.scales = []    # speed_scale around each op


def run_round(wl, in_process, tracer, traced):
    rnd = Round(traced)
    t0 = time.perf_counter()
    speed = speed_sample()
    if traced:
        with tracer.span("bench.round"):
            for op in wl.ops:
                with tracer.span("bench.op", op.index):
                    rnd.results.append(_timed_op(wl, op, in_process))
                ans = rnd.results[-1][1]
                if op.kind == "sweep" and ans is not None:
                    tracer.counts["cli.csv_bytes"] += len(ans["_csv"].encode())
                after = speed_sample()
                rnd.scales.append(speed_scale(speed, after))
                speed = after
    else:
        for op in wl.ops:
            rnd.results.append(_timed_op(wl, op, in_process))
            after = speed_sample()
            rnd.scales.append(speed_scale(speed, after))
            speed = after
    rnd.wall = time.perf_counter() - t0
    return rnd


def _timed_op(wl, op, in_process):
    t0 = time.perf_counter()
    try:
        answer, error = wl.execute(op, in_process), None
    except Exception as exc:  # the loop keeps going; the op counts as failed
        answer, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, answer, error


def judge(wl, rounds, reference, W, C):
    """Check every answer; return the failed op executions and notes."""
    n_ops = len(wl.ops)
    base = [None] * n_ops
    for rnd in rounds:
        for i, (_, ans, _) in enumerate(rnd.results):
            if base[i] is None and ans is not None:
                base[i] = ans
    report = C.Report()
    notes = []
    if C.reference_checks(wl, base, reference, report):
        notes.append(f"reference answers of seed {wl.seed}: compared")
    else:
        notes.append(f"no recorded answers for seed {wl.seed}: oracle checks only")
    C.oracle_checks(wl, base, report)
    prints = [W.fingerprint(a) if a is not None else None for a in base]
    failed = 0
    errors = {}
    for rnd in rounds:
        for i, (_, ans, err) in enumerate(rnd.results):
            bad = err is not None or i in report.failures or W.fingerprint(ans) != prints[i]
            if err is not None:
                errors.setdefault(i, err)
            failed += bad
    for i, err in sorted(errors.items()):
        notes.append(f"op {i} {wl.ops[i].kind} {wl.ops[i].params}: {err}")
    for i, msgs in sorted(report.failures.items()):
        notes.append(f"op {i} {wl.ops[i].kind} {wl.ops[i].params}: {'; '.join(msgs[:3])}")
    notes.insert(0, f"checks made: {report.checks}, ops failing a check: "
                    f"{len(report.failures)}")
    return failed, notes


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def corrected(rnd):
    """The round's op latencies, speed-corrected."""
    return [res[0] * scale for res, scale in zip(rnd.results, rnd.scales)]


def op_latencies(rounds):
    """Each op's median speed-corrected latency over the rounds."""
    return [statistics.median(times) for times in zip(*map(corrected, rounds))]


def round_wall(rounds):
    """Mean over the rounds of the sum of their speed-corrected op latencies:
    a round's time without the speed samples between its ops."""
    return statistics.fmean(sum(corrected(rnd)) for rnd in rounds)


def end_to_end(wl, rounds, setup):
    """The end-to-end metrics of an untraced run: wall_s is the mean round
    time, an op's latency its median over the rounds, and the percentiles are
    taken over the ops; all times are speed-corrected."""
    wall = round_wall(rounds)
    lat_ms = [t * 1e3 for t in op_latencies(rounds)]
    work = sum(op.work for op in wl.ops)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = [ans["_peak_rss_kb"] for rnd in rounds for _, ans, _ in rnd.results
                if ans is not None and "_peak_rss_kb" in ans]
    if children:   # sweep-grid's commands run in child processes
        rss_kb += max(children)
    p90 = percentile(lat_ms, 90)
    return {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (work / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }, sum(t > p90 for t in lat_ms)


def main(argv=None):
    if not (SRC / "tractal" / "__init__.py").is_file():
        print(f"error: no tractal package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    pin_environment()
    import workloads as W
    args = parse_args(argv, W.NAMES, W.REFERENCE_SEED)
    if args.setup_probe:
        W.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import checks as C
    import tracer as T

    env = environment_record()
    setup, probe_times = measure_setup(args)
    wl = W.build(args.workload, args.seed)
    clearers = cache_clearers()
    tracer = T.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    rounds = []
    with tempfile.TemporaryDirectory(dir=OUT, prefix="families-") as tmp:
        wl.write_family_files(tmp)
        start = time.perf_counter()
        min_rounds = 2 if args.trace else 1
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            for clear in clearers:
                clear()
            gc.collect()
            if traced:
                tracer.install()
            try:
                rounds.append(run_round(wl, bool(args.trace), tracer, traced))
            finally:
                if traced:
                    tracer.uninstall()
                    tracer.end_round()
        if not args.trace:   # read peak memory before the checks allocate
            metrics, beyond = end_to_end(wl, rounds, setup)
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        failed, notes = judge(wl, rounds, reference, W, C)

    attempted = len(rounds) * len(wl.ops)
    print(f"# tractal benchmark: workload={wl.name} seed={wl.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# {len(rounds)} rounds of {len(wl.ops)} ops; raw set-up probes "
          + ", ".join(f"{t:.3f}" for t in probe_times) + " s")
    print("# speed correction per round (median scale, raw op time s): "
          + ", ".join(f"{statistics.median(r.scales):.3f} {sum(res[0] for res in r.results):.3f}"
                      for r in rounds))
    print(f"# answers_sha256 {answers_digest(rounds, W)}")
    for note in notes:
        print(f"# {note}")
    if args.trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        overhead = round_wall(traced) / round_wall(untraced) - 1.0
        cmd_threads = {op.index: op.params.get("threads") for op in wl.ops}
        metrics = T.layer_metrics(tracer, traced, overhead, cmd_threads)
        path = OUT / f"trace-{wl.name}-seed{wl.seed}.json.gz"
        tracer.write(path, env)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
              "work counts are computed from arguments and results")
    else:
        print(f"# wall_s: mean of {len(rounds)} rounds; op latency: median of "
              f"{len(rounds)} per op; percentiles over {len(wl.ops)} ops, {beyond} beyond p90")
    print(f"{'failed_frac':<28} {failed / attempted:<14.6g} fraction "
          f"({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:<14.6g} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def answers_digest(rounds, W):
    """A digest of the first traced round's answers, or of the first round's
    without tracing; the self-test compares it across trace modes."""
    rnd = next((r for r in rounds if r.traced), rounds[0])
    h = hashlib.sha256()
    for _, ans, err in rnd.results:
        h.update((W.fingerprint(ans) if ans is not None else f"error:{err}").encode())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
