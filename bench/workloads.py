"""Seeded inputs and operations of the benchmark's three workloads.

Each workload is a fixed list of ops built from the seed.  One round runs
every op once, in order, with a single caller that starts an op only after
the previous one returned (a closed loop with one client).  The seed jitters
family parameters and accuracies by a few percent and shuffles the order, so
the inputs change with the seed while the work per round hardly does: the
spread of the timings across seeds is then the machine's, not the inputs'.

count-deep       200 ``info_complexity`` queries (korobov with power weights,
                 gaussian with a power-law shape, analytic korobov; abs and
                 nor; d from 5 to 60, so both the direct mode (d <= 30) and
                 the log-space mode run), the ROADMAP anchor query, and a
                 query whose threshold lies exactly on tied products.
                 Threshold counting takes nearly all the time: the control
                 for changes to special functions, Nystrom and top-m.
sweep-grid       ``tractal sweep`` commands in fresh processes: korobov over
                 d=1:20 and gaussian over d=26:34, each once serial and once
                 with TRACTAL_THREADS=2.  Many small counts sharing factors,
                 plus process start, parsing, CSV output and the thread pool.
spectral-curves  top-m e(n) curves, the pt/qpt functionals, lemma bounds and
                 trace sums at distinct exponents, classify for every family
                 and criterion, and Nystrom estimates for all four kernel
                 kinds.  Top-m, zeta with the tail sums, and the eigen-solve
                 carry the time; threshold counting does none.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from tractal import cli, complexity, nystrom, products, tractability

REFERENCE_SEED = 1
NAMES = ("count-deep", "sweep-grid", "spectral-curves")

# ROADMAP anchor: korobov r_k = 1, g_k = k^-2, d = 20, eps = 2e-3.
ANCHOR = {"d": 20, "epsilon": 2e-3, "n": 194867}
# On the anchor family, eps = 1/16 puts the threshold exactly on many
# products (1/256 = 16^-2 = 2^-2 * 8^-2 = ...), so a count that treats ties
# as above the threshold gives a different n.
TIE_EPSILON = 1.0 / 16.0

# many short queries, so the two-second anchor is about half of a round
COUNT_DIMS = (5, 7, 9, 12, 14, 17, 20, 22, 25, 28, 30,
              32, 35, 38, 41, 44, 47, 50, 53, 56, 58, 60)
COUNT_EPS = (0.1, 0.07, 0.05)
SWEEP_GRIDS = {"korobov": ("1:20", (0.1, 0.06, 0.035)),
               "gaussian": ("26:34", (0.1, 0.06, 0.035))}
TOP_M = {5: 400, 9: 300, 12: 200, 16: 160, 20: 125, 25: 100, 30: 75, 35: 60,
         40: 50, 45: 45, 50: 40, 55: 35}    # d -> m, roughly even cost per task
# exponent ranges that keep every trace finite (tau above tau0)
TAU_RANGE = {"korobov": (0.55, 1.0), "euler": (0.3, 0.6),
             "gaussian": (0.2, 0.8), "analytic_korobov": (0.2, 0.8)}
QPT_TAU = {"korobov": (0.55, 0.75), "euler": (0.3, 0.45)}
QPT_D = 30
FUNCTIONALS_PER_FAMILY = 5
SWEEP_TIMEOUT_S = 120


class OpError(Exception):
    """An op that did not produce an answer (non-zero exit, saturation)."""


@dataclass
class Op:
    index: int
    kind: str
    params: dict
    work: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    families: dict
    ops: list
    specs: dict = field(default_factory=dict)
    family_paths: dict = field(default_factory=dict)

    def inputs_digest(self):
        doc = {"families": self.families, "ops": [[o.kind, o.params] for o in self.ops]}
        return _sha256(json.dumps(doc, sort_keys=True).encode())

    def write_family_files(self, directory):
        """The sweep commands read their family documents from files."""
        for name, doc in self.families.items():
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            self.family_paths[name] = path

    def execute(self, op, in_process=False):
        """Run one op and return its answer; keys starting with '_' hold data
        for the checks that is not compared with the reference."""
        return _EXECUTE[op.kind](self, op, in_process)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _jitter(rng, x, rel=0.002):
    return x * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _uniform(rng, lo_hi):
    return rng.uniform(*lo_hi)


# ---------------------------------------------------------------------------
# family documents
# ---------------------------------------------------------------------------


def _korobov_doc(rng):
    return {"family": "korobov", "r": {"kind": "constant", "c": 1.0},
            "g": {"kind": "power", "c": 1.0 - 0.004 * rng.random(),
                  "alpha": -_jitter(rng, 2.0)}}


def _gaussian_doc(rng):
    return {"family": "gaussian",
            "gamma_sq": {"kind": "power", "c": _jitter(rng, 1.0),
                         "alpha": -_jitter(rng, 1.0)}}


def _analytic_korobov_doc(rng):
    return {"family": "analytic_korobov", "omega": _jitter(rng, 0.5),
            "a": {"kind": "power", "c": 1.0, "alpha": _jitter(rng, 1.0)},
            "b": {"kind": "constant", "c": 1.0}}


def _euler_doc(rng):
    return {"family": "euler", "r": {"kind": "constant", "c": 1}}


def _wiener_doc(rng):
    return {"family": "wiener", "r": {"kind": "constant", "c": 1}}


def _custom_doc(rng):
    second = _jitter(rng, 0.5, 0.05)   # classify only: no effect on the work
    return {"family": "custom",
            "tables": [[1.0, second, second / 4, second / 16],
                       [1.0, second / 2, second / 8, second / 32]],
            "tail": {"kind": "geometric", "ratio": 0.25},
            "tau0": 0.0, "a_star": 1.0, "b_limit": 1.5}


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build(name, seed):
    """The workload's families and ops for this seed, with parsed specs."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"tractal-bench:{name}:{seed}")
    families, ops = _BUILDERS[name](rng)
    rng.shuffle(ops)
    ops = [Op(i, o.kind, o.params, o.work) for i, o in enumerate(ops)]
    wl = Workload(name, seed, families, ops)
    wl.specs = {fam: cli.parse_family(doc) for fam, doc in families.items()}
    return wl


def _build_count_deep(rng):
    families = {"korobov": _korobov_doc(rng), "gaussian": _gaussian_doc(rng),
                "analytic_korobov": _analytic_korobov_doc(rng),
                "korobov-anchor": {"family": "korobov", "r": {"kind": "constant", "c": 1.0},
                                   "g": {"kind": "power", "c": 1.0, "alpha": -2.0}}}
    ops = []
    for fam in ("korobov", "gaussian", "analytic_korobov"):
        for level, base in enumerate(COUNT_EPS):
            eps = _jitter(rng, base)
            for di, d in enumerate(COUNT_DIMS):
                crit = "nor" if di % 2 == 0 else "abs"
                ops.append(Op(0, "count", {"family": fam, "d": d, "epsilon": eps,
                                           "criterion": crit, "level": level}))
    ops.append(Op(0, "count", {"family": "korobov-anchor", "d": ANCHOR["d"],
                               "epsilon": ANCHOR["epsilon"], "criterion": "nor",
                               "level": -1}))
    ops.append(Op(0, "count", {"family": "korobov-anchor", "d": ANCHOR["d"],
                               "epsilon": TIE_EPSILON, "criterion": "nor", "level": -2}))
    return families, ops


def _build_sweep_grid(rng):
    families = {"korobov": _korobov_doc(rng), "gaussian": _gaussian_doc(rng)}
    ops = []
    for fam, (d_range, eps_base) in SWEEP_GRIDS.items():
        eps = ",".join(repr(_jitter(rng, e)) for e in eps_base)
        lo, hi = (int(v) for v in d_range.split(":"))
        for threads in (None, 2):
            ops.append(Op(0, "sweep", {"family": fam, "d": d_range, "epsilon": eps,
                                       "criterion": "nor", "threads": threads},
                          work=(hi - lo + 1) * len(eps_base)))
    return families, ops


def _build_spectral_curves(rng):
    families = {"korobov": _korobov_doc(rng), "euler": _euler_doc(rng),
                "gaussian": _gaussian_doc(rng),
                "analytic_korobov": _analytic_korobov_doc(rng),
                "wiener": _wiener_doc(rng), "custom": _custom_doc(rng)}
    ops = []
    for i, (d, m) in enumerate(TOP_M.items()):
        for fam in (("korobov", "euler"), ("gaussian", "analytic_korobov"))[i % 2]:
            ops.append(Op(0, "top", {"family": fam, "d": d, "m": m, "n": m // 4}))
    for fam, taus in QPT_TAU.items():
        for _ in range(2):
            ops.append(Op(0, "qpt", {"family": fam, "tau": _uniform(rng, taus), "D": QPT_D}))
    for fam, taus in TAU_RANGE.items():
        for _ in range(FUNCTIONALS_PER_FAMILY):
            ops.append(Op(0, "pt", {"family": fam, "tau": _uniform(rng, taus),
                                    "q": rng.uniform(0.5, 2.0), "D": 60}))
            ops.append(Op(0, "lemma", {"family": fam, "d": rng.randint(20, 60),
                                       "epsilon": math.exp(rng.uniform(math.log(0.01),
                                                                       math.log(0.1))),
                                       "tau": _uniform(rng, taus)}))
            ops.append(Op(0, "trace", {"family": fam, "d": rng.randint(20, 60),
                                       "tau": _uniform(rng, taus)}))
    for fam in families:
        for crit in ("abs", "nor"):
            if fam == "wiener" and crit == "abs":
                continue  # the only unsupported pair
            ops.append(Op(0, "classify", {"family": fam, "criterion": crit}))
    r_first = rng.randint(0, 1)
    nystrom_tasks = [
        {"kind": "euler_iterated", "r": r_first, "nodes": rng.randint(298, 302), "m": 6},
        {"kind": "euler_iterated", "r": 1 - r_first, "nodes": rng.randint(298, 302), "m": 6},
        {"kind": "wiener_integral", "r": 0, "nodes": rng.randint(298, 302), "m": 6},
        {"kind": "wiener_integral", "r": rng.randint(1, 2), "nodes": rng.randint(148, 152),
         "m": 6},
        {"kind": "gaussian_weighted",
         "gamma_sq": math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
         "nodes": rng.randint(76, 80), "m": 6},
        {"kind": "korobov_series", "alpha": float(rng.randint(2, 3)),
         "beta": rng.uniform(0.5, 1.0), "cutoff": 2000, "nodes": rng.randint(148, 152),
         "m": 5},
    ]
    for params in nystrom_tasks:
        ops.append(Op(0, "nystrom", params))
    return families, ops


_BUILDERS = {"count-deep": _build_count_deep, "sweep-grid": _build_sweep_grid,
             "spectral-curves": _build_spectral_curves}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _problem(wl, fam, d):
    return products.ProductProblem.from_family(wl.specs[fam], d)


def _run_count(wl, op, in_process):
    p = op.params
    problem = _problem(wl, p["family"], p["d"])
    query = complexity.ComplexityQuery(epsilon=p["epsilon"], d=p["d"],
                                       criterion=p["criterion"])
    res = complexity.info_complexity(problem, query)
    if res.saturated:
        raise OpError(f"count saturated at the cap (n={res.n})")
    return {"n": res.n}


def _sweep_argv(wl, p):
    return ["sweep", "--family", wl.family_paths[p["family"]], "--criterion", p["criterion"],
            "--d", p["d"], "--epsilon", p["epsilon"]]


def _run_sweep(wl, op, in_process):
    p = op.params
    argv = _sweep_argv(wl, p)
    if in_process:
        saved = os.environ.pop("TRACTAL_THREADS", None)
        if p["threads"]:
            os.environ["TRACTAL_THREADS"] = str(p["threads"])
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            os.environ.pop("TRACTAL_THREADS", None)
            if saved is not None:
                os.environ["TRACTAL_THREADS"] = saved
        out, err = buf.getvalue().encode(), b""
    else:
        env = dict(os.environ)
        env.pop("TRACTAL_THREADS", None)
        if p["threads"]:
            env["TRACTAL_THREADS"] = str(p["threads"])
        code, out, err, peak_kb = _run_child([sys.executable, "-m", "tractal.cli"] + argv, env)
    if code != 0:
        raise OpError(f"sweep exited {code}: {err.decode(errors='replace')[-300:]}")
    answer = {"sha256": _sha256(out), "_csv": out.decode()}
    if not in_process:
        answer["_peak_rss_kb"] = peak_kb
    return answer


def _run_child(cmd, env):
    """Run cmd to completion; return its exit code, stdout, stderr and the peak
    resident memory of this child alone (os.wait4 reaps it with its own rusage)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(SWEEP_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def _run_top(wl, op, in_process):
    p = op.params
    problem = _problem(wl, p["family"], p["d"])
    top = products.product_eigenvalues_top(problem, p["m"])
    e = complexity.minimal_error(problem, p["n"])
    return {"first": float(top[0]), "quartile": float(top[p["m"] // 4]),
            "last": float(top[-1]), "sum": float(top.sum()), "e": e,
            "_digest": _sha256(np.ascontiguousarray(top).tobytes()), "_top": top}


def _run_qpt(wl, op, in_process):
    p = op.params
    vals = complexity.qpt_functional(wl.specs[p["family"]], p["tau"], p["D"])
    return {"values": [float(v) for v in vals]}


def _run_pt(wl, op, in_process):
    p = op.params
    vals = complexity.pt_functional(wl.specs[p["family"]], p["tau"], p["q"], p["D"])
    return {"values": [float(v) for v in vals]}


def _run_lemma(wl, op, in_process):
    p = op.params
    problem = _problem(wl, p["family"], p["d"])
    return {"bound": complexity.lemma_bound(problem, p["epsilon"], p["tau"])}


def _run_trace(wl, op, in_process):
    p = op.params
    problem = _problem(wl, p["family"], p["d"])
    return {"trace": products.trace_sum(problem, p["tau"])}


def _run_classify(wl, op, in_process):
    p = op.params
    report = tractability.classify(wl.specs[p["family"]], p["criterion"])
    return {"report": report.to_json_dict()}


def kernel_spec(p):
    kind = p["kind"]
    if kind == "euler_iterated":
        return nystrom.euler_iterated(p["r"])
    if kind == "wiener_integral":
        return nystrom.wiener_integral(p["r"])
    if kind == "gaussian_weighted":
        return nystrom.gaussian_weighted(p["gamma_sq"])
    return nystrom.korobov_series(p["alpha"], p["beta"], series_cutoff=p["cutoff"])


def has_closed_form(p):
    return not (p["kind"] == "wiener_integral" and p["r"] >= 1)


def _run_nystrom(wl, op, in_process):
    p = op.params
    spec = kernel_spec(p)
    if has_closed_form(p):
        rep = nystrom.verify_against_closed_form(spec, p["nodes"], p["m"])
        return {"eigenvalues": [float(v) for v in rep.estimated],
                "max_deviation": rep.max_deviation}
    est = nystrom.spectrum_estimate(spec, p["nodes"], p["m"])
    return {"eigenvalues": [float(v) for v in est.eigenvalues],
            "refinement": [float(v) for v in est.refinement_error]}


_EXECUTE = {"count": _run_count, "sweep": _run_sweep, "top": _run_top, "qpt": _run_qpt,
            "pt": _run_pt, "lemma": _run_lemma, "trace": _run_trace,
            "classify": _run_classify, "nystrom": _run_nystrom}


def public(answer):
    """The part of an answer compared with the recorded reference."""
    return {k: v for k, v in answer.items() if not k.startswith("_")}


def fingerprint(answer):
    """Exact identity of an answer, used to compare rounds and trace modes."""
    doc = dict(public(answer), _digest=answer.get("_digest"))
    return _sha256(json.dumps(doc, sort_keys=True).encode())
