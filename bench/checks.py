"""Checks on every answer, made after the timed rounds.

Two kinds: the recorded reference answers of the default seed, and oracle
checks that hold for any seed (the brute-force box, monotonicity, the trace
bound on counts, closed forms evaluated here with scipy's zeta instead of the
program's, and the Nystrom thresholds of ``tractal verify``).  A failed check
marks the ops it involves as failed.
"""
from __future__ import annotations

import csv
import io
import math
import random
from collections import defaultdict

import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta as scipy_zeta

from tractal import complexity, products, spectra
import workloads as W

REF_RTOL = {"nystrom": 1e-7}   # eigen-solves; closed-form answers use 1e-12
DEFAULT_RTOL = 1e-12
CLOSED_FORM_TOL = 1e-8          # log-space tolerance against the scipy closed forms
NYSTROM_THRESHOLDS = {"euler_iterated": 1e-4, "wiener_integral": 1e-5,
                      "gaussian_weighted": 1e-8, "korobov_series": 1e-6}
LEMMA_TAU = {"korobov": 0.75, "korobov-anchor": 0.75, "euler": 0.5, "gaussian": 0.5,
             "analytic_korobov": 0.5}
ORACLE_BOX = {3: 100, 5: 20}    # box side J per dimension, J**d <= 3.2e6


class Report:
    """Failures per op index, a count of checks made, and the brute-force
    boxes built for them."""

    def __init__(self):
        self.failures = defaultdict(list)
        self.checks = 0
        self._boxes = {}

    def box(self, spec, d):
        """(problem, box values, validity floor) of the d-dimensional box."""
        if (spec, d) not in self._boxes:
            problem = products.ProductProblem.from_family(spec, d)
            J = ORACLE_BOX[d]
            self._boxes[(spec, d)] = (problem, products.brute_force_oracle(problem, J),
                                      products.oracle_validity_floor(problem, J))
        return self._boxes[(spec, d)]

    def check(self, ok, ops, message):
        self.checks += 1
        if not ok:
            for op in ops:
                self.failures[op.index].append(message)
        return ok


def close(a, b, rtol):
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, rtol) for x, y in zip(a, b))
    return a == b


def reference_checks(wl, answers, reference, report):
    """Compare round-0 answers with the recorded ones; False if none apply."""
    entry = reference.get("workloads", {}).get(wl.name)
    if reference.get("seed") != wl.seed or entry is None:
        return False
    if entry["inputs_sha256"] != wl.inputs_digest():
        report.check(False, wl.ops, "generated inputs differ from the recorded ones")
        return True
    for op, ans, want in zip(wl.ops, answers, entry["answers"]):
        ok = ans is not None and close(W.public(ans), want,
                                       REF_RTOL.get(op.kind, DEFAULT_RTOL))
        report.check(ok, [op], f"answer differs from the reference: {want}")
    return True


def oracle_checks(wl, answers, report):
    _ORACLES[wl.name](wl, answers, report)


# ---------------------------------------------------------------------------
# count-deep
# ---------------------------------------------------------------------------


def _threshold(problem, eps, criterion):
    eps2 = eps * eps
    return eps2 if criterion == spectra.ABS else eps2 * problem.leading_product


def _count_deep(wl, answers, rep):
    ans = {op.index: a for op, a in zip(wl.ops, answers)}
    ok_ops = [op for op in wl.ops if ans[op.index] is not None]
    for op in ok_ops:
        if op.params["level"] == -1:
            rep.check(ans[op.index]["n"] == W.ANCHOR["n"], [op],
                      f"anchor count {ans[op.index]['n']} != {W.ANCHOR['n']}")
    by_eps = defaultdict(list)
    by_d = defaultdict(list)
    for op in ok_ops:
        p = op.params
        by_eps[(p["family"], p["d"], p["criterion"])].append(op)
        if p["criterion"] == spectra.NOR and p["level"] >= 0:
            by_d[(p["family"], p["level"])].append(op)
    for group in by_eps.values():
        group.sort(key=lambda o: -o.params["epsilon"])
        for a, b in zip(group, group[1:]):
            rep.check(ans[a.index]["n"] <= ans[b.index]["n"], [a, b],
                      "n decreased as epsilon fell")
    for group in by_d.values():
        group.sort(key=lambda o: o.params["d"])
        for a, b in zip(group, group[1:]):
            rep.check(ans[a.index]["n"] <= ans[b.index]["n"], [a, b],
                      "n decreased as d grew under nor")
    for op in ok_ops:
        p = op.params
        if p["criterion"] == spectra.NOR:
            problem = products.ProductProblem.from_family(wl.specs[p["family"]], p["d"])
            bound = complexity.lemma_bound(problem, p["epsilon"], LEMMA_TAU[p["family"]])
            rep.check(bound >= ans[op.index]["n"], [op], f"lemma bound {bound} < n")
    # the brute-force box: the stream's d=5 queries, and a d=3 replica of each
    # (family, epsilon, criterion) of the stream
    replicas = defaultdict(list)
    for op in wl.ops:
        p = op.params
        replicas[(p["family"], p["epsilon"], p["criterion"])].append(op)
    for (fam, eps, crit), group in replicas.items():
        _box_count(wl, rep, fam, 3, eps, crit, group, None)
    for op in ok_ops:
        p = op.params
        if p["d"] in ORACLE_BOX and p["level"] >= 0:
            _box_count(wl, rep, p["family"], p["d"], p["epsilon"], p["criterion"], [op],
                       ans[op.index]["n"])


def _box_count(wl, rep, fam, d, eps, crit, ops, measured):
    problem, box, floor = rep.box(wl.specs[fam], d)
    T = _threshold(problem, eps, crit)
    if T <= floor:
        return
    want = int((box > T).sum())
    if measured is None:
        query = complexity.ComplexityQuery(epsilon=eps, d=d, criterion=crit)
        measured = complexity.info_complexity(problem, query).n
    rep.check(measured == want, ops, f"count {measured} != box oracle {want} at d={d}")


# ---------------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------------


def _sweep_grid(wl, answers, rep):
    by_family = defaultdict(list)
    for op, ans in zip(wl.ops, answers):
        by_family[op.params["family"]].append((op, ans))
    rng = random.Random(f"tractal-bench-check:{wl.seed}")
    for fam, runs in by_family.items():
        ops = [op for op, _ in runs]
        done = [(op, a) for op, a in runs if a is not None]
        shas = {a["sha256"] for _, a in done}
        rep.check(len(shas) <= 1, ops, "serial and threaded CSVs differ")
        for op, ans in done:
            _check_csv(wl, rep, op, ans["_csv"], rng)


def _check_csv(wl, rep, op, text, rng):
    p = op.params
    rows = list(csv.reader(io.StringIO(text)))
    lo, hi = (int(v) for v in p["d"].split(":"))
    eps_list = sorted((float(e) for e in p["epsilon"].split(",")), reverse=True)
    want_keys = [(d, e) for d in range(lo, hi + 1) for e in eps_list]
    header_ok = rows and rows[0] == ["family", "criterion", "epsilon", "d", "n", "saturated"]
    body = rows[1:]
    if not rep.check(header_ok and len(body) == len(want_keys), [op], "malformed sweep CSV"):
        return
    fam = wl.families[p["family"]]["family"]
    grid = {}
    for row, (d, e) in zip(body, want_keys):
        ok = (row[0] == fam and row[1] == p["criterion"] and float(row[2]) == e
              and int(row[3]) == d and row[5] == "false")
        if not rep.check(ok, [op], f"unexpected sweep row {row}"):
            return
        grid[(d, e)] = int(row[4])
    for d in range(lo, hi + 1):
        ns = [grid[(d, e)] for e in eps_list]
        rep.check(ns == sorted(ns), [op], f"n decreased as epsilon fell at d={d}")
    for e in eps_list:
        ns = [grid[(d, e)] for d in range(lo, hi + 1)]
        rep.check(ns == sorted(ns), [op], f"n decreased as d grew at epsilon={e}")
    for d, e in rng.sample(want_keys, 3):
        problem = products.ProductProblem.from_family(wl.specs[p["family"]], d)
        query = complexity.ComplexityQuery(epsilon=e, d=d, criterion=p["criterion"])
        n = complexity.info_complexity(problem, query).n
        rep.check(n == grid[(d, e)], [op], f"CSV n at d={d} differs from info_complexity")


# ---------------------------------------------------------------------------
# spectral-curves: closed forms with an independent zeta
# ---------------------------------------------------------------------------


def _seq(doc, k):
    if doc["kind"] == "constant":
        return float(doc["c"])
    return doc["c"] * k ** doc["alpha"]


def _omega(gamma_sq):
    return 2.0 * gamma_sq / (1.0 + 2.0 * gamma_sq + math.sqrt(1.0 + 4.0 * gamma_sq))


def _log_power_sum(doc, k, x, normalized):
    """ln sum_j lam(k,j)**x, or of (lam(k,j)/lam(k,1))**x when normalized."""
    fam = doc["family"]
    if fam == "korobov":
        r, g = _seq(doc["r"], k), _seq(doc["g"], k)
        return math.log1p(2.0 * g ** x * scipy_zeta(2.0 * r * x, 1))
    if fam == "euler":
        e = 2.0 * _seq(doc["r"], k) + 2.0
        y = x * e
        total = (2.0 / math.pi) ** y * (1.0 - 2.0 ** -y) * scipy_zeta(y, 1)
        return math.log(total) + (y * math.log(math.pi / 2.0) if normalized else 0.0)
    if fam == "gaussian":
        w = _omega(_seq(doc["gamma_sq"], k))
        lead = 0.0 if normalized else x * math.log1p(-w)
        return lead - math.log1p(-w ** x)
    if fam == "analytic_korobov":
        q = doc["omega"] ** (_seq(doc["a"], k) * x)
        return math.log1p(2.0 * q / (1.0 - q))
    raise ValueError(f"no closed form for {fam}")


def _g_root():
    """Root of G(x) = (2/pi)**x (1 - 2**-x) zeta(x) = 1 on (1, 2)."""
    def g(x):
        return (2.0 / math.pi) ** x * (1.0 - 2.0 ** -x) * scipy_zeta(x, 1) - 1.0
    return brentq(g, 1.0 + 1e-6, 2.0, xtol=1e-14)


def _near(a, b, tol=CLOSED_FORM_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _spectral_curves(wl, answers, rep):
    tops = defaultdict(list)
    for op, ans in zip(wl.ops, answers):
        if ans is not None:
            _SPECTRAL[op.kind](wl, op, ans, rep)
            if op.kind == "top":
                tops[op.params["family"]].append(op)
    for fam, ops in tops.items():
        problem, box, floor = rep.box(wl.specs[fam], 3)
        m = min(int((box > floor).sum()), 400)
        top = products.product_eigenvalues_top(problem, m)
        rep.check(np.array_equal(top, box[:m]), ops,
                  f"top-{m} at d=3 differs from the box oracle")


def _check_top(wl, op, ans, rep):
    p = op.params
    top = ans["_top"]
    rep.check(top.size == p["m"] and bool(np.all(np.diff(top) <= 0)), [op],
              "top-m values not nonincreasing or wrong length")
    rep.check(ans["e"] == math.sqrt(top[p["n"]]), [op], "e(n) != sqrt of the (n+1)-st value")
    problem = products.ProductProblem.from_family(wl.specs[p["family"]], p["d"])
    lead = problem.leading_product
    eps = math.sqrt(top[p["m"] // 2] / lead)
    n_lower = int((top > eps * eps * lead).sum())   # a lower bound on n(eps)
    bound = complexity.lemma_bound(problem, eps, LEMMA_TAU[p["family"]])
    rep.check(bound >= n_lower, [op], f"lemma bound {bound} below the count {n_lower}")


def _check_qpt(wl, op, ans, rep):
    p = op.params
    doc = wl.families[p["family"]]
    tau = p["tau"]
    for d, v in enumerate(ans["values"], start=1):
        x = tau * (1.0 + math.log(d))
        want = sum(_log_power_sum(doc, k, x, True) for k in range(1, d + 1)) / tau
        want -= 2.0 * math.log(d)
        if not rep.check(_near(math.log(v), want), [op], f"qpt differs at d={d}"):
            return


def _check_pt(wl, op, ans, rep):
    p = op.params
    doc = wl.families[p["family"]]
    cum = 0.0
    for d, v in enumerate(ans["values"], start=1):
        cum += _log_power_sum(doc, d, p["tau"], True)
        want = cum / p["tau"] - p["q"] * math.log(d)
        if not rep.check(_near(math.log(v), want), [op], f"pt differs at d={d}"):
            return


def _check_lemma(wl, op, ans, rep):
    p = op.params
    doc = wl.families[p["family"]]
    log_v = sum(_log_power_sum(doc, k, p["tau"], True) for k in range(1, p["d"] + 1))
    log_v -= 2.0 * p["tau"] * math.log(p["epsilon"])
    slack = CLOSED_FORM_TOL * max(1.0, abs(log_v)) + math.log1p(math.exp(-log_v))
    rep.check(abs(math.log(ans["bound"]) - log_v) <= slack, [op],
              "lemma bound differs from the closed form")


def _check_trace(wl, op, ans, rep):
    p = op.params
    doc = wl.families[p["family"]]
    log_v = sum(_log_power_sum(doc, k, p["tau"], False) for k in range(1, p["d"] + 1))
    rep.check(_near(math.log(ans["trace"]), log_v), [op], "trace differs from the closed form")


def _check_classify(wl, op, ans, rep):
    r = ans["report"]
    fam, crit = op.params["family"], op.params["criterion"]
    if r["spt"] and r["qpt"] is not None:
        rep.check(r["qpt"], [op], "SPT without QPT")
    if r["qpt"] is not None and r["curse"] is not None:
        rep.check(r["curse"] == (not r["qpt"]), [op], "curse is not the negation of QPT")
    want = _expected_p_star(wl.families[fam], crit)
    if want is not None:
        got = r["p_star"]
        ok = got is not None and got["lo"] == got["hi"] and _near(got["lo"], want, 1e-9)
        rep.check(ok, [op], f"p* {got} != {want}")


def _expected_p_star(doc, crit):
    fam = doc["family"]
    if fam == "korobov":   # A = -alpha of the weights, tau0 = 1/(2 r)
        return max(2.0 / -doc["g"]["alpha"], 1.0 / doc["r"]["c"])
    if fam == "gaussian":
        a = -doc["gamma_sq"]["alpha"]
        return min(2.0, 2.0 / a) if crit == spectra.ABS else 2.0 / a
    if fam == "analytic_korobov":
        return 0.0
    if fam == "euler" and crit == spectra.ABS:
        return _g_root() / (doc["r"]["c"] + 1.0)
    if fam == "custom":
        return 2.0 / doc["a_star"]
    return None


def _check_nystrom(wl, op, ans, rep):
    p = op.params
    eig = np.array(ans["eigenvalues"])
    rep.check(bool(np.all(eig > 0) and np.all(np.diff(eig) <= 0)), [op],
              "Nystrom eigenvalues not positive and nonincreasing")
    if W.has_closed_form(p):
        limit = NYSTROM_THRESHOLDS[p["kind"]]
        rep.check(ans["max_deviation"] < limit, [op],
                  f"Nystrom deviation {ans['max_deviation']:.3e} >= {limit:g}")
    else:
        rel = np.array(ans["refinement"]) / eig
        rep.check(bool(np.all(rel < 0.05)), [op], "Nystrom refinement gap above 5%")


_SPECTRAL = {"top": _check_top, "qpt": _check_qpt, "pt": _check_pt, "lemma": _check_lemma,
             "trace": _check_trace, "classify": _check_classify, "nystrom": _check_nystrom}
_ORACLES = {"count-deep": _count_deep, "sweep-grid": _sweep_grid,
            "spectral-curves": _spectral_curves}

