#!/usr/bin/env python3
"""Re-record the answers of the counting golden corpus.

    PYTHONPATH=src python tests/record_counting_corpus.py

``tests/counting_corpus.json`` stores its inputs (family documents, count
queries, sweep commands, trace queries and top-m queries) next to the exact
answers.  This script keeps the inputs, adds the families of
``TRACE_FAMILIES``, ``TOP_FAMILIES`` and ``SWEEP_FAMILIES`` and the queries
of ``EXTRA_COUNTS``, ``EXTRA_SWEEPS``, ``TRACE_QUERIES`` and ``TOP_QUERIES``
it lacks, recomputes every
answer with the checkout's ``tractal``, and rewrites the file with the
Python, numpy, scipy and glibc versions it ran on.  Re-record only when
answers move on purpose, and list the moved entries in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
import tempfile
from importlib import metadata
from pathlib import Path

from tractal import cli, complexity, products, spectra
from tractal.errors import TractalError

CORPUS = Path(__file__).with_name("counting_corpus.json")
COUNT_INPUTS = ("family", "d", "epsilon", "criterion")
# Count queries the corpus holds besides the bench's, added to its inputs if
# missing: the ROADMAP large-d rows (korobov g_k = k**-2, nor, eps = 0.01),
# whose counts excite only a few hundred leading dimensions of d.
EXTRA_COUNTS = [{"family": "korobov-anchor", "d": d, "epsilon": 0.01, "criterion": "nor"}
                for d in (5000, 10**5)]
# Sweep commands besides the bench's: a tie-heavy one, whose products are
# powers of 2, so many of them equal a threshold 0.0625**2 or 0.25**2 exactly
# and every such tie is decided by the dense rule.
SWEEP_FAMILIES = {"sweep-ties": {"family": "custom", "tables": [[1, 0.5, 0.25]] * 40}}
EXTRA_SWEEPS = [{"family": "sweep-ties",
                 "argv": ["sweep", "--criterion", "abs", "--epsilon", "0.0625,0.25",
                          "--d", "2,8,12", "--cap", "3000000"]}]

# Trace queries run on families of every kind and every sequence kind, with
# repeated custom tables and rows past the last table.
TRACE_FAMILIES = {
    "trace-euler-constant": {"family": "euler", "r": {"kind": "constant", "c": 1}},
    "trace-euler-log": {"family": "euler", "r": {"kind": "log_growth", "theta": 0.5}},
    "trace-euler-power": {"family": "euler", "r": {"kind": "power", "c": 1, "alpha": 1}},
    "trace-wiener-constant": {"family": "wiener", "r": {"kind": "constant", "c": 0}},
    "trace-wiener-explicit": {"family": "wiener",
                              "r": {"kind": "explicit", "values": [0, 1, 1, 2]}},
    "trace-korobov-power": {"family": "korobov", "r": {"kind": "constant", "c": 1},
                            "g": {"kind": "power", "c": 1, "alpha": -2}},
    "trace-korobov-constant": {"family": "korobov", "r": {"kind": "constant", "c": 1.5},
                               "g": {"kind": "constant", "c": 0.5}},
    "trace-korobov-log": {"family": "korobov", "r": {"kind": "log_growth", "theta": 1.0},
                          "g": {"kind": "explicit", "values": [1, 0.5, 0.25, 0.2]}},
    "trace-gaussian-power": {"family": "gaussian",
                             "gamma_sq": {"kind": "power", "c": 1, "alpha": -1}},
    "trace-gaussian-constant": {"family": "gaussian",
                                "gamma_sq": {"kind": "constant", "c": 0.5}},
    "trace-gaussian-explicit": {"family": "gaussian",
                                "gamma_sq": {"kind": "explicit", "values": [2, 1, 1, 0.5]}},
    "trace-analytic-power": {"family": "analytic_korobov", "omega": 0.5,
                             "a": {"kind": "power", "c": 1, "alpha": 1},
                             "b": {"kind": "constant", "c": 1}},
    "trace-analytic-constant": {"family": "analytic_korobov", "omega": 0.3,
                                "a": {"kind": "constant", "c": 1},
                                "b": {"kind": "constant", "c": 2}},
    "trace-analytic-explicit": {"family": "analytic_korobov", "omega": 0.6,
                                "a": {"kind": "log_growth", "theta": 1.0},
                                "b": {"kind": "explicit", "values": [1.5, 1, 2]}},
    "trace-custom-repeated": {"family": "custom",
                              "tables": [[1, 0.5, 0.125]] * 4 + [[1, 0.25, 0.0625, 0.01]] * 8,
                              "tail": {"kind": "geometric", "ratio": 0.25}},
    "trace-custom-power": {"family": "custom",
                           "tables": [[2, 1, 0.25], [1.5, 0.5, 0.2, 0.1]],
                           "tail": {"kind": "power", "exponent": 3}},
    "trace-custom-untailed": {"family": "custom", "tables": [[1, 0.3, 0.1, 0.0]]},
}


def _dims(name):
    """The largest d a problem of the family may have: a custom family's
    number of tables."""
    return len(TRACE_FAMILIES[name].get("tables", ())) or products.DIMENSION_CAP


# Exponents above every family's tau0 (0.5 at most here), then queries that
# diverge: at dimension 1, and before a leading eigenvalue that underflows.
T1, T2, T3 = 0.55, 0.8, 1.3
TRACE_QUERIES = [q for name in TRACE_FAMILIES for q in (
    {"op": "profile", "family": name, "tau": T2, "D": 60, "normalized": True},
    {"op": "profile", "family": name, "tau": T3, "D": 60, "normalized": False},
    {"op": "pt", "family": name, "tau": T1, "q": 1.0, "D": 60},
    {"op": "qpt", "family": name, "tau": T2, "D": 30},
    {"op": "lemma", "family": name, "d": min(45, _dims(name)), "epsilon": 0.05, "tau": T3},
    {"op": "trace", "family": name, "d": min(60, _dims(name)), "tau": T1},
)] + [
    {"op": "trace", "family": "trace-korobov-constant", "d": 5, "tau": 0.3},
    {"op": "pt", "family": "trace-wiener-constant", "tau": 0.5, "q": 1.0, "D": 10},
    {"op": "profile", "family": "trace-custom-power", "tau": 0.3, "D": 3,
     "normalized": False},
    {"op": "profile", "family": "trace-euler-power", "tau": 0.2, "D": 900,
     "normalized": False},
    {"op": "profile", "family": "trace-euler-power", "tau": 1.0, "D": 900,
     "normalized": False},
]
TRACE_INPUTS = ("op", "family", "tau", "q", "D", "d", "epsilon", "normalized")

# Custom spectra whose first dimension ranks first, so a top-m with m above
# 33 reads its ratios past the factor head (j <= 33): pairs of equal
# eigenvalues, a run j = 30..40 that crosses the head and zeros from j = 51
# on; or distinct eigenvalues in the head and a run j = 37..40 past it.
_RUNS_ROW = ([1.0] + [0.98 ** (j // 2) for j in range(2, 30)] + [0.98 ** 15] * 11
             + [0.98 ** (j - 25) for j in range(41, 51)] + [0.0] * 5)
_LATE_RUN_ROW = ([0.99 ** j for j in range(36)] + [0.99 ** 36] * 4
                 + [0.99 ** j for j in range(37, 45)])
_FAST_ROW = [1.0, 0.01, 0.001, 0.0]
TOP_FAMILIES = {
    "top-custom-runs": {"family": "custom", "tables": [_RUNS_ROW] + [_FAST_ROW] * 34},
    "top-custom-late-run": {"family": "custom", "tables": [_LATE_RUN_ROW, _FAST_ROW]},
    # two repeated tables, the second with leads below 1 and a power tail
    "top-custom-repeated": {"family": "custom",
                            "tables": [[1, 0.5, 0.25]] * 3 + [[0.5, 0.25, 0.125, 0.0625]] * 37,
                            "tail": {"kind": "power", "exponent": 2}},
    "top-gaussian-anchor": {"family": "gaussian",
                            "gamma_sq": {"kind": "power", "c": 1, "alpha": -2}},
}
# The bench's top-m mix (d -> m, korobov with euler, gaussian with analytic
# korobov, alternately), direct space for d <= 30 and log space above; then
# the custom spectra in both spaces and past their nonzero products, and
# spectra without runs read past the head; then large d, where the m-th value
# reaches only the leading dimensions (korobov and gaussian with k**-2
# weights), and repeated factors: euler with constant r (whose values
# underflow to 0.0 at d = 2000) and repeated custom tables.
_TOP_M = {5: 400, 9: 300, 12: 200, 16: 160, 20: 125, 25: 100, 30: 75, 35: 60,
          40: 50, 45: 45, 50: 40, 55: 35}
TOP_QUERIES = [{"family": name, "d": d, "m": m}
               for i, (d, m) in enumerate(_TOP_M.items())
               for name in (("korobov", "trace-euler-constant"),
                            ("gaussian", "analytic_korobov"))[i % 2]] + [
    {"family": "top-custom-runs", "d": 3, "m": 60},
    {"family": "top-custom-runs", "d": 35, "m": 60},
    {"family": "top-custom-runs", "d": 2, "m": 140},
    {"family": "top-custom-runs", "d": 3, "m": 500},
    {"family": "top-custom-late-run", "d": 2, "m": 100},
    {"family": "top-custom-late-run", "d": 2, "m": 200},
    {"family": "trace-euler-constant", "d": 2, "m": 150},
    {"family": "gaussian", "d": 1, "m": 60},
    {"family": "korobov-anchor", "d": 10**4, "m": 1000},
    {"family": "korobov-anchor", "d": 10**5, "m": 1000},
    {"family": "top-gaussian-anchor", "d": 10**4, "m": 1000},
    {"family": "trace-euler-constant", "d": 200, "m": 100},
    {"family": "trace-euler-constant", "d": 2000, "m": 100},
    {"family": "trace-custom-repeated", "d": 12, "m": 300},
    {"family": "top-custom-repeated", "d": 20, "m": 500},
    {"family": "top-custom-repeated", "d": 40, "m": 1000},
]
TOP_INPUTS = ("family", "d", "m")


def count_answer(specs, query):
    """n and saturation of one count query, through ``info_complexity``."""
    problem = products.ProductProblem.from_family(specs[query["family"]], query["d"])
    res = complexity.info_complexity(problem, complexity.ComplexityQuery(
        epsilon=query["epsilon"], d=query["d"], criterion=query["criterion"]))
    return {"n": res.n, "saturated": res.saturated}


def trace_answer(specs, query):
    """The answer of one trace query: a profile's or functional's values and
    a trace as ``float.hex``, a lemma bound as an int, or the error raised."""
    spec, op, tau = specs[query["family"]], query["op"], query["tau"]
    try:
        if op == "profile":
            values = spectra.log_trace_profile(spec, tau, query["D"], query["normalized"])
        elif op == "pt":
            values = complexity.pt_functional(spec, tau, query["q"], query["D"])
        elif op == "qpt":
            values = complexity.qpt_functional(spec, tau, query["D"])
        else:
            problem = products.ProductProblem.from_family(spec, query["d"])
            if op == "lemma":
                return {"bound": complexity.lemma_bound(problem, query["epsilon"], tau)}
            return {"trace": products.trace_sum(problem, tau).hex()}
    except TractalError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"values": [float(v).hex() for v in values]}


def top_answer(specs, query):
    """The m largest product eigenvalues of one top-m query as ``float.hex``,
    or the error raised."""
    try:
        problem = products.ProductProblem.from_family(specs[query["family"]], query["d"])
        values = products.product_eigenvalues_top(problem, query["m"])
    except TractalError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"values": [float(v).hex() for v in values]}


def top_answers(corpus):
    """Every top-m query of the corpus with its answer."""
    specs = {name: cli.parse_family(doc) for name, doc in corpus["families"].items()}
    return [dict({k: q[k] for k in TOP_INPUTS}, **top_answer(specs, q)) for q in corpus["tops"]]


def trace_answers(corpus):
    """Every trace query of the corpus with its answer."""
    specs = {name: cli.parse_family(doc) for name, doc in corpus["families"].items()}
    return [dict({k: q[k] for k in TRACE_INPUTS if k in q}, **trace_answer(specs, q))
            for q in corpus["traces"]]


def sweep_csv(argv, family_path):
    """The stdout of ``tractal sweep`` on argv, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--family", str(family_path)])
    if code != 0:
        raise RuntimeError(f"sweep {argv} exited {code}")
    return buf.getvalue()


def answers(corpus, directory):
    """Every answer of the corpus's inputs: the count entries and the sweep
    CSVs, with the family documents written to files in directory."""
    specs = {name: cli.parse_family(doc) for name, doc in corpus["families"].items()}
    counts = [dict({k: q[k] for k in COUNT_INPUTS}, **count_answer(specs, q))
              for q in corpus["counts"]]
    sweeps = []
    for entry in corpus["sweeps"]:
        path = Path(directory) / f"{entry['family']}.json"
        path.write_text(json.dumps(corpus["families"][entry["family"]]), encoding="utf-8")
        sweeps.append({"family": entry["family"], "argv": entry["argv"],
                       "csv": sweep_csv(entry["argv"], path)})
    return counts, sweeps


def versions():
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "libc": " ".join(platform.libc_ver())}


def dumps(corpus):
    """JSON with one family, count or sweep per line, so a moved answer shows
    as one changed line."""
    def block(items):
        return ",\n".join("  " + json.dumps(item, sort_keys=True) for item in items)

    families = ",\n".join(f"  {json.dumps(name)}: {json.dumps(doc, sort_keys=True)}"
                          for name, doc in corpus["families"].items())
    return (f'{{"recorded_with": {json.dumps(corpus["recorded_with"], sort_keys=True)},\n'
            f' "families": {{\n{families}\n }},\n'
            f' "counts": [\n{block(corpus["counts"])}\n ],\n'
            f' "sweeps": [\n{block(corpus["sweeps"])}\n ],\n'
            f' "traces": [\n{block(corpus["traces"])}\n ],\n'
            f' "tops": [\n{block(corpus["tops"])}\n ]}}\n')


def main():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    inputs = [{k: q[k] for k in COUNT_INPUTS} for q in corpus["counts"]]
    corpus["counts"] += [q for q in EXTRA_COUNTS if q not in inputs]
    inputs = [{k: q[k] for k in ("family", "argv")} for q in corpus["sweeps"]]
    corpus["sweeps"] += [q for q in EXTRA_SWEEPS if q not in inputs]
    for name, doc in {**TRACE_FAMILIES, **TOP_FAMILIES, **SWEEP_FAMILIES}.items():
        corpus["families"].setdefault(name, doc)
    traces = corpus.setdefault("traces", [])
    inputs = [{k: q[k] for k in TRACE_INPUTS if k in q} for q in traces]
    traces += [q for q in TRACE_QUERIES if q not in inputs]
    tops = corpus.setdefault("tops", [])
    inputs = [{k: q[k] for k in TOP_INPUTS} for q in tops]
    tops += [q for q in TOP_QUERIES if q not in inputs]
    with tempfile.TemporaryDirectory() as tmp:
        corpus["counts"], corpus["sweeps"] = answers(corpus, tmp)
    corpus["traces"] = trace_answers(corpus)
    corpus["tops"] = top_answers(corpus)
    corpus["recorded_with"] = versions()
    CORPUS.write_text(dumps(corpus), encoding="utf-8")
    print(f"{CORPUS.name}: {len(corpus['counts'])} counts, {len(corpus['sweeps'])} sweeps, "
          f"{len(corpus['traces'])} traces, {len(corpus['tops'])} top-m queries, "
          f"recorded with {corpus['recorded_with']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
