#!/usr/bin/env python3
"""Re-record the answers of the counting golden corpus.

    PYTHONPATH=src python tests/record_counting_corpus.py

``tests/counting_corpus.json`` stores its inputs (family documents, count
queries and sweep commands) next to the exact answers.  This script keeps
the inputs, adds the queries of ``EXTRA_COUNTS`` it lacks, recomputes every
answer with the checkout's ``tractal``, and rewrites the file with the Python, numpy, scipy and glibc versions it ran
on.  Re-record only when answers move on purpose, and list the moved
entries in CHANGES.md.
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

from tractal import cli, complexity, products

CORPUS = Path(__file__).with_name("counting_corpus.json")
COUNT_INPUTS = ("family", "d", "epsilon", "criterion")
# Count queries the corpus holds besides the bench's, added to its inputs if
# missing: the ROADMAP large-d rows (korobov g_k = k**-2, nor, eps = 0.01),
# whose counts excite only a few hundred leading dimensions of d.
EXTRA_COUNTS = [{"family": "korobov-anchor", "d": d, "epsilon": 0.01, "criterion": "nor"}
                for d in (5000, 10**5)]


def count_answer(specs, query):
    """n and saturation of one count query, through ``info_complexity``."""
    problem = products.ProductProblem.from_family(specs[query["family"]], query["d"])
    res = complexity.info_complexity(problem, complexity.ComplexityQuery(
        epsilon=query["epsilon"], d=query["d"], criterion=query["criterion"]))
    return {"n": res.n, "saturated": res.saturated}


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
            f' "sweeps": [\n{block(corpus["sweeps"])}\n ]}}\n')


def main():
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    inputs = [{k: q[k] for k in COUNT_INPUTS} for q in corpus["counts"]]
    corpus["counts"] += [q for q in EXTRA_COUNTS if q not in inputs]
    with tempfile.TemporaryDirectory() as tmp:
        corpus["counts"], corpus["sweeps"] = answers(corpus, tmp)
    corpus["recorded_with"] = versions()
    CORPUS.write_text(dumps(corpus), encoding="utf-8")
    print(f"{CORPUS.name}: {len(corpus['counts'])} counts, {len(corpus['sweeps'])} sweeps, "
          f"recorded with {corpus['recorded_with']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
