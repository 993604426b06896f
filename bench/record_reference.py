#!/usr/bin/env python3
"""Record the reference answers of the default seed into bench/reference.json.

    python3 bench/record_reference.py

Runs one round of every workload in-process, refuses to record if any op
fails or any oracle check fails, and stores each op's public answer with a
digest of the generated inputs.  Recording is for when the benchmark's
workloads change, never to make a wrong answer pass.
"""
from __future__ import annotations

import json
import sys
import tempfile

import run


def main():
    run.pin_environment()
    import checks as C
    import workloads as W

    doc = {"seed": W.REFERENCE_SEED, "workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    for name in W.NAMES:
        wl = W.build(name, W.REFERENCE_SEED)
        with tempfile.TemporaryDirectory(dir=run.OUT, prefix="families-") as tmp:
            wl.write_family_files(tmp)
            rnd = run.run_round(wl, True, None, False)
        answers = [ans for _, ans, _ in rnd.results]
        errors = [err for _, _, err in rnd.results if err is not None]
        report = C.Report()
        C.oracle_checks(wl, answers, report)
        if errors or report.failures:
            print(f"{name}: not recorded; errors {errors[:3]}, failed checks "
                  f"{dict(list(report.failures.items())[:3])}", file=sys.stderr)
            return 1
        doc["workloads"][name] = {"inputs_sha256": wl.inputs_digest(),
                                  "answers": [W.public(a) for a in answers]}
        print(f"{name}: {len(answers)} answers, {report.checks} oracle checks passed")
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
    return 0


def dumps(doc):
    """JSON with one answer per line, so a changed answer shows as one line."""
    parts = []
    for name, entry in doc["workloads"].items():
        answers = ",\n".join("   " + json.dumps(a, sort_keys=True) for a in entry["answers"])
        parts.append(f' {json.dumps(name)}: {{"inputs_sha256": '
                     f'{json.dumps(entry["inputs_sha256"])}, "answers": [\n{answers}\n ]}}')
    return f'{{"seed": {doc["seed"]}, "workloads": {{\n' + ",\n".join(parts) + "\n}}\n"


if __name__ == "__main__":
    sys.exit(main())
