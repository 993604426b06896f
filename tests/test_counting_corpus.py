"""The counting golden corpus: every stored answer, reproduced exactly.

``counting_corpus.json`` holds the inputs and the exact answers of 202 count
queries (korobov, gaussian and analytic korobov, abs and nor, d 5 to 60, the
ROADMAP anchor, a threshold exactly on tied products, and korobov
``g_k = k**-2`` at d = 5000 and 10**5) and of two
``tractal sweep`` commands, with the CSV bytes.  The answers are re-recorded
only by ``record_counting_corpus.py``, and only when they move on purpose.
"""
import json

import record_counting_corpus as R


def test_counting_corpus_answers_are_unchanged(tmp_path):
    corpus = json.loads(R.CORPUS.read_text(encoding="utf-8"))
    counts, sweeps = R.answers(corpus, tmp_path)
    differing = [f"count {i}: stored {want}, got {got}"
                 for i, (want, got) in enumerate(zip(corpus["counts"], counts)) if want != got]
    differing += [f"sweep {i} ({want['family']} {' '.join(want['argv'])}): stored\n"
                  f"{want['csv']}got\n{got['csv']}"
                  for i, (want, got) in enumerate(zip(corpus["sweeps"], sweeps)) if want != got]
    assert not differing, (f"{len(differing)} entries differ (recorded with "
                           f"{corpus['recorded_with']}):\n" + "\n".join(differing))
    assert len(counts) == 202 and len(sweeps) == 2
