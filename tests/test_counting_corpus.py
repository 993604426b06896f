"""The counting golden corpus: every stored answer, reproduced exactly.

``counting_corpus.json`` holds the inputs and the exact answers of 210 count
queries (korobov, gaussian and analytic korobov, abs and nor, d 5 to 60, the
ROADMAP anchor, a threshold exactly on tied products, korobov
``g_k = k**-2`` at d = 5000 and 10**5, and it and analytic korobov at
d = 10**6 and 10**9 under both criteria) and of three
``tractal sweep`` commands, with the CSV bytes: two of the bench's, and one on
40 tables ``[1, 0.5, 0.25]`` whose thresholds tie with many products; and of 107 trace queries:
``log_trace_profile`` under both flags, ``pt_functional``, ``qpt_functional``,
``lemma_bound`` and ``trace_sum`` on every family and sequence kind, with the
floats as ``float.hex`` and the errors raised; and of 40 top-m queries: the
bench's mix of korobov, euler, gaussian and analytic korobov at d 5 to 55,
in direct and log space; custom spectra whose runs of equal eigenvalues
cross the factor head, read past it and past their last nonzero eigenvalue;
korobov and gaussian with ``k**-2`` weights at d = 10**4 and 10**5; and
euler with constant r and repeated custom tables, whose dimensions repeat;
with every value as ``float.hex``; and of 3 ``top_folds`` queries, where the
values hide the folds (euler with constant r at d = 200 and 2000, whose
values underflow to 0.0 there, and leads of 1e200, whose values overflow);
and of 30 e(n) queries, ``minimal_error`` and ``log_minimal_error`` as
``float.hex``: at n = m // 4 on the bench's top-m mix, and past the double
range on those two.  The answers are re-recorded
only by ``record_counting_corpus.py``, and only when they move on purpose.
"""
import json

import pytest

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
    assert len(counts) == 210 and len(sweeps) == 3


def test_trace_answers_are_unchanged():
    corpus = json.loads(R.CORPUS.read_text(encoding="utf-8"))
    traces = R.trace_answers(corpus)
    differing = [f"trace {i}: stored {want}, got {got}"
                 for i, (want, got) in enumerate(zip(corpus["traces"], traces)) if want != got]
    assert not differing, (f"{len(differing)} entries differ (recorded with "
                           f"{corpus['recorded_with']}):\n" + "\n".join(differing))
    assert len(traces) == 107


def test_top_m_answers_are_unchanged():
    corpus = json.loads(R.CORPUS.read_text(encoding="utf-8"))
    tops = R.top_answers(corpus)
    differing = [f"top-m {i}: stored {want}, got {got}"
                 for i, (want, got) in enumerate(zip(corpus["tops"], tops)) if want != got]
    assert not differing, (f"{len(differing)} entries differ (recorded with "
                           f"{corpus['recorded_with']}):\n" + "\n".join(differing))
    assert len(tops) == 40


@pytest.mark.parametrize("key, answers, size", [
    ("folds", R.fold_answers, 3),
    ("errors", R.error_answers, 30),
])
def test_top_m_folds_and_minimal_errors_are_unchanged(key, answers, size):
    corpus = json.loads(R.CORPUS.read_text(encoding="utf-8"))
    got = answers(corpus)
    differing = [f"{key} {i}: stored {want}, got {ans}"
                 for i, (want, ans) in enumerate(zip(corpus[key], got)) if want != ans]
    assert not differing, (f"{len(differing)} entries differ (recorded with "
                           f"{corpus['recorded_with']}):\n" + "\n".join(differing))
    assert len(got) == size
