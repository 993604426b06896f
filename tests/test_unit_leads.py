"""Folds that stop at a table's marks, and unit-lead families at any d.

A query folds a problem's leads only up to its ``unit_end``, one past the
last lead other than 1.0, and takes ``hmax`` as the rows themselves over
the prefix where ln h_k is nonincreasing.  Each is checked bit for bit
against ``helpers.FullFolds``, the d-long folds, on custom tables with runs
of unit leads, in both spaces.  Korobov and analytic korobov problems hold
no rows: their walks read rows only as far as their thresholds reach, so
they count at any d up to ``products.UNIT_LEAD_DIMENSION_CAP``, and a walk
that would read more than ``products.DIMENSION_CAP`` rows is refused.
"""
import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import complexity, products, spectra
from tractal.errors import CapExceededError
from tractal.products import ProductProblem
from tractal.sequences import SequenceDescriptor as S

import helpers
from test_count_engine import ANCHOR, assert_matches_dense, dense_value, near_top_tuple

# (lead, second ratio) per dimension, one pattern per case; each repeats to d
PATTERNS = {
    "interior-and-trailing-units": [(0.5, 0.5), (1.0, 0.5), (1.0, 0.25), (2.0, 0.5),
                                    (1.0, 0.5), (0.75, 0.25), (1.0, 0.125), (1.0, 0.125)],
    "trailing-units": [(0.5, 0.5), (2.0, 0.25), (1.0, 0.25), (1.0, 0.125)],
    "all-unit": [(1.0, 0.5), (1.0, 0.5), (1.0, 0.25), (1.0, 0.0625)],
    "ratios-rise-then-fall": [(1.0, 0.1), (1.0, 0.3), (1.0, 0.6), (1.0, 0.4), (1.0, 0.2),
                              (1.0, 0.05)],
    "rise-then-fall-scaled": [(1.0, 0.1), (0.5, 0.3), (1.0, 0.6), (1.0, 0.4), (3.0, 0.2),
                              (1.0, 0.05), (1.0, 0.05)],
}


def row(lead, h):
    """A table led by lead with second ratio h, a tie after it, then a tail."""
    return [lead, lead * h, lead * h, lead * h * 0.5, lead * h * 0.125]


def problems(rows):
    """The problem of the rows as a custom family's and as a factor list."""
    spec = spectra.custom_tabulated(rows, spectra.TailModel("geometric", ratio=0.5), tau0=0.0)
    spectra._factor.cache_clear()
    return [ProductProblem.from_family(spec, len(rows)),
            ProductProblem([spectra.FactorSpectrum(spectra._custom_value(r, spec.tail))
                            for r in rows])]


def chain_of(js):
    chain = None
    for k, j in enumerate(js):
        if j >= 2:
            chain = (k, j, chain, 1)
    return chain


def hexes(xs):
    return [float(x).hex() for x in xs]


def check_against_full_folds(p, rng):
    """Every fold that stops at the marks against the d-long one, and the
    counts and top-m values read through them against their oracles."""
    full = helpers.FullFolds(p)
    # the marks, from the rows the table has read (at least d)
    rows_leads, rows_h = p.table.leads, p.table.log_h
    assert p.table.unit_end == max((k + 1 for k, x in enumerate(rows_leads) if x != 1.0),
                                   default=0)
    assert p.table.nonincreasing == next(
        (k for k in range(1, len(rows_h)) if rows_h[k] > rows_h[k - 1]), len(rows_h))
    assert p.unit_end <= p.d and all(x == 1.0 for x in full.leads[p.unit_end:])
    assert hexes(p.leads) == hexes(full.leads) and hexes(p.log_leads) == hexes(full.log_leads)
    assert p.leading_product.hex() == full.leading_product.hex()
    assert p.log_leading_product.hex() == full.log_leading_product.hex()
    assert hexes(products._hmax(p)) == hexes(full.hmax)
    spaces = [products.LOG] + ([products.DIRECT] if p.space is products.DIRECT else [])
    for space in spaces:
        band, want_band = products._band(p, space), full.band(space)
        for i in range(6):
            js = near_top_tuple(rng, p)
            tie = dense_value(p, js, space is products.LOG)
            for T in (tie, tie + rng.uniform(-1e-12, 1e-12) if space is products.LOG
                      else tie * (1.0 + rng.uniform(-1e-12, 1e-12))):
                if not (T > 0.0 or space is products.LOG):
                    continue
                lo, hi = band(T)
                assert (lo, hi) == want_band(T)
                point = products._Point(p, T, space, lo, hi)
                assert point.accepts(chain_of(js)) == full.accepts(js, T, space), (js, T)
                assert point.accepts(None) == full.accepts([1] * p.d, T, space)
                if i == 0:  # the dense counter costs far more than a decision
                    assert_matches_dense(p, T, space is products.LOG)
    for m in (1, 7, 40):
        assert hexes(products.product_eigenvalues_top(p, m)) == hexes(helpers.lattice_top(p, m))


@pytest.mark.parametrize("d", [5, 8, 34])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_folds_at_the_marks_match_the_full_folds(name, d):
    pattern = PATTERNS[name]
    rows = [row(*pattern[k % len(pattern)]) for k in range(d)]
    for p in problems(rows):
        assert p.space is (products.DIRECT if d <= 30 else products.LOG)
        check_against_full_folds(p, random.Random(f"{name}-{d}"))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([3, 6, 31, 35]),
       units=st.lists(st.integers(0, 40), max_size=12))
def test_unit_leads_inserted_anywhere_fold_as_the_identity(seed, d, units):
    """Leads of 1.0 inserted at random positions, interior or trailing,
    among leads that are not 1.0."""
    rng = random.Random(seed)
    rows = [row(rng.choice((0.5, 0.8, 2.0)), rng.choice((0.5, 0.25, 0.9))) for _ in range(d)]
    for pos in units:
        rows.insert(pos % (len(rows) + 1), row(1.0, rng.choice((0.5, 0.25, 0.9))))
    rows = rows[:d]
    for p in problems(rows):
        check_against_full_folds(p, rng)


# ---------------------------------------------------------------------------
# unit-lead families at any d
# ---------------------------------------------------------------------------

UNIT_FAMILIES = {
    "korobov": ANCHOR,
    "analytic_korobov": spectra.analytic_korobov(0.5, S.power(1.0, 0.5), S.constant(1.0)),
}
LARGE = (10 ** 5, 10 ** 6, 10 ** 9)


def counts(spec, criterion, d, eps_list=(0.1, 0.01)):
    return complexity.info_complexity_grid(spec, criterion, [d], list(eps_list))


@pytest.mark.parametrize("criterion", ["abs", "nor"])
@pytest.mark.parametrize("name", sorted(UNIT_FAMILIES))
def test_counts_and_top_values_past_the_excited_prefix_do_not_depend_on_d(name, criterion):
    spec = UNIT_FAMILIES[name]
    spectra._factor.cache_clear()
    assert spec.dimension_table().unit_leads
    want = counts(spec, criterion, LARGE[0])
    # the walks reached a prefix far shorter than 10**5
    assert len(spec.dimension_table().log_h) < 1000
    top = products.product_eigenvalues_top(ProductProblem.from_family(spec, LARGE[0]), 300)
    for d in LARGE[1:]:
        assert counts(spec, criterion, d) == want
        got = products.product_eigenvalues_top(ProductProblem.from_family(spec, d), 300)
        assert hexes(got) == hexes(top)
    if name == "korobov":
        assert want[1].n == 14423


@pytest.mark.parametrize("name", sorted(UNIT_FAMILIES))
def test_normalised_counts_are_nondecreasing_in_d(name):
    spec = UNIT_FAMILIES[name]
    ds = [1, 2, 3, 5, 10, 30, 31, 100, 1000, 10 ** 5, 10 ** 6, 10 ** 9,
          products.UNIT_LEAD_DIMENSION_CAP]
    for eps in (0.3, 0.05):
        ns = [r.n for r in complexity.info_complexity_grid(spec, "nor", ds, [eps])]
        assert ns == sorted(ns) and ns[0] < ns[-1]


@pytest.mark.parametrize("spec", [
    spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)),
    spectra.korobov(S.power(1.0, 0.5), S.power(0.9, -0.3)),
    spectra.korobov(S.constant(2.0), S.constant(0.5)),
    spectra.analytic_korobov(0.5, S.power(1.0, 0.5), S.constant(1.0)),
    spectra.analytic_korobov(0.9, S.power(0.1, 0.05), S.constant(0.5)),
], ids=["korobov-k^-2", "korobov-slow", "korobov-constant", "analytic", "analytic-slow"])
def test_each_row_bound_covers_every_later_row(spec):
    """The walks prune a unit-lead table's later dimensions on the bound of
    the first: ``h_bounds[k]`` is at least ``ln h`` of row k and of every
    row after it, over 5000 rows."""
    table = spectra.DimensionTable(spec)
    assert table.unit_leads
    table.grow(5000)
    later = list(itertools.accumulate(reversed(table.log_h), max))[::-1]
    assert all(b >= h for b, h in zip(table.h_bounds, later))
    assert table.bound(4999, 5000) == table.h_bounds[-1] and table.bound(5000, 5000) == -math.inf


def _recording_rows(monkeypatch):
    """The dimensions whose eigenvalue function is read from now on."""
    read = []
    value = spectra._value

    def recorded(spec, k):
        read.append(k)
        return value(spec, k)

    monkeypatch.setattr(spectra, "_value", recorded)
    return read


@pytest.mark.parametrize("name", sorted(UNIT_FAMILIES))
def test_a_count_at_any_d_reads_rows_only_to_its_bound(monkeypatch, name):
    """No problem reads a row, and a count reads rows 1 .. K + 1, where
    row K + 1 is the first whose ln h lies below the band's lo: each row
    read once, in order, and the same rows at d = 10**5 and 10**9."""
    spec = UNIT_FAMILIES[name]
    for d in (10 ** 5, 10 ** 9):
        spectra._factor.cache_clear()
        read = _recording_rows(monkeypatch)
        p = ProductProblem.from_family(spec, d)
        assert read == [] and p.table.log_h == []
        query = complexity.ComplexityQuery(0.01, d, "nor")
        n = complexity.info_complexity(p, query).n
        _, T, log_space = complexity._count_point(p, query, products.COUNTING_CAP)
        lo = products._band(p, products.LOG if log_space else p.space)(T)[0]
        needed = next(k for k in range(1, 10 ** 4) if math.log(spectra.second_ratio(spec, k)) <= lo)
        assert read == list(range(1, needed + 1)) and len(p.table.log_h) == needed
        assert sorted(p.table.factors) == list(range(1, needed))
        if d == 10 ** 5:
            want = (n, needed)
        else:
            assert (n, needed) == want
        monkeypatch.undo()


def test_top_m_at_any_d_reads_one_row_past_the_dimensions_it_reaches(monkeypatch):
    spectra._factor.cache_clear()
    read = _recording_rows(monkeypatch)
    p = ProductProblem.from_family(ANCHOR, 10 ** 9)
    top = products.product_eigenvalues_top(p, 1000)
    assert len(p.table.log_h) == len(p.table.ratio_heads) + 1 == max(read) < 100
    monkeypatch.undo()
    spectra._factor.cache_clear()
    assert hexes(top) == hexes(products.product_eigenvalues_top(
        ProductProblem.from_family(ANCHOR, 10 ** 5), 1000))


def test_anchor_count_at_a_billion_dimensions_builds_its_hundred_factors():
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(ANCHOR, 10 ** 9)
    query = complexity.ComplexityQuery(0.01, 10 ** 9, "nor")
    assert complexity.info_complexity(p, query).n == 14423
    assert len(p.table.factors) == 100 and len(p.table.log_h) == 101


WALKS = {"count": lambda p: counts(p.family, "nor", p.d, (0.1,)),
         "top-m": lambda p: products.product_eigenvalues_top(p, 10)}


@pytest.mark.parametrize("g, walk", [(S.constant(0.5), "count"), (S.power(0.5, -0.001), "count"),
                                     (S.constant(0.5), "top-m")],
                         ids=["constant-count", "slow-power-count", "constant-top-m"])
def test_a_walk_that_would_read_past_the_dimension_cap_is_refused(monkeypatch, g, walk):
    """Where g_k decays too slowly for the bound on h_k to fall below the
    threshold, a walk at d = 10**9 would read rows without end: a count, and
    a top-m among values tied with the m-th, raise at the row past
    DIMENSION_CAP (lowered here to 500) and read no row past it."""
    monkeypatch.setattr(products, "DIMENSION_CAP", 500)
    spectra._factor.cache_clear()
    read = _recording_rows(monkeypatch)
    p = ProductProblem.from_family(spectra.korobov(S.constant(1.0), g), 10 ** 9)
    with pytest.raises(CapExceededError, match="dimension 501, past the dimension cap 500"):
        WALKS[walk](p)
    assert read == list(range(1, 501)) and len(p.table.factors) <= 500


def _refusing_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row or a factor was read")

    monkeypatch.setattr(spectra.FactorSpectrum, "__init__", refuse)
    monkeypatch.setattr(spectra, "_value", refuse)
    spectra._factor.cache_clear()


@pytest.mark.parametrize("spec", [
    spectra.gaussian(S.power(1.0, -2.0)),
    spectra.euler(S.constant(1.0)),
    spectra.korobov(S.constant(1.0), S.explicit((), evaluator=lambda k: k ** -2.0,
                                                liminf_log_ratio=2.0, limit=0.0)),
    spectra.analytic_korobov(0.5, S.explicit((), evaluator=lambda k: float(k),
                                             liminf_log_ratio=-1.0, limit=math.inf),
                             S.constant(1.0)),
], ids=["gaussian", "euler", "korobov-evaluator", "analytic-evaluator"])
def test_other_families_keep_the_dimension_cap(monkeypatch, spec):
    assert not spec.dimension_table().unit_leads
    _refusing_rows(monkeypatch)
    assert products.dimension_cap(spec) == products.DIMENSION_CAP
    with pytest.raises(CapExceededError, match="dimension cap"):
        ProductProblem.from_family(spec, products.DIMENSION_CAP + 1)


@pytest.mark.parametrize("read", [
    lambda p: p.factors,
    lambda p: p.leads,
    lambda p: products.trace_sum(p, 1.0),
    lambda p: complexity.lemma_bound(p, 0.1, 1.0),
    lambda p: complexity.log_normalized_trace(p, 1.0),
    lambda p: products.brute_force_oracle(p, 2),
    lambda p: products.oracle_validity_floor(p, 2),
], ids=["factors", "leads", "trace", "lemma", "normalized-trace", "box", "box-floor"])
def test_what_reads_every_dimension_keeps_the_dimension_cap(monkeypatch, read):
    _refusing_rows(monkeypatch)
    p = ProductProblem.from_family(ANCHOR, products.DIMENSION_CAP + 1)
    with pytest.raises(CapExceededError, match="dimension cap"):
        read(p)


def test_unit_lead_problems_stop_at_their_own_cap(monkeypatch):
    _refusing_rows(monkeypatch)
    cap = products.UNIT_LEAD_DIMENSION_CAP
    assert ProductProblem.from_family(ANCHOR, cap).d == cap
    with pytest.raises(CapExceededError, match="dimension cap"):
        ProductProblem.from_family(ANCHOR, cap + 1)


def test_minimal_error_past_the_double_range_halves_the_log_first():
    """e(3) of three tables [1e200, 1e199] is sqrt(1e599), a double, though
    the 4th product, 1e599, is not: it is exp of half the 4th log fold."""
    spec = spectra.custom_tabulated([[1e200, 1e199]] * 3)
    p = ProductProblem.from_family(spec, 3)
    assert p.space is products.LOG
    folds = helpers.brute_force_log_oracle(p, 2)
    for n in (1, 3, 4, 7):
        want = math.exp(0.5 * float(folds[n]))
        assert complexity.minimal_error(p, n) == pytest.approx(want, rel=1e-15, abs=0)
    # the log folds of three logs near 460 are off by up to ~1e-13 absolute,
    # so e(3) is within 1e-13 of 10**299.5 = 3.1622776601683793e299 (7.6e-14)
    assert complexity.minimal_error(p, 3) == pytest.approx(3.1622776601683793e299, rel=1e-13, abs=0)
    # where the value is a normal double its square root is taken, in either space
    q = ProductProblem.from_family(ANCHOR, 40)
    assert q.space is products.LOG
    for p, n in ((ProductProblem.from_family(spec, 1), 1), (q, 1), (q, 10), (q, 100)):
        top = products.product_eigenvalues_top(p, n + 1)
        assert complexity.minimal_error(p, n) == math.sqrt(top[-1])


def test_a_unit_lead_root_on_the_threshold_is_not_counted():
    """The dense decisions at the root read leads of 1.0 that the table
    holds no rows for; g_1 = 1, so lam(1, 2) and lam(1, 3) tie the root."""
    for d in (5, 10 ** 9):
        spectra._factor.cache_clear()
        p = ProductProblem.from_family(ANCHOR, d)
        assert products.count_products_above_log(p, 0.0).count == 0
        if p.space is products.DIRECT:
            assert products.count_products_above(p, 1.0).count == 0
            assert helpers.dense_count(p, -1e-300, 10 ** 6, True).count == 3
        spectra._factor.cache_clear()
        p = ProductProblem.from_family(ANCHOR, d)
        assert products.count_products_above_log(p, -1e-300).count == 3


def test_threads_counting_one_unit_lead_table_read_each_row_once():
    """Threads counting on one unit-lead table at different d, with the
    interpreter switching between them often, give the serial counts and
    leave the rows and marks one thread would read."""
    spec = spectra.korobov(S.constant(1.0), S.power(0.9, -1.5))
    ds = [40, 10 ** 3, 10 ** 6, 10 ** 9]
    eps = [0.3, 0.1, 0.02]
    spectra._factor.cache_clear()
    want = [complexity.info_complexity_grid(spec, "nor", [d], eps) for d in ds]
    serial = spec.dimension_table()
    rows = (list(serial.log_h), list(serial.h_bounds), serial.unit_end, serial.nonincreasing)
    spectra._factor.cache_clear()
    got, errors = {}, []
    start = threading.Barrier(6)

    def work(i):
        try:
            start.wait(timeout=60)
            for j in range(len(ds)):
                d = ds[(i + j) % len(ds)]
                got[i, d] = complexity.info_complexity_grid(spec, "nor", [d], eps)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert all(got[i, d] == w for i in range(6) for d, w in zip(ds, want))
    table = spec.dimension_table()
    assert (table.log_h, table.h_bounds, table.unit_end, table.nonincreasing) == rows
