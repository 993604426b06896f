"""The sparse-excitation counting engine against the dense counter and the box.

``helpers.dense_count`` is the dimension-order counter the engine replaced;
the engine must reproduce its counts exactly, ties included, in both the
direct and the log-space evaluation order.
"""
import math
import random
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import complexity, products, spectra
from tractal.errors import InvalidInputError, TractalError
from tractal.products import (
    CountResult,
    ProductProblem,
    count_products_above,
    count_products_above_log,
)
from tractal.sequences import SequenceDescriptor as S

import helpers
from test_spectra import RUN_TABLE

KINDS = ("family", "permuted", "scaled", "custom_zero_tail", "anchor", "runs")
CAP = 400
ANCHOR = spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))


def make_problem(rng, kind, d):
    """A seeded problem of the given kind; permuted and scaled ones have
    second ratios out of dimension order."""
    if kind == "anchor":
        return ProductProblem.from_family(ANCHOR, d)
    if kind == "custom_zero_tail":
        # few distinct ratios, so equal products are common
        tables = []
        for _ in range(d):
            lead = rng.choice((0.5, 1.0, 2.0))
            ratios = sorted((rng.choice((1.0, 0.5, 0.3, 0.25, 0.125))
                             for _ in range(rng.randint(1, 5))), reverse=True)
            tables.append([lead] + [lead * r for r in ratios])
        spec = spectra.custom_tabulated(tables, tau0=0.0)
        return ProductProblem.from_family(spec, d)
    if kind == "runs":
        # runs of equal eigenvalues, some tied with the leading one, some
        # reaching past the head, and runs of 0.0 past a table without a tail
        tables = []
        for _ in range(d):
            lead = rng.choice((0.5, 1.0, 2.0))
            row, size = [lead] * rng.randint(1, 3), rng.choice((4, 12, 40))
            while len(row) < size:
                row += [row[-1] * rng.choice((0.25, 0.5, 0.75))] * rng.randint(1, 4)
            tables.append(row)
        tail = rng.choice((None, spectra.TailModel("geometric", ratio=0.5)))
        return ProductProblem.from_family(spectra.custom_tabulated(tables, tail, tau0=0.0), d)
    _, spec = helpers.random_family(rng, allow_custom=False)
    p = ProductProblem.from_family(spec, d)
    if kind == "permuted":
        factors = list(p.factors)
        rng.shuffle(factors)
        return ProductProblem(factors)
    if kind == "scaled":
        return helpers.scaled(p, [rng.choice((0.25, 0.5, 1.0, 3.0, 7.5)) for _ in range(d)])
    return p


def dense_value(problem, js, log_space):
    """A tuple's product in the dense counter's evaluation order."""
    lams = [f.eigenvalue(j) for f, j in zip(problem.factors, js)]
    if log_space:
        return products.log_fold(map(math.log, lams))
    v = 1.0
    for x in lams:
        v = v * x
    return v


def near_top_tuple(rng, problem):
    """Up to three coordinates excited to j <= 4, none onto a zero eigenvalue."""
    js = [1] * problem.d
    for k in rng.sample(range(problem.d), min(problem.d, rng.randint(0, 3))):
        j = rng.randint(2, 4)
        js[k] = j if problem.factors[k].eigenvalue(j) > 0.0 else 2
    return js


def engine(problem, T, log_space, cap=CAP):
    if log_space:
        return count_products_above_log(problem, T, cap=cap)
    return count_products_above(problem, T, cap=cap)


def outcome(run):
    """run's result, or the type and message of the library error it raises."""
    try:
        return run()
    except TractalError as exc:
        return type(exc), str(exc)


def assert_matches_dense(problem, T, log_space, cap=CAP):
    """The engine's count equals the dense counter's; returns the dense
    count, or None when the dense counter cannot decide.

    The dense counter also saturates when its pushed prefixes reach its
    cap, and prefixes can clear the leading-suffix check yet all end in
    rejected tuples (ties with lam(k,1)), so it runs with room for d + 1
    prefixes per tuple, and a saturation the engine does not see is
    retried with a cap of 10**6.
    """
    got = engine(problem, T, log_space, cap)
    want = helpers.dense_count(problem, T, cap * (problem.d + 1), log_space)
    if want.saturated and not got.saturated:
        want = helpers.dense_count(problem, T, 10 ** 6, log_space)
        if want.saturated:
            return None
    if want.saturated or want.count >= cap:
        assert got == CountResult(cap, True, cap), (got, want)
    else:
        assert got == CountResult(want.count, False, cap), (got, want)
    return want.count


def check_case(seed):
    """One seeded problem, a tie threshold and a nearby random one, in every
    mode the problem allows; returns the number of comparisons made."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    d = rng.choice((rng.randint(1, 6), rng.randint(25, 40)))
    p = make_problem(rng, kind, d)
    modes = [True] if p.space is products.LOG else [True, False]
    made = 0
    for log_space in modes:
        if kind == "anchor":
            k, m = rng.randint(1, 6), rng.randint(1, 6)
            tie = (p.log_leading_product - 2.0 * math.log(k * m) if log_space
                   else p.leading_product / (k * m) ** 2)
        else:
            tie = dense_value(p, near_top_tuple(rng, p), log_space)
        jitter = rng.uniform(-1.0, 1.0)
        near = tie + jitter if log_space else tie * math.exp(jitter)
        for T, on_tie in ((tie, True), (near, False)):
            want = assert_matches_dense(p, T, log_space)
            made += 1
            # on a tie the dense rule's prefix checks, rounded in another
            # order, can reject a product the box puts a rounding above T
            if (not on_tie and want is not None and want < CAP and d <= 4
                    and not log_space and T > products.oracle_validity_floor(p, 25)):
                assert want == int((helpers.box_products(p, 25) > T).sum()), (seed, T)
    return made


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=120, deadline=None)
def test_engine_matches_dense_counter(seed):
    assert check_case(seed) > 0


@pytest.mark.parametrize("kind", KINDS)
def test_minimal_errors_and_counts_agree(kind):
    """n(eps, d) is the least n with e(n) <= eps * CRI.  So with v the
    (n+1)-st largest top-m value, e(n)**2, at most n products lie above v,
    and more than n lie above the next double below it; in log space v is
    the top-m log fold and the counts are taken in log form.  Where the
    leads are not all 1 the dense rule's prefix checks may round a product
    tied with the threshold below it (ROADMAP item 7), so there the second
    count is taken a relative 2**-30 below v, off the tie."""
    rng = random.Random(f"e(n) against n(eps, d): {kind}")
    made = 0
    for _ in range(8):
        p = make_problem(rng, kind, rng.choice((rng.randint(1, 6), rng.randint(25, 40))))
        log_space = p.space is products.LOG
        count = count_products_above_log if log_space else count_products_above
        for n in (0, 1, 4, 20, 100):
            try:
                v = products.top_folds(p, n + 1)[n]
            except InvalidInputError:  # fewer than n + 1 products are positive
                break
            if p.unit_end == 0:
                below = math.nextafter(v, -math.inf)
            elif log_space:
                below = v - 2.0 ** -30 * (1.0 + abs(v) + math.fsum(map(abs, p.log_leads)))
            else:
                below = v * (1.0 - 2.0 ** -30)
            # a count capped at n + 1 exceeds n exactly when it saturates
            assert count(p, v, cap=n + 1).count <= n < count(p, below, cap=n + 1).count, (
                kind, p.d, n)
            made += 1
    assert made >= 20


@pytest.mark.parametrize("d", [8, 20, 35])
def test_anchor_ties_in_both_modes(d):
    """Thresholds exactly on the anchor family's products lam_{d,1}/(k*m)**2."""
    p = ProductProblem.from_family(ANCHOR, d)
    for km in (4, 6, 8, 12, 16):
        assert assert_matches_dense(
            p, p.log_leading_product - 2.0 * math.log(km), True, cap=10 ** 5) is not None
        if p.space is products.DIRECT:
            assert assert_matches_dense(
                p, p.leading_product / km ** 2, False, cap=10 ** 5) is not None


def test_borderline_recheck_runs_on_ties(monkeypatch):
    """On the tie query the dense rule decides the tuples in the window, once
    per run of equal eigenvalues, and it rejects those whose product equals
    the threshold."""
    calls = []
    accepts = products._Point.accepts

    def recorded(point, chain):
        js = [1] * point.d
        node = chain
        while node is not None:
            js[node[0]], node = node[1], node[2]
        calls.append((tuple(js), accepts(point, chain)))
        return calls[-1][1]

    monkeypatch.setattr(products._Point, "accepts", recorded)
    p = ProductProblem.from_family(ANCHOR, 20)
    T = p.leading_product / 16 ** 2
    assert assert_matches_dense(p, T, False, cap=10 ** 5) is not None
    tied = [ok for js, ok in calls if dense_value(p, js, False) == T]
    assert tied and not any(tied)
    # the korobov runs are j = 2m, 2m + 1: only a run's first member is read
    assert len(set(calls)) == len(calls)
    assert all(j % 2 == 0 for js, _ in calls for j in js if j > 1)


# lam(2) = lam(3) = lam(1), then runs of four equal eigenvalues, three of
# them across j = 33/34 (the head), 65/66 and 129/130 (where a ratio list
# grows to 2 * len + 2); no tail, so runs of 0.0 follow the table
LONG_RUNS = [1.0, 1.0, 1.0] + [0.95 ** (t + 1) for t in range(32) for _ in range(4)]
SHORT_RUNS = [1.0, 0.5, 0.5, 0.5, 0.125]


def assert_caps_match_dense(problem, T, log_space, caps):
    """Every cap gives what the dense count gives with that cap, including
    caps that the count crosses inside a run."""
    n = assert_matches_dense(problem, T, log_space, cap=10 ** 6)
    for cap in caps:
        want = CountResult(cap, True, cap) if n >= cap else CountResult(n, False, cap)
        assert engine(problem, T, log_space, cap) == want, (T, log_space, cap)
    return n


@pytest.mark.parametrize("d", [2, 3, 30, 31])
def test_runs_across_head_and_growth_boundaries(d):
    """Thresholds exactly on products of runs that cross the head and the
    ratio lists' growth, in direct and log space, one walk per point and a
    grid over prefixes, against the dense counter."""
    spec = spectra.custom_tabulated([LONG_RUNS] + [SHORT_RUNS] * (d - 1), tau0=0.0)
    p = ProductProblem.from_family(spec, d)
    lam = p.factors[0].eigenvalue
    assert all(lam(j) == lam(j + 1) for j in (2, 33, 65, 129)) and lam(132) == 0.0
    subs = [ProductProblem(p.factors[:e], family=spec) for e in sorted({1, d - 1, d})]
    points = []
    for j1 in ((34, 66, 130) if d < 30 else (34,)):
        for j2 in (1, 3):
            js = [j1, j2] + [1] * (d - 2)
            for log_space in sorted({True, p.space is products.LOG}):
                T = dense_value(p, js, log_space)
                n = assert_caps_match_dense(p, T, log_space, (2, 3, 4, 50, 51, 52))
                assert_caps_match_dense(p, T, log_space, (n - 2, n - 1, n, n + 1))
                points += [(sub, T, log_space) for sub in subs]
    for cap in (3, 400, 10 ** 6):
        want = [engine(sub, T, log_space, cap) for sub, T, log_space in points]
        assert products.count_grid(points, cap) == want, cap
    for sub, T, log_space in points:
        assert assert_matches_dense(sub, T, log_space, cap=10 ** 6) is not None


# Each factor holds its first 32 ratios, j = 2..33, and the walks read past
# them in blocks (34..65, then doubling).  Korobov pairs j = 2m, 2m + 1; a
# table with a run j = 32..35 across the head and zeros from j = 38; and a
# geometric spectrum.
HEAD_SPECS = {
    "korobov": ANCHOR,
    "run-table": spectra.custom_tabulated(RUN_TABLE.tables * 3, tau0=0.0),
    "gaussian": spectra.gaussian(S.constant(4.0)),
}


@pytest.mark.parametrize("name", HEAD_SPECS)
@pytest.mark.parametrize("d", [1, 3])
def test_counts_at_caps_around_the_head(name, d):
    """Thresholds on the tuples exciting j on either side of the head and
    of the first block, in direct and log space, counted at caps on either
    side of the head's 32 ratios and of the first block's end, against the
    dense counter."""
    p = ProductProblem.from_family(HEAD_SPECS[name], d)
    for j in (2, 32, 33, 34, 35, 65, 66):
        if p.factors[0].eigenvalue(j) == 0.0:
            continue
        for js in ([j] + [1] * (d - 1), [2] * (d - 1) + [j]):
            for log_space in (False, True):
                assert_caps_match_dense(p, dense_value(p, js, log_space), log_space,
                                        (1, 2, 31, 32, 33, 34, 64, 65, 66))


def test_runs_are_keyed_on_eigenvalues_not_ratios():
    """lam(2) and lam(3) are an ulp apart with equal -ln ratios; a direct
    threshold on the lower one counts the upper one alone, and in log space,
    where their logs are equal too, neither."""
    x = 1e-200
    row = [1.0, x, math.nextafter(x, 0.0)]
    p = ProductProblem.from_family(spectra.custom_tabulated([row, [1.0, 0.5]], tau0=0.0), 2)
    assert p.factors[0].ratio_head[0][:2] == (-math.log(x),) * 2
    assert assert_matches_dense(p, row[2], False) == 3
    assert assert_matches_dense(p, x, False) == 2
    assert assert_matches_dense(p, math.log(row[2]), True) == 2


@pytest.mark.parametrize("gamma_sq, T", [(0.05, 1e-310), (0.02, 5e-324), (0.05, 1e-320)])
def test_subnormal_direct_thresholds(gamma_sq, T):
    """Direct products near these thresholds are subnormal, where rounding
    is absolute rather than relative."""
    p = ProductProblem.from_family(spectra.gaussian(S.constant(gamma_sq)), 2)
    assert p.space is products.DIRECT
    assert assert_matches_dense(p, T, False, cap=10 ** 5) > 10 ** 4


def test_anchor_count_pinned():
    """ROADMAP anchor: korobov r_k = 1, g_k = k**-2, d = 20, eps = 2e-3."""
    p = ProductProblem.from_family(ANCHOR, 20)
    res = complexity.info_complexity(p, complexity.ComplexityQuery(2e-3, 20, "nor"))
    assert res.n == 194867 and not res.saturated


def test_tiny_log_threshold_saturates_without_growing_ratio_lists(monkeypatch):
    """At ln T = -700 a korobov count is astronomically large; it must stop
    at the cap having evaluated eigenvalues only up to about j = cap."""
    highest = []
    values = spectra.FactorSpectrum.values

    def recorded(self, j0, j1):
        highest.append(j1)
        return values(self, j0, j1)

    monkeypatch.setattr(spectra.FactorSpectrum, "values", recorded)
    p = ProductProblem.from_family(spectra.korobov(S.constant(1.0), S.constant(0.5)), 10)
    start = time.perf_counter()
    res = count_products_above_log(p, -700.0, cap=1000)
    elapsed = time.perf_counter() - start
    assert res == CountResult(1000, True, 1000)
    assert max(highest) <= 1002
    assert elapsed < 5.0


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_direct_threshold_must_be_positive_and_finite(T):
    with pytest.raises(InvalidInputError):
        count_products_above(ProductProblem.from_family(ANCHOR, 3), T)


@pytest.mark.parametrize("log_T", [math.nan, math.inf, -math.inf])
def test_log_threshold_must_be_finite(log_T):
    with pytest.raises(InvalidInputError):
        count_products_above_log(ProductProblem.from_family(ANCHOR, 3), log_T)


def test_counting_leaves_factors_unchanged():
    """Counting in either space reads eigenvalue blocks and sets no attribute
    of any factor."""
    p = ProductProblem.from_family(ANCHOR, 6)

    def state():
        return [[getattr(f, a) for a in spectra.FactorSpectrum.__slots__] for f in p.factors]

    before = state()
    heads = [(list(f.head), list(map(list, f.ratio_head))) for f in p.factors]
    count_products_above(p, 1e-4)
    count_products_above_log(p, -9.0)
    assert all(x is y for now, then in zip(state(), before) for x, y in zip(now, then))
    assert [(list(f.head), list(map(list, f.ratio_head))) for f in p.factors] == heads


def check_grid_case(seed):
    """Points on the prefixes of one seeded problem, counted by one walk and
    one by one: tie thresholds shared across d (as a normalized criterion
    has) and fixed ones (as an absolute criterion has), both spaces,
    duplicates, d lists with gaps, and caps that saturate some points."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
    D = rng.choice((rng.randint(2, 8), rng.randint(28, 40)))
    p = make_problem(rng, kind, D)
    subs = [ProductProblem(p.factors[:d], family=p.family)
            for d in sorted(rng.sample(range(1, D + 1), rng.randint(1, min(D, 5))))]
    points = []
    for _ in range(rng.randint(1, 4)):
        # up to four coordinates excited to j <= 6, often all below the least d
        js = [1] * D
        span = rng.choice((subs[0].d, D))
        for k in rng.sample(range(span), min(span, rng.randint(1, 4))):
            j = rng.randint(2, 6)
            js[k] = j if p.factors[k].eigenvalue(j) > 0.0 else 2
        # just below a tie, the tied products lie inside the bands, above T
        jitter = rng.choice((0.0, -1e-14, rng.uniform(-1.0, 1.0)))
        # the same threshold at every d, as under an absolute criterion
        fixed = rng.random() < 0.3
        for sub in subs:
            log_space = fixed or sub.space is products.LOG or rng.random() < 0.5
            base = subs[0] if fixed else sub
            tie = dense_value(base, js[:base.d], log_space)
            T = tie + jitter if log_space else tie * math.exp(jitter)
            if math.isfinite(T) and (log_space or T > 0.0):
                points.append((sub, T, log_space))
    points += rng.sample(points, min(len(points), rng.randint(0, 2)))
    rng.shuffle(points)
    cap = rng.choice((2, 40, CAP, CAP))
    want = [engine(sub, T, log_space, cap) for sub, T, log_space in points]
    assert products.count_grid(points, cap) == want, (seed, cap)
    return len(points)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=80, deadline=None)
def test_grid_walk_matches_one_walk_per_point(seed):
    check_grid_case(seed)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_complexity_grid_matches_per_point_oracle(seed):
    """info_complexity_grid against a loop of info_complexity calls: both
    criteria, d lists with gaps crossing 30, duplicate epsilons, saturating
    caps, and the same first error where the loop raises one."""
    rng = random.Random(seed)
    _, spec = helpers.random_family(rng)
    criterion = rng.choice((spectra.ABS, spectra.NOR))
    d_list = sorted(rng.sample(range(1, 41), rng.randint(1, 5)))
    eps_list = sorted((rng.choice((0.5, 0.3, 0.1, 0.0625, 0.05))
                       for _ in range(rng.randint(1, 4))), reverse=True)
    cap = rng.choice((5, 60, 2000))

    got = outcome(lambda: complexity.info_complexity_grid(spec, criterion, d_list, eps_list, cap))
    want = outcome(lambda: helpers.per_point_complexity(spec, criterion, d_list, eps_list, cap))
    assert got == want


def test_a_d_range_grid_holds_memory_linear_in_its_length():
    """A grid over d = 1..D holds no d-long list per problem: its traced
    peak grows at most 2.5x per doubling of D (about 1.7x measured, 3.8x
    while each problem held five d-long lists), and its counts are the
    one-point counts."""
    spec = spectra.gaussian(S.power(1.0, -2.0))
    peaks = []
    for D in (250, 500, 1000):
        spectra._factor.cache_clear()
        tracemalloc.start()
        try:
            grid = complexity.info_complexity_grid(spec, "nor", range(1, D + 1), [0.1, 0.03])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(b <= 2.5 * a for a, b in zip(peaks, peaks[1:])), peaks
    for d in (1, 30, 31, 577, 1000):
        assert grid[2 * d - 2: 2 * d] == helpers.per_point_complexity(
            spec, "nor", [d], [0.1, 0.03], products.COUNTING_CAP)


def test_growth_guard_closes_a_band_top_while_a_lower_point_stays_open(monkeypatch):
    """ln T = -10 on [A] and [A, B] is one band.  B's ratios fall slowly, so
    at the root its list runs out, and before each growth the guard reads
    the ratio at which B alone would fill the top's count: at cap 2000 it
    does at the head, the top closes with B's list never grown, and [A] is
    still counted; at cap 20000 it does not at any length, and the list
    grows, reading one guard ratio per growth."""
    A = spectra.korobov(S.constant(2.0), S.constant(0.01)).factor(1)
    B = spectra.korobov(S.constant(0.6), S.constant(1.0)).factor(1)
    points = [(ProductProblem([A]), -10.0, True), (ProductProblem([A, B]), -10.0, True)]
    grown, guard_reads = [], []
    ratio_runs = spectra.FactorSpectrum.ratio_runs

    def recorded(self, j0, j1):
        # the guard reads one ratio; a list grows by a block of them
        (guard_reads if j1 == j0 + 1 else grown).append(j1 - 2)
        return ratio_runs(self, j0, j1)

    monkeypatch.setattr(spectra.FactorSpectrum, "ratio_runs", recorded)
    for cap, want, reads, lengths in ((2000, [(7, False), (2000, True)], 1, []),
                                      (20000, [(7, False), (8723, False)], 9,
                                       [64 << i for i in range(9)])):
        grown.clear()
        guard_reads.clear()
        got = products.count_grid(points, cap)
        assert [(r.count, r.saturated) for r in got] == want
        assert (len(guard_reads), grown) == (reads, lengths)
        assert got == [products.count_grid([point], cap)[0] for point in points]


def test_grid_problems_must_share_their_leading_factors():
    p = ProductProblem.from_family(ANCHOR, 3)
    q = ProductProblem(p.factors[1:])
    with pytest.raises(InvalidInputError, match="leading factors"):
        products.count_grid([(p, 0.01, False), (q, 0.01, False)])
    assert products.count_grid([]) == []


TABLE_KINDS = ("family", "custom_zero_tail", "anchor", "runs")


@pytest.mark.parametrize("d", [1, 30, 31, 5000])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_table_problems_match_explicitly_built_problems(kind, d):
    """A problem on its family's dimension table, whose factors are built
    only as walks reach them, gives the bits of a problem on the explicitly
    built factor list: its leading products and bounds, counts in both
    spaces, a grid over prefixes, top-m values, traces and lemma bounds."""
    rng = random.Random(f"{kind}-{d}")
    spec = make_problem(rng, kind, d).family
    # one factor object per dimension from the closed form, as a table built
    # them before it shared one between equal parameters
    explicit = ProductProblem([spectra.FactorSpectrum(spectra._value(spec, k))
                               for k in range(1, d + 1)], family=spec)
    spectra._factor.cache_clear()  # a fresh table, none of its factors built
    lazy = ProductProblem.from_family(spec, d)

    def bits(p):
        return ([[x.hex() for x in xs] for xs in (
            p.leads, p.log_leads, [p.leading_product, p.log_leading_product], products._hmax(p))],
            p.space)

    assert bits(lazy) == bits(explicit)
    # ties on tuples excited in the first dimensions, as a count near the top reads
    head = ProductProblem(explicit.factors[:8])
    thresholds = []
    for log_space in sorted({True, explicit.space is products.LOG}):
        js = near_top_tuple(rng, head) + [1] * (d - head.d)
        tie = dense_value(explicit, js, log_space)
        jitter = rng.uniform(-1.0, 1.0)
        thresholds.append((tie + jitter if log_space else tie * math.exp(jitter), log_space))
        # These families barely decay in k, so at d = 5000 a tie has thousands
        # of tied products, each re-decided by the O(d) dense rule.
        if d < 100:
            thresholds.append((tie, log_space))
    # A node reads every dimension its bound clears before it checks the cap:
    # keep the cap small at d = 5000.
    cap = CAP if d < 100 else 40
    for T, log_space in thresholds:
        assert engine(lazy, T, log_space, cap) == engine(explicit, T, log_space, cap), T
    ds = sorted({1, (d + 1) // 2, d})
    grids = [list(products.family_problems(spec, ds)),
             [ProductProblem(explicit.factors[:e], family=spec) for e in ds]]
    lazy_grid, explicit_grid = ([(sub, T, log_space) for sub in subs for T, log_space in thresholds]
                                for subs in grids)
    assert products.count_grid(lazy_grid, cap) == products.count_grid(explicit_grid, cap)
    # a visited tuple folds the leads after its last excited dimension, O(d)
    for m in (1, 5, 40) if d < 100 else (1, 3):
        assert (outcome(lambda: products.product_eigenvalues_top(lazy, m).tolist())
                == outcome(lambda: products.product_eigenvalues_top(explicit, m).tolist()))
    for tau in (1.0, 2.5) if d < 100 else (1.0,):
        assert (outcome(lambda: products.trace_sum(lazy, tau).hex())
                == outcome(lambda: products.trace_sum(explicit, tau).hex()))
        assert (outcome(lambda: complexity.lemma_bound(lazy, 0.1, tau))
                == outcome(lambda: complexity.lemma_bound(explicit, 0.1, tau)))


def _recording_builds(monkeypatch):
    """The list every FactorSpectrum built from now on is appended to."""
    built = []
    init = spectra.FactorSpectrum.__init__

    def recorded(self, value):
        init(self, value)
        built.append(self)

    monkeypatch.setattr(spectra.FactorSpectrum, "__init__", recorded)
    return built


def test_a_count_builds_only_the_dimensions_it_can_reach(monkeypatch):
    """ROADMAP item 11's large-d count: building the problem builds no
    factor, the count builds exactly the prefix where hmax exceeds the
    band's lo, a second count on the same family builds none, and another
    family's count shares no table or factor with it."""
    built = _recording_builds(monkeypatch)
    spectra._factor.cache_clear()
    d = 10 ** 5
    query = complexity.ComplexityQuery(0.01, d, "nor")
    p = ProductProblem.from_family(ANCHOR, d)
    assert built == []
    assert complexity.info_complexity(p, query).n == 14423
    _, T, log_space = complexity._count_point(p, query, products.COUNTING_CAP)
    lo = products._band(p, products.LOG if log_space else p.space)(T)[0]
    hmax = products._hmax(p)
    reach = [k + 1 for k in range(d) if hmax[k] > lo]
    assert reach == list(range(1, len(reach) + 1)) and len(reach) < d
    assert sorted(p.table.factors) == reach
    assert [p.table.factors[k] for k in reach] == built
    built.clear()
    assert complexity.info_complexity(ProductProblem.from_family(ANCHOR, d), query).n == 14423
    assert built == []
    other = spectra.korobov(S.constant(1.0), S.power(1.0, -3.0))
    q = ProductProblem.from_family(other, 1000)
    complexity.info_complexity(q, complexity.ComplexityQuery(0.01, 1000, "nor"))
    assert q.table is not p.table and sorted(p.table.factors) == reach
    assert built and not {id(f) for f in built} & {id(f) for f in p.table.factors.values()}


def test_top_m_builds_only_the_dimensions_its_frontier_reaches(monkeypatch):
    """ROADMAP item 16's large-d top-m: at d = 10**5 the frontier reaches
    the entries of fewer than 100 leading dimensions before the m-th value
    stops it, so top-m builds exactly that prefix, and a second call builds
    none and gives the same bits."""
    built = _recording_builds(monkeypatch)
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(ANCHOR, 10 ** 5)
    first = products.product_eigenvalues_top(p, 1000)
    K = len(built)
    assert 0 < K < 100
    assert sorted(p.table.factors) == list(range(1, K + 1))
    assert [p.table.factors[k] for k in range(1, K + 1)] == built
    built.clear()
    assert products.product_eigenvalues_top(p, 1000).tobytes() == first.tobytes()
    assert built == []


def test_a_constant_sequence_builds_one_factor(monkeypatch):
    """Every dimension of euler with constant r has the same parameter, so
    a count and a top-m reaching all 50 dimensions build one factor, which
    every dimension reads."""
    built = _recording_builds(monkeypatch)
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(spectra.euler(S.constant(1)), 50)
    products.product_eigenvalues_top(p, 40)
    count_products_above_log(p, p.log_leading_product - 5.0)
    assert len(built) == 1
    assert all(p.table.factor(k) is p.table.factor(1) for k in range(1, 51))


def test_equal_parameters_share_a_factor_and_distinct_ones_do_not(monkeypatch):
    """Repeated custom tables share one factor per distinct row, keyed on
    its bits (a row ending in -0.0 is not one ending in 0.0); a power-law
    family, whose parameter differs in every dimension, shares none."""
    built = _recording_builds(monkeypatch)
    rows = [[1.0, 0.5, 0.0]] * 3 + [[0.5, 0.25, 0.125]] * 4 + [[1.0, 0.5, -0.0]]
    custom = spectra.custom_tabulated(rows).dimension_table()
    facs = [custom.factor(k) for k in range(1, 9)]
    assert len(built) == 3
    assert facs[:3] == [built[0]] * 3 and facs[3:7] == [built[1]] * 4 and facs[7] is built[2]
    built.clear()
    power = spectra.gaussian(S.power(1.0, -1.0)).dimension_table()
    assert len({id(power.factor(k)) for k in range(1, 21)}) == 20 == len(built)


def test_a_saturating_count_of_a_constant_family_builds_one_factor(monkeypatch):
    """A count that fills its cap early: korobov with constant g, d = 5000,
    cap 400.  Every dimension shares one factor, and the walk stops at the
    cap: the root's children in the first 200 dimensions, a cos and sin
    pair each, fill it, and no head past them is read."""
    built = _recording_builds(monkeypatch)
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(spectra.korobov(S.constant(1.0), S.constant(0.5)), 5000)
    got = count_products_above_log(p, p.log_leading_product - 1.0, cap=400)
    assert (got.count, got.saturated) == (400, True)
    assert len(built) == 1 and len(p.table.ratio_heads) == 200


@pytest.mark.parametrize("spec, reach", [
    (spectra.korobov(S.constant(1.0), S.power(0.5, -0.001)), 200),
    (spectra.gaussian(S.power(1.0, -0.01)), 399),
], ids=["korobov", "gaussian"])
def test_a_saturating_count_builds_no_factor_past_its_cap(monkeypatch, spec, reach):
    """Families whose second ratios barely decay, so every one of d = 5000
    dimensions clears the bound of a count one unit of ln below the leading
    product: at cap 400 the count builds the factors of the dimensions read
    before the cap filled and no more (its bound alone would build 5000 and
    3885), and the count an explicitly built factor list gives."""
    built = _recording_builds(monkeypatch)
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(spec, 5000)
    got = count_products_above_log(p, p.log_leading_product - 1.0, cap=400)
    assert (got.count, got.saturated) == (400, True)
    assert len(built) == len(p.table.ratio_heads) == reach
    assert got == count_products_above_log(ProductProblem(p.factors), p.log_leading_product - 1.0,
                                           cap=400)


def _top(m):
    return lambda p: products.product_eigenvalues_top(p, m)


def _count(depth):
    return lambda p: count_products_above_log(p, p.log_leading_product - depth)


@pytest.mark.parametrize("first, second", [(_top(10), _count(4.0)), (_count(3.0), _top(50))],
                         ids=["top-then-count", "count-then-top"])
def test_a_count_and_a_top_m_share_the_table_heads(monkeypatch, first, second):
    """Either walk extends the table's one prefix of heads: run after the
    other on the same family and reaching further, it builds only the
    factors of the dimensions past those the first walk reached, and both
    read the same pair objects."""
    built = _recording_builds(monkeypatch)
    reached = []
    head = spectra.DimensionTable.head
    monkeypatch.setattr(spectra.DimensionTable, "head",
                        lambda self, k: reached.append(k) or head(self, k))
    spectra._factor.cache_clear()
    p = ProductProblem.from_family(spectra.gaussian(S.power(1.0, -1.0)), 200)
    first(p)
    K = len(p.table.ratio_heads)
    assert reached == list(range(1, K + 1)) and len(built) == K
    heads = list(p.table.ratio_heads)
    reached.clear()
    second(p)
    assert reached == list(range(K + 1, len(p.table.ratio_heads) + 1))
    assert len(built) == len(p.table.ratio_heads) > K
    assert all(a is b for a, b in zip(p.table.ratio_heads, heads))
    assert all(h is p.table.factors[k].ratio_head for k, h in enumerate(p.table.ratio_heads, 1))


def test_a_tie_heavy_d_range_folds_no_suffix_of_unit_leads(monkeypatch):
    """Every korobov lead is 1.0, so a point's suffix fold stops before the
    trailing run of unit leads: each borderline decision of a d-range reads
    a one-entry fold, not a d-long one (ROADMAP item 15)."""
    sizes = []
    rule = products._dense_rule

    def recorded(problem, chain, T, log_space, sfx):
        sizes.append(len(sfx))
        return rule(problem, chain, T, log_space, sfx)

    monkeypatch.setattr(products, "_dense_rule", recorded)
    grid = complexity.info_complexity_grid(ANCHOR, "nor", range(1, 301), [0.1])
    assert len(sizes) > 300 and set(sizes) == {1}
    assert grid[-1].n == 155


def test_a_factor_built_before_its_row_is_the_one_the_walks_read():
    """spec.factor(k) may build factor k before any problem reaches row k
    or any walk reaches dimension k; a count then reads that factor's head."""
    spec = spectra.korobov(S.constant(1.0), S.constant(0.5))
    spectra._factor.cache_clear()
    fac = spec.factor(3)
    p = ProductProblem.from_family(spec, 5)
    assert p.table.ratio_heads == []
    got = count_products_above(p, 1e-3)
    assert len(p.table.ratio_heads) == 5  # the count reached every dimension
    assert p.table.ratio_heads[2] is fac.ratio_head and p.factors[2] is fac
    assert got == count_products_above(ProductProblem(p.factors), 1e-3)


def test_threads_sharing_a_table_leave_one_row_and_one_factor_per_dimension():
    """Threads growing one family's table, building its heads and its
    factors past them, with the interpreter switching between them often,
    leave the rows one thread would read, one factor per dimension, and the
    heads of factors 1..K for the largest K asked for."""
    spec = spectra.gaussian(S.power(1.0, -1.0))
    spectra._factor.cache_clear()
    table = spec.dimension_table()
    errors = []
    start = threading.Barrier(6)

    def work(i):
        try:
            for d in range(100, 1001, 100):
                start.wait(timeout=60)  # every thread grows the same rows at once
                table.grow(d)
                nl, ln = table.head(d // 4 + i)
                assert len(table.ratio_heads) >= d // 4 + i
                assert len(nl) == len(ln) == 32
                spec.factor(d + i)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    want = spectra.DimensionTable(spec)
    want.grow(len(table.leads))
    assert (table.leads, table.log_leads, table.log_h) == (want.leads, want.log_leads, want.log_h)
    assert (table.unit_end, table.nonincreasing) == (want.unit_end, want.nonincreasing)
    assert len(table.ratio_heads) == 1000 // 4 + 5
    for k, head in enumerate(table.ratio_heads, 1):
        assert head is table.factors[k].ratio_head
