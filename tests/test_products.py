import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import complexity, products, spectra
from tractal.errors import CapExceededError, DivergenceError, InvalidInputError
from tractal.products import (
    ProductProblem,
    brute_force_oracle,
    count_products_above,
    oracle_validity_floor,
    product_eigenvalues_top,
    trace_sum,
)
from tractal.sequences import SequenceDescriptor as S

import helpers
from test_count_engine import ANCHOR, HEAD_SPECS, KINDS, make_problem

OMEGA1 = spectra.gaussian_omega(1.0)


def gaussian_problem(d, gamma=None):
    return ProductProblem.from_family(
        spectra.gaussian(gamma if gamma is not None else S.constant(1.0)), d)


def unit_korobov_problem(d):
    return ProductProblem.from_family(
        spectra.korobov(S.constant(1.0), S.constant(1.0)), d)


# ---------------------------------------------------------------------------
# product_eigenvalues_top
# ---------------------------------------------------------------------------

def test_top_gaussian_d2_head():
    p = gaussian_problem(2)
    c = 1.0 - OMEGA1
    top = product_eigenvalues_top(p, 4)
    expect = np.array([c * c, c * c * OMEGA1, c * c * OMEGA1, c * c * OMEGA1 ** 2])
    assert top == pytest.approx(expect, rel=1e-14, abs=0)
    assert np.all(np.diff(top) <= 0)


def test_top_d1_is_factor_spectrum():
    p = ProductProblem.from_family(spectra.euler(S.constant(1)), 1)
    top = product_eigenvalues_top(p, 5)
    assert top.tolist() == list(p.factors[0].values(1, 6))


def test_top_korobov_unit_nine_ones():
    p = unit_korobov_problem(2)
    assert np.array_equal(product_eigenvalues_top(p, 9), np.ones(9))


def test_top_cap():
    p = gaussian_problem(2)
    with pytest.raises(InvalidInputError, match="m must be >= 1, got 0"):
        product_eigenvalues_top(p, 0)
    with pytest.raises(CapExceededError):
        product_eigenvalues_top(p, products.ENUMERATION_CAP + 1)


def test_log_space_top_is_a_left_fold():
    """In log space each top value is ``math.exp`` of the logs added one
    dimension at a time, on every Python: ``sum`` compensates from 3.12 on.
    The tables are those of the subnormal oracle-compare smoke check."""
    tables = [[1e-105, 5e-106, 2e-106, 1e-106], [1e-105, 4e-106, 1e-106],
              [1e-100, 3e-101, 1e-101, 5e-102]]
    spec = spectra.custom_tabulated(tables, tail=spectra.TailModel("geometric", ratio=0.25),
                                    tau0=0.0)
    p = ProductProblem.from_family(spec, 3)
    assert p.space is products.LOG
    J = 30
    folds = []
    for js in itertools.product(range(1, J + 1), repeat=3):
        total = math.log(p.factors[0].eigenvalue(js[0]))
        for k in (1, 2):
            total = total + math.log(p.factors[k].eigenvalue(js[k]))
        folds.append(total)
    folds.sort(reverse=True)
    m = 200
    want = np.array([math.exp(v) for v in folds[:m]])
    assert product_eigenvalues_top(p, m).tobytes() == want.tobytes()


def random_terms(rng):
    """1 to 45 eigenvalues: normal, subnormal and huge doubles, runs of 1.0
    and zeros, in random order."""
    kinds = (lambda: [rng.uniform(0.0, 2.0)],
             lambda: [math.ldexp(rng.random(), -1060)],
             lambda: [math.ldexp(rng.random(), rng.randint(-1074, 1000))],
             lambda: [1.0] * rng.randint(1, 6),
             lambda: [0.0])
    lams, n = [], rng.randint(1, 40)
    while len(lams) < n:
        lams += rng.choice(kinds)()
    return lams


@pytest.mark.parametrize("seed", range(200))
def test_space_folds_from_their_unit_match_the_plain_folds(seed):
    """Each space folds from its unit with the bits of the plain folds:
    ``math.prod`` of the eigenvalues, and the left fold of their logs (-inf
    at 0.0) from the first term or from the exact additive identity -0.0."""
    lams = random_terms(random.Random(seed))
    logs = [math.log(v) if v > 0.0 else -math.inf for v in lams]
    assert list(map(products.LOG.term, lams)) == logs
    assert list(map(products.DIRECT.term, lams)) == lams
    direct = products.DIRECT.fold(lams, products.DIRECT.unit)
    assert direct.hex() == math.prod(lams).hex()
    log = products.LOG.fold(logs, products.LOG.unit)
    assert log.hex() == products.log_fold(logs).hex() == products.log_fold(logs, -0.0).hex()


def test_outer_product_boxes_fold_each_tuple_in_dimension_order():
    """The boxes built by outer products hold each tuple's dimension-order
    fold, the last index fastest, with the bits of the per-tuple folds:
    ``log_fold`` of the logs (-inf at a zero eigenvalue) and ``math.prod``."""
    tables = [[1.0, 0.5, 0.0], [0.7, 0.2], [0.9, 1e-10, 1e-300, 0.0]]
    p = ProductProblem.from_family(spectra.custom_tabulated(tables, tau0=0.0), 3)
    J = 4
    rows = [f.values(1, J + 1) for f in p.factors]
    logs = [[math.log(v) if v > 0.0 else -math.inf for v in row] for row in rows]
    folds = np.array([products.log_fold(t) for t in itertools.product(*logs)])
    assert -math.inf in folds
    assert products.box_folds(p, J, products.LOG).tobytes() == folds.tobytes()
    assert helpers.brute_force_log_oracle(p, J).tobytes() == np.sort(folds)[::-1].tobytes()
    prods = np.array([math.prod(t) for t in itertools.product(*rows)])
    assert products.box_products(p, J).tobytes() == prods.tobytes()


def generated_top_case(seed):
    """A seeded problem and m: d from 1-5 (m <= 300) or 6-30 (m <= 60), both
    mostly direct space, or 31-60 (log space, m <= 20)."""
    rng = random.Random(seed)
    d, m_max = rng.choice(((rng.randint(1, 5), 300), (rng.randint(6, 30), 60),
                           (rng.randint(31, 60), 20)))
    return make_problem(rng, rng.choice(KINDS), d), rng.randint(1, m_max)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=100, deadline=None)
def test_top_matches_lattice_walk(seed):
    """The excitation walk returns the whole-lattice walk's values bit for
    bit, in direct and log space, and raises the same error when a zero-tail
    spectrum runs out."""
    p, m = generated_top_case(seed)
    try:
        want = helpers.lattice_top(p, m)
    except InvalidInputError as exc:
        with pytest.raises(InvalidInputError) as got:
            product_eigenvalues_top(p, m)
        assert str(got.value) == str(exc)
        return
    assert product_eigenvalues_top(p, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("problem, m", [
    (ProductProblem.from_family(spectra.custom_tabulated([[1.0, 1.0, 0.5]] * 40, tau0=0.0), 40),
     20),
    (unit_korobov_problem(40), 50),
], ids=["halving-tables-d40", "unit-korobov-d40"])
def test_top_tie_bands_match_lattice_walk(problem, m):
    """2**40 and 3**40 tuples tie with the leading product 1: the walk must
    stop after about m visits per dimension, not enumerate the tie band."""
    top = product_eigenvalues_top(problem, m)
    assert top.tobytes() == helpers.lattice_top(problem, m).tobytes()
    assert np.array_equal(top, np.ones(m))


RUN_TABLE = [1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25, 0.25]


@pytest.mark.parametrize("problem, m, J", [
    (unit_korobov_problem(5), 300, 21),
    (ProductProblem.from_family(spectra.custom_tabulated(
        [RUN_TABLE] * 4, tail=spectra.TailModel("geometric", ratio=0.5), tau0=0.0), 4), 400, 20),
], ids=["unit-korobov-d5", "runs-of-4-and-3-d4"])
def test_top_with_runs_matches_box_oracle(problem, m, J):
    """Top-m visits one member per run of equal eigenvalues and pushes its
    fold once per tuple of its chain: every value above the box's validity
    floor is the box oracle's, bit for bit."""
    top = product_eigenvalues_top(problem, m)
    valid = top[top > oracle_validity_floor(problem, J)]
    assert valid.size > m // 2
    assert valid.tobytes() == brute_force_oracle(problem, J)[:valid.size].tobytes()


def test_top_memory_per_value():
    """A top-m frontier entry holds its tuple as a prefix fold and a
    weight, not a d-long list of terms: 5000 values at d = 20 peak near
    0.42 MB (2.35 MB with a list per tuple)."""
    p = ProductProblem.from_family(spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), 20)
    tracemalloc.start()
    try:
        product_eigenvalues_top(p, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6


@pytest.mark.parametrize("name", HEAD_SPECS)
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("log_space", [False, True])
def test_top_at_m_around_the_head(name, d, log_space):
    """m on either side of each factor's head of 32 ratios and of the first
    block read past it: the lattice walk's values bit for bit, or its error
    when a table runs out of positive values; scaled below e**-300, the
    problem runs in log space."""
    p = ProductProblem.from_family(HEAD_SPECS[name], d)
    if log_space:
        p = helpers.scaled(p, [1e-150] * d)
    assert (p.space is products.LOG) == log_space
    for m in (1, 2, 32, 33, 34, 65):
        try:
            want = helpers.lattice_top(p, m)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError, match=re.escape(str(exc))):
                product_eigenvalues_top(p, m)
            continue
        assert product_eigenvalues_top(p, m).tobytes() == want.tobytes(), m


def test_walks_inside_the_heads_read_the_heads_in_place(monkeypatch):
    """A count, a grid or a top-m whose walk stays inside every factor's
    head asks no factor for ratios: it reads each factor's head tuples in
    place, and they stay the same objects."""
    p = ProductProblem.from_family(ANCHOR, 5)
    heads = [f.ratio_head for f in p.factors]
    asked = []
    read = spectra.FactorSpectrum.ratio_runs
    monkeypatch.setattr(spectra.FactorSpectrum, "ratio_runs",
                        lambda self, j0, j1: asked.append((j0, j1)) or read(self, j0, j1))
    # korobov g_k = k**-2: lam(k, j) / lam(k, 1) > 0.01 only for j <= 19
    assert count_products_above(p, 0.01 * p.leading_product).count == 131
    grid = complexity.info_complexity_grid(ANCHOR, "nor", [1, 3, 5], [0.1, 0.3])
    assert [r.n for r in grid] == [19, 7, 97, 19, 131, 19]
    product_eigenvalues_top(p, 33)
    assert asked == []
    assert [f.ratio_head for f in p.factors] == heads
    assert all(f.ratio_head is head for f, head in zip(p.factors, heads))


@pytest.mark.parametrize("m", [2, 5, 100])
def test_top_reads_no_ratio_past_m(monkeypatch, m):
    """Top-m reads the ratios of each factor's head in place, and grows a
    dimension's ratios past it to at most m - 1, j <= m: no node needs m
    children, so it never asks a factor for j past m, as a count asks up to
    its cap.  Inside the head it asks for nothing.  The factors are built
    first: building one reads its head through ``ratio_runs``."""
    problems = (gaussian_problem(1), gaussian_problem(3), unit_korobov_problem(4))
    for p in problems:
        p.factors
    ends = []
    read = spectra.FactorSpectrum.ratio_runs
    monkeypatch.setattr(spectra.FactorSpectrum, "ratio_runs",
                        lambda self, j0, j1: ends.append(j1) or read(self, j0, j1))
    for p in problems:
        product_eigenvalues_top(p, m)
    assert max(ends, default=None) == (m + 1 if m > spectra.FactorSpectrum.HEAD else None)


@given(st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_counts_between_top_values(seed):
    """Between distinct consecutive top values top[i] > top[i+1], the count
    at their midpoint is i + 1, in direct and in log space.  Pairs closer
    than 1e-12 relative are skipped: there the order of two products depends
    on the evaluation order, which the fold and the dense rule do not share."""
    p, m = generated_top_case(seed)
    try:
        top = product_eigenvalues_top(p, m)
    except InvalidInputError:
        return
    for i in range(m - 1):
        a, b = float(top[i]), float(top[i + 1])
        if b < a * (1.0 - 1e-12):
            mid = 0.5 * (a + b)
            assert products.count_products_above_log(p, math.log(mid)).count == i + 1
            if p.space is products.DIRECT:
                assert count_products_above(p, mid).count == i + 1


# ---------------------------------------------------------------------------
# count_products_above
# ---------------------------------------------------------------------------

def test_count_gaussian_example():
    assert count_products_above(gaussian_problem(2), 0.1).count == 3


def test_count_nothing_above_top():
    p = gaussian_problem(2)
    top = product_eigenvalues_top(p, 1)[0]
    assert count_products_above(p, top * 1.0000001).count == 0


def test_count_korobov_unit_d3():
    assert count_products_above(unit_korobov_problem(3), 0.5).count == 27


def test_count_domain_error():
    with pytest.raises(InvalidInputError):
        count_products_above(gaussian_problem(1), 0.0)


def test_count_saturation():
    res = count_products_above(unit_korobov_problem(8), 0.5, cap=100)
    assert res.saturated and res.count == 100 and res.cap == 100
    # deterministic across repeats
    assert count_products_above(unit_korobov_problem(8), 0.5, cap=100) == res


def test_count_result_invariant():
    with pytest.raises(ValueError):
        products.CountResult(count=5, saturated=True, cap=7)


@given(st.floats(min_value=1e-6, max_value=0.5), st.floats(min_value=1e-6, max_value=0.5))
@settings(max_examples=50, deadline=None)
def test_count_monotone_in_threshold(t1, t2):
    p = gaussian_problem(2)
    lo, hi = min(t1, t2), max(t1, t2)
    assert count_products_above(p, lo).count >= count_products_above(p, hi).count


def test_saturating_coordinate_keeps_ratio_lists_short():
    """At ln T = -700 the first coordinate alone saturates a korobov count;
    the walk reads the saturating ratio instead of growing its list toward
    the cap (tens of MB at cap 10**6)."""
    p = ProductProblem.from_family(spectra.korobov(S.constant(1.0), S.constant(0.5)), 10)
    tracemalloc.start()
    try:
        res = products.count_products_above_log(p, -700.0, cap=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == products.CountResult(10 ** 6, True, 10 ** 6)
    assert peak < 10 ** 6


def test_log_space_count_matches_combinatorics():
    # homogeneous gaussian at d=31 runs in log space; products are
    # lam1 * omega**s with multiplicity C(s+d-1, d-1)
    d = 31
    p = gaussian_problem(d)
    E = 4
    T = p.leading_product * OMEGA1 ** (E + 0.5)
    expect = sum(math.comb(s + d - 1, d - 1) for s in range(E + 1))
    assert p.space is products.LOG
    assert count_products_above(p, T).count == expect


# ---------------------------------------------------------------------------
# trace_sum
# ---------------------------------------------------------------------------

def test_trace_gaussian_normalization():
    for d in (1, 3, 7):
        assert trace_sum(gaussian_problem(d), 1.0) == pytest.approx(1.0, abs=1e-13)


def test_trace_euler_half():
    p = ProductProblem.from_family(spectra.euler(S.constant(0)), 1)
    assert trace_sum(p, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_trace_korobov_d2():
    p = unit_korobov_problem(2)
    assert trace_sum(p, 1.0) == pytest.approx((1.0 + math.pi ** 2 / 3.0) ** 2, rel=1e-12)


def test_trace_divergence_names_dimension():
    p = unit_korobov_problem(3)
    with pytest.raises(DivergenceError, match="dimension 1"):
        trace_sum(p, 0.5)


@pytest.mark.parametrize("d", [201, 400])
@pytest.mark.parametrize("tau", [0.5, 1.0])
def test_log_trace_sum_at_large_d(d, tau):
    """The trace factors into the normalised trace and the leading product
    at every d."""
    p = gaussian_problem(d, S.power(1.0, -2.0))
    want = complexity.log_normalized_trace(p, tau) + tau * p.log_leading_product
    assert products.log_trace_sum(p, tau) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_trace_identity_against_box(tmp_path):
    rng = random.Random(7)
    for _ in range(6):
        name, spec = helpers.random_family(rng)
        d = rng.randint(1, 4)
        p = ProductProblem.from_family(spec, d)
        for tau in (1.0, 2.0):
            box = helpers.box_products(p, 30)
            heads = [float(np.sum(np.array(f.values(1, 31)) ** tau)) for f in p.factors]
            tails = [helpers.factor_tau_tail(spec, k, tau, 30) for k in range(1, d + 1)]
            oracle = math.prod(h + t for h, t in zip(heads, tails))
            assert float(np.sum(box ** tau)) == pytest.approx(math.prod(heads), rel=1e-12, abs=0)
            assert trace_sum(p, tau) == pytest.approx(oracle, rel=1e-9, abs=0)


# ---------------------------------------------------------------------------
# brute-force oracle and cross checks
# ---------------------------------------------------------------------------

def test_oracle_d1_euler():
    p = ProductProblem.from_family(spectra.euler(S.constant(0)), 1)
    vals = brute_force_oracle(p, 4)
    j = np.arange(1, 5, dtype=float)
    assert vals == pytest.approx((math.pi * (j - 0.5)) ** -2.0, rel=1e-15, abs=0)


def test_oracle_d2_single():
    p = gaussian_problem(2)
    vals = brute_force_oracle(p, 1)
    assert vals.size == 1
    assert vals[0] == p.factors[0].leading * p.factors[1].leading


def test_oracle_head_matches_top():
    p = gaussian_problem(2)
    assert np.array_equal(brute_force_oracle(p, 10)[:20], product_eigenvalues_top(p, 20))


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        brute_force_oracle(gaussian_problem(4), 100)


def test_top_equals_oracle_across_families():
    rng = random.Random(42)
    for _ in range(10):
        name, spec = helpers.random_family(rng)
        d = rng.randint(1, 5)
        p = ProductProblem.from_family(spec, d)
        m = rng.randint(1, 500)
        J = 30 if d <= 4 else 25  # J**d must respect the oracle cap
        oracle = brute_force_oracle(p, J)
        if m > oracle.size:
            m = oracle.size
        top = product_eigenvalues_top(p, m)
        # exact double equality: both sides multiply the same factors in the
        # same order; valid while the head stays inside the box
        valid = top[-1] > oracle_validity_floor(p, J)
        if valid:
            assert np.array_equal(top, oracle[:m]), f"{name} d={d} m={m}"


def test_count_equals_oracle_on_threshold_grids():
    rng = random.Random(11)
    for _ in range(8):
        name, spec = helpers.random_family(rng)
        d = rng.randint(1, 4)
        p = ProductProblem.from_family(spec, d)
        J = {1: 500, 2: 80, 3: 40, 4: 25}[d]
        oracle = brute_force_oracle(p, J)
        floor = oracle_validity_floor(p, J)
        ts = np.geomspace(max(floor * 1.01, 1e-280), oracle[0], 13)[:-1]
        for T in ts:
            T = float(T) * 0.99999  # stay clear of exact spectrum values
            if T <= floor:
                continue
            assert count_products_above(p, T).count == int((oracle > T).sum())


def test_permutation_covariance():
    spec = spectra.gaussian(S.explicit([2.0, 1.0, 0.4]))
    p = ProductProblem.from_family(spec, 3)
    perm = ProductProblem([p.factors[2], p.factors[0], p.factors[1]])
    top_a = product_eigenvalues_top(p, 50)
    top_b = product_eigenvalues_top(perm, 50)
    assert top_a == pytest.approx(top_b, rel=1e-12, abs=0)
    oracle = brute_force_oracle(p, 20)
    for T in np.geomspace(oracle[40], oracle[0], 7)[:-1]:
        T = float(T) * 0.999999
        assert count_products_above(p, T).count == count_products_above(perm, T).count


def test_scaled_problem():
    p = gaussian_problem(2)
    q = helpers.scaled(p, [2.0, 0.5])
    assert q.leading_product == pytest.approx(p.leading_product, rel=1e-14, abs=0)
    with pytest.raises(InvalidInputError):
        helpers.scaled(p, [1.0])
    with pytest.raises(InvalidInputError):
        helpers.scaled(p, [1.0, -1.0])


def test_custom_dimension_limit():
    spec = spectra.custom_tabulated([[1.0, 0.5]], tau0=0.0)
    with pytest.raises(InvalidInputError):
        ProductProblem.from_family(spec, 2)
