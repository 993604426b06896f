import math
import random
import sys
import warnings

import numpy as np
import pytest

from tractal import products, spectra
from tractal.complexity import (
    ComplexityQuery,
    info_complexity,
    lemma_bound,
    log_minimal_error,
    log_normalized_trace,
    minimal_error,
    pt_functional,
    qpt_functional,
)
from tractal.errors import DivergenceError, InvalidInputError, UnsupportedCriterionError
from tractal.products import ProductProblem
from tractal.sequences import SequenceDescriptor as S

import helpers

OMEGA1 = spectra.gaussian_omega(1.0)
GAUSS1 = spectra.gaussian(S.constant(1.0))
UNIT_KOROBOV = spectra.korobov(S.constant(1.0), S.constant(1.0))


def test_query_validation():
    with pytest.raises(InvalidInputError):
        ComplexityQuery(epsilon=1.0, d=1)
    with pytest.raises(InvalidInputError):
        ComplexityQuery(epsilon=1.5, d=1)
    with pytest.raises(InvalidInputError):
        ComplexityQuery(epsilon=0.5, d=0)
    with pytest.raises(InvalidInputError):
        ComplexityQuery(epsilon=0.5, d=1, criterion="rel")


def test_minimal_error_initial():
    p = ProductProblem.from_family(GAUSS1, 1)
    assert minimal_error(p, 0) == pytest.approx(math.sqrt(1 - OMEGA1), rel=1e-14, abs=0)


def test_minimal_error_refuses_a_negative_n():
    p = ProductProblem.from_family(GAUSS1, 1)
    with pytest.raises(InvalidInputError, match="n must be >= 0, got -1"):
        minimal_error(p, -1)


def test_minimal_error_unit_korobov():
    p = ProductProblem.from_family(UNIT_KOROBOV, 2)
    assert minimal_error(p, 4) == 1.0


def test_minimal_error_nonincreasing():
    p = ProductProblem.from_family(spectra.gaussian(S.power(1.0, -1.0)), 3)
    errs = [minimal_error(p, n) for n in range(0, 101)]
    assert all(b <= a for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("d", [5, 40, 2000])
def test_log_minimal_error_stays_finite_past_the_double_range(d):
    """Euler r = 1 at d = 2000 has ln e(0) = -1806, so minimal_error is 0.0
    for every n; ln e(n) stays finite and nonincreasing in n, and where e(n)
    is a normal double (d = 5 in direct space, 40 in log space) it is its log."""
    p = ProductProblem.from_family(spectra.euler(S.constant(1)), d)
    ns = (0, 1, 2, 3, 5, 8, 13, 21, 34)
    logs = [log_minimal_error(p, n) for n in ns]
    assert logs[0] == 0.5 * p.log_leading_product
    assert all(map(math.isfinite, logs))
    assert all(b <= a for a, b in zip(logs, logs[1:]))
    normal = 0
    for n, log_e in zip(ns, logs):
        e = minimal_error(p, n)
        if sys.float_info.min <= e < math.inf:
            assert log_e == pytest.approx(math.log(e), rel=1e-14, abs=0)
            normal += 1
    assert normal == (0 if d == 2000 else len(ns))
    with pytest.raises(InvalidInputError, match="n must be >= 0, got -1"):
        log_minimal_error(p, -1)


def test_info_complexity_examples():
    p = ProductProblem.from_family(GAUSS1, 2)
    assert info_complexity(p, ComplexityQuery(0.5, 2, "nor")).n == 3
    assert info_complexity(p, ComplexityQuery(0.5, 2, "abs")).n == 1


def test_info_complexity_refuses_a_query_of_another_d():
    p = ProductProblem.from_family(GAUSS1, 2)
    with pytest.raises(InvalidInputError, match="query d=3 does not match problem d=2"):
        info_complexity(p, ComplexityQuery(0.5, 3, "nor"))


def test_info_complexity_boundaries():
    p1 = ProductProblem.from_family(GAUSS1, 1)
    # lam2/lam1 = omega < eps**2 for eps near one, so exactly one value counts
    res = info_complexity(p1, ComplexityQuery(0.999999, 1, "nor"))
    assert res.n == 1
    # absolute threshold at or above lam_{d,1} counts nothing
    res = info_complexity(p1, ComplexityQuery(0.8, 1, "abs"))
    assert res.threshold > p1.leading_product
    assert res.n == 0


def test_info_complexity_criterion_gate():
    p = ProductProblem.from_family(spectra.wiener(S.constant(1)), 2)
    with pytest.raises(UnsupportedCriterionError):
        info_complexity(p, ComplexityQuery(0.5, 2, "abs"))
    assert info_complexity(p, ComplexityQuery(0.5, 2, "nor")).n >= 1


def test_info_complexity_nonincreasing_in_epsilon():
    p = ProductProblem.from_family(spectra.gaussian(S.power(1.0, -1.0)), 3)
    ns = [info_complexity(p, ComplexityQuery(e, 3, "nor")).n
          for e in (0.9, 0.7, 0.5, 0.3, 0.1)]
    assert all(b >= a for a, b in zip(ns, ns[1:]))


def test_info_complexity_error_sandwich():
    p = ProductProblem.from_family(spectra.gaussian(S.power(1.0, -1.0)), 2)
    for eps in (0.9, 0.5, 0.2, 0.05):
        res = info_complexity(p, ComplexityQuery(eps, 2, "nor"))
        cri = minimal_error(p, 0)
        if res.n >= 1:
            assert minimal_error(p, res.n) <= eps * cri
            assert minimal_error(p, res.n - 1) > eps * cri


def test_curse_witness_small_d():
    for d in range(1, 9):
        p = ProductProblem.from_family(UNIT_KOROBOV, d)
        cap = 2 ** d
        res = info_complexity(p, ComplexityQuery(0.5, d, "nor"), cap=cap)
        n_lower = res.n  # saturated counts are exact lower bounds
        assert n_lower >= 2 ** d - 1


def test_lemma_bound_examples():
    p = ProductProblem.from_family(GAUSS1, 2)
    assert lemma_bound(p, 0.5, 1.0) == 11
    assert lemma_bound(p, 0.5, 1.0) >= info_complexity(p, ComplexityQuery(0.5, 2, "nor")).n
    e = ProductProblem.from_family(spectra.euler(S.constant(0)), 1)
    assert lemma_bound(e, 0.5, 1.0) == 5
    assert lemma_bound(p, 0.999, 1.0) >= info_complexity(p, ComplexityQuery(0.999, 2, "nor")).n


def test_traces_need_a_family_backed_problem():
    p = ProductProblem(ProductProblem.from_family(GAUSS1, 2).factors)
    assert p.family is None
    with pytest.raises(InvalidInputError, match="trace sums need a family-backed problem"):
        products.trace_sum(p, 1.0)
    with pytest.raises(InvalidInputError, match="normalized traces need a family-backed problem"):
        lemma_bound(p, 0.5, 1.0)


def test_lemma_bound_dominates_counts():
    rng = random.Random(5)
    for _ in range(8):
        name, spec = helpers.random_family(rng, allow_wiener=False)
        d = rng.randint(1, 4)
        p = ProductProblem.from_family(spec, d)
        tau0_hi = spectra.tau_zero(spec).hi
        for tau in (0.8, 1.0, 2.0):
            if tau <= tau0_hi:
                continue
            for eps in (0.9, 0.5, 0.2):
                n = info_complexity(p, ComplexityQuery(eps, d, "nor")).n
                assert lemma_bound(p, eps, tau) >= n


def test_nor_scale_invariance():
    rng = random.Random(99)
    for _ in range(20):
        name, spec = helpers.random_family(rng)
        d = rng.randint(1, 4)
        p = ProductProblem.from_family(spec, d)
        scales = [rng.uniform(0.01, 10.0) for _ in range(d)]
        q = helpers.scaled(p, scales)
        eps = rng.uniform(0.05, 0.95)
        n0 = info_complexity(p, ComplexityQuery(eps, d, "nor")).n
        n1 = info_complexity(q, ComplexityQuery(eps, d, "nor")).n
        assert n0 == n1


def test_pt_functional_examples():
    vals = pt_functional(spectra.gaussian(S.power(1.0, -2.0)), 1.0, 0.0, 200)
    assert np.all(np.diff(vals) >= 0)
    # summable shape parameters: the profile flattens onto a finite supremum
    assert vals[19] - vals[18] < 7e-3
    assert vals[-1] - vals[19] < 0.15
    assert vals[-1] < 2.9  # the supremum prod_k 1/(1 - omega_k) is finite
    grow = pt_functional(UNIT_KOROBOV, 1.0, 0.0, 10)
    assert grow[9] / grow[8] == pytest.approx(1.0 + math.pi ** 2 / 3.0, rel=1e-9)
    single = pt_functional(GAUSS1, 1.3, 0.0, 1)
    H = spectra.tail_sum_H(GAUSS1, 1, 1.3)
    expect = (1.0 + spectra.second_ratio(GAUSS1, 1) ** 1.3 * H) ** (1 / 1.3)
    assert single[0] == pytest.approx(expect, rel=1e-13, abs=0)


@pytest.mark.parametrize("evaluate", [
    lambda: pt_functional(UNIT_KOROBOV, 0.4, 0.0, 3),
    lambda: qpt_functional(UNIT_KOROBOV, 0.4, 3),
    lambda: lemma_bound(ProductProblem.from_family(UNIT_KOROBOV, 3), 0.5, 0.4),
    lambda: log_normalized_trace(ProductProblem.from_family(UNIT_KOROBOV, 3), 0.4),
], ids=["pt_functional", "qpt_functional", "lemma_bound", "log_normalized_trace"])
def test_divergence_names_dimension(evaluate):
    # tau = 0.4 lies below tau0 = 1/2 of the unit korobov family
    with pytest.raises(DivergenceError, match="dimension 1") as info:
        evaluate()
    assert info.value.dimension == 1


def test_qpt_functional_reduces_to_pt_at_d1():
    a = qpt_functional(GAUSS1, 0.7, 1)
    b = pt_functional(GAUSS1, 0.7, 0.0, 1)
    assert a[0] == pytest.approx(b[0], rel=1e-13, abs=0)


def test_qpt_functional_threshold_sides():
    tstar = 2.0 / math.log(1.0 / OMEGA1)
    hi = qpt_functional(GAUSS1, 2.2, 50)
    assert hi.max() == hi[0]  # bounded profile, supremum at the start
    assert hi[-1] < 1e-2
    # below the threshold the profile is eventually unbounded; it falls until
    # d = 12 and rises after that.  Its growth over d <= 500 is asserted against
    # the closed form in acceptance criterion 09; here only the dip is checked
    lo = qpt_functional(GAUSS1, 0.5 * (tstar / 2.0), 50)
    assert lo.argmin() == 11
    assert np.all(np.diff(lo[:12]) < 0) and np.all(np.diff(lo[11:]) > 0)


@pytest.mark.parametrize("evaluate", [
    lambda: pt_functional(UNIT_KOROBOV, 0.6, 0.0, 2000),
    lambda: qpt_functional(UNIT_KOROBOV, 0.6, 400),
    lambda: np.array([products.trace_sum(ProductProblem.from_family(UNIT_KOROBOV, d), 1.0)
                      for d in (10, 700)]),
], ids=["pt_functional", "qpt_functional", "trace_sum"])
def test_values_beyond_the_double_range_are_inf(evaluate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = evaluate()
    assert vals[0] < math.inf and vals[-1] == math.inf


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_wiener_normalized_traces_are_euler_bit_for_bit(r):
    """wiener(r)'s factors hold the euler formula, so its normalized traces
    and functionals are euler(r)'s, bit for bit (at r = 0 the two spectra are
    the same)."""
    tau, D = 0.8, 5
    wiener, euler = spectra.wiener(S.constant(r)), spectra.euler(S.constant(r))
    for d in (1, 3, D):
        pw, pe = (ProductProblem.from_family(spec, d) for spec in (wiener, euler))
        assert log_normalized_trace(pw, tau) == log_normalized_trace(pe, tau)
        assert lemma_bound(pw, 0.05, tau) == lemma_bound(pe, 0.05, tau)
    assert pt_functional(wiener, tau, 1.0, D).tobytes() == pt_functional(euler, tau, 1.0, D).tobytes()
    assert qpt_functional(wiener, tau, D).tobytes() == qpt_functional(euler, tau, D).tobytes()


@pytest.mark.parametrize("spec, tau", [
    (spectra.euler(S.explicit([0, 1, 1, 2])), 0.8),
    (spectra.wiener(S.explicit([0, 0, 1, 3])), 0.8),
    (spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), 0.8),
    (spectra.gaussian(S.power(1.0, -1.0)), 0.5),
    (spectra.analytic_korobov(0.5, S.explicit([1.0, 1.5, 2.0]), S.constant(1.2)), 0.5),
    (spectra.custom_tabulated([[2.0, 0.5, 0.25, 0.125], [0.5, 0.3, 0.09]] * 3,
                              tail=spectra.TailModel("geometric", ratio=0.5), tau0=0.0), 0.7),
], ids=lambda x: x.family.value if isinstance(x, spectra.FamilySpec) else str(x))
def test_normalized_trace_is_the_trace_over_the_leading_power(spec, tau):
    """exp(log_normalized_trace) is trace_sum / L**tau, L the leading
    product, for every family (wiener's normalized trace used to read its
    second-ratio envelope: 3.10 against pi**2/8 at d = 1, tau = 1)."""
    for d in range(1, 6):
        p = ProductProblem.from_family(spec, d)
        want = products.trace_sum(p, tau) / p.leading_product ** tau
        assert math.exp(log_normalized_trace(p, tau)) == pytest.approx(want, rel=1e-12)
