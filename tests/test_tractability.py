import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import spectra
from tractal.errors import InvalidInputError, UnsupportedCriterionError
from tractal.sequences import SequenceDescriptor as S
from tractal.tractability import (
    classify,
    euler_abs_spt_exponent,
    g_function,
    g_root,
    korobov_exp_weight_spt_exponent,
    qpt_exponent,
    riemann_zeta,
    spt_exponent,
)
from tractal.xreal import INF, Interval, ceil_exp, two_over

OMEGA1 = spectra.gaussian_omega(1.0)


# ---------------------------------------------------------------------------
# extended reals
# ---------------------------------------------------------------------------

def test_two_over_conventions():
    assert two_over(INF) == 0.0
    assert two_over(0.0) == INF
    assert two_over(4.0) == 0.5
    assert max(1.0, INF) == INF
    with pytest.raises(ValueError):
        two_over(-1.0)


def test_ceil_exp():
    assert ceil_exp(0.0) == 1
    assert ceil_exp(math.log(7.2)) == 8
    big = ceil_exp(1000.0)
    assert big > 10 ** 430
    assert math.log(float(big)) if big < 10**300 else True


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    iv = Interval(1.0, INF)
    assert 5.0 in iv and 0.5 not in iv


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_zeta_classical_values():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90.0) < 1e-12


def test_zeta_against_direct_summation():
    # independent check: direct sum to 1e6 plus the integral bracket midpoint
    s = 1.5
    N = 10 ** 6
    j = np.arange(1, N + 1, dtype=float)
    direct = float(np.sum(j ** -s))
    direct += (N + 0.5) ** (1 - s) / (s - 1)  # midpoint integral tail
    assert riemann_zeta(s) == pytest.approx(direct, rel=1e-9)
    assert riemann_zeta(s) == pytest.approx(2.6123753486854883, rel=1e-9)


def test_zeta_domain():
    with pytest.raises(InvalidInputError):
        riemann_zeta(1.0)


def test_g_values_and_bracket():
    assert abs(g_function(2.0) - 0.5) < 1e-10
    assert g_function(1.2) > 1.0 > g_function(1.5)
    assert g_function(1.0001) > 100.0  # blows up toward the pole
    with pytest.raises(InvalidInputError):
        g_function(1.0)


def test_g_strictly_decreasing():
    grid = np.linspace(1.05, 10.0, 40)
    vals = [g_function(float(x)) for x in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_g_root_residual():
    x0 = g_root()
    assert 1.2 < x0 < 1.5
    assert abs(g_function(x0) - 1.0) < 1e-10


def test_g_reduction_vs_direct_series():
    for x in (1.2, 1.5, 3.0):
        N = 10 ** 6
        j = np.arange(1, N + 1, dtype=float)
        direct = float(np.sum((math.pi * (j - 0.5)) ** -x))
        u = N + 0.5  # Euler-Maclaurin continuation of the series
        direct += math.pi ** -x * (u ** (1 - x) / (x - 1) + 0.5 * u ** -x
                                   + x * u ** (-x - 1) / 12.0)
        assert g_function(x) == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------------------
# limit maps and exponent formulas
# ---------------------------------------------------------------------------

def test_second_ratio_limits():
    r1 = S.constant(1.0)
    assert spectra.second_ratio_limits(spectra.korobov(r1, S.power(0.5, -2.0))) == (2.0, 0.0)
    assert spectra.second_ratio_limits(spectra.korobov(r1, S.constant(0.25))) == (0.0, 0.25)
    rate, lim = spectra.second_ratio_limits(spectra.euler(S.log_growth(1.0)))
    assert rate == pytest.approx(2.0 * math.log(3.0), rel=1e-14, abs=0) and lim == 0.0
    ak = spectra.analytic_korobov(0.5, S.explicit([1.0, 2.0, 3.0]), S.constant(1.0))
    assert spectra.second_ratio_limits(ak) == (0.0, 0.125)
    custom = spectra.custom_tabulated([[1.0, 0.5]], a_star=2.0, b_limit=INF)
    assert spectra.second_ratio_limits(custom) == (2.0, 0.0)
    undecided = spectra.korobov(r1, S.explicit([0.5], evaluator=lambda k: 0.5 / k))
    assert spectra.second_ratio_limits(undecided) == (None, None)
    # classify turns lim h_k into B = ln(1/lim h_k), +oo at 0
    assert classify(ak, "nor").b == pytest.approx(3.0 * math.log(2.0))
    assert classify(spectra.korobov(r1, S.power(1.0, -1.0)), "nor").b == INF
    assert classify(spectra.korobov(r1, S.constant(0.25)), "nor").b == pytest.approx(math.log(4.0))


def test_spt_exponent_values():
    assert spt_exponent(1.0, Interval.point(0.0)) == Interval.point(2.0)
    # A = 2 ln 3 with tau0 = 1/2 gives max(1/ln3, 1) = 1
    e = spt_exponent(2.0 * math.log(3.0), Interval.point(0.5))
    assert e == Interval.point(1.0)
    w = spt_exponent(2.0, Interval(0.0, 0.6))
    assert w == Interval(1.0, 1.2)
    assert spt_exponent(INF, Interval.point(0.0)) == Interval.point(0.0)
    with pytest.raises(InvalidInputError):
        spt_exponent(0.0, Interval.point(0.0))


def test_qpt_exponent_values():
    assert qpt_exponent(INF, Interval.point(0.25)) == Interval.point(0.5)
    b = math.log(1.0 / OMEGA1)
    e = qpt_exponent(b, Interval.point(0.0))
    assert e.lo == pytest.approx(2.0780869212350273, rel=1e-12)
    with pytest.raises(InvalidInputError):
        qpt_exponent(0.0, Interval.point(0.0))


@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_exponent_monotone_in_rate(a1, a2):
    tau0 = Interval.point(0.1)
    lo, hi = min(a1, a2), max(a1, a2)
    assert spt_exponent(hi, tau0).lo <= spt_exponent(lo, tau0).lo
    assert qpt_exponent(hi, tau0).lo <= qpt_exponent(lo, tau0).lo


def test_euler_abs_exponent_regimes():
    x0 = g_root()
    assert euler_abs_spt_exponent(S.constant(0)) == pytest.approx(x0, rel=1e-12)
    # growing smoothness: the series-root term vanishes
    assert euler_abs_spt_exponent(S.log_growth(1.0)) == 0.5  # 1/(r1+1), r1=1
    assert euler_abs_spt_exponent(S.explicit([1, 4])) == pytest.approx(max(x0 / 5.0, 0.5))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_korobov_polynomial_weights():
    rep = classify(spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), "nor")
    assert rep.spt and rep.pt and rep.qpt and rep.uwt and rep.wt and not rep.curse
    assert rep.a_star == 2.0
    assert rep.p_star == Interval.point(1.0)
    assert rep.b == INF
    assert rep.t_star == Interval.point(1.0)


def test_classify_korobov_curse():
    rep = classify(spectra.korobov(S.constant(1.0), S.constant(1.0)), "nor")
    assert rep.curse is True and rep.wt is False and rep.spt is False
    assert rep.p_star is None and rep.t_star is None


def test_classify_gaussian_decaying_shapes():
    rep = classify(spectra.gaussian(S.power(1.0, -2.0)), "nor")
    assert rep.spt and rep.p_star == Interval.point(1.0)
    assert rep.t_star == Interval.point(0.0)  # B = inf and tau0 = 0


def test_classify_gaussian_constant_shapes():
    rep = classify(spectra.gaussian(S.constant(1.0)), "nor")
    assert rep.spt is False and rep.qpt is True
    assert rep.t_star.lo == pytest.approx(2.0 / math.log(1.0 / OMEGA1), rel=1e-13, abs=0)


def test_classify_euler_nor():
    rep = classify(spectra.euler(S.constant(0)), "nor")
    assert rep.spt is False and rep.qpt is True
    assert rep.t_star == Interval.point(1.0)  # 1/(r1+1)
    rep2 = classify(spectra.euler(S.explicit([1, 2, 5])), "nor")
    assert rep2.t_star == Interval.point(0.5)


def test_classify_euler_abs():
    rep = classify(spectra.euler(S.constant(0)), "abs")
    assert rep.spt is True and rep.qpt is True and rep.curse is False
    assert rep.p_star == Interval.point(g_root())
    assert rep.t_star is None


def test_classify_euler_abs_with_undeclared_smoothness_limit():
    # r_k = floor(k/2) declares its growth rate but not its limit
    r = S.explicit((), evaluator=lambda k: float(k // 2), liminf_log_ratio=-1.0)
    rep = classify(spectra.euler(r), "abs")
    assert rep.spt is True and rep.qpt is True
    assert rep.p_star is None and rep.provenance["p_star"].startswith("open: ")
    nor = classify(spectra.euler(r), "nor")
    assert nor.spt is True and nor.b is None and nor.provenance["b"].startswith("undecidable")


def test_classify_gaussian_abs():
    rep = classify(spectra.gaussian(S.constant(1.0)), "abs")
    assert rep.spt is True and rep.p_star == Interval.point(2.0)
    rep2 = classify(spectra.gaussian(S.power(1.0, -2.0)), "abs")
    assert rep2.p_star == Interval.point(1.0)


def test_classify_gaussian_abs_with_undeclared_decay_rate():
    # gamma_k^2 = 1/k from an evaluator that declares no rate
    gamma_sq = S.explicit((), evaluator=lambda k: 1.0 / k)
    rep = classify(spectra.gaussian(gamma_sq), "abs")
    assert rep.p_star is None
    assert rep.provenance["p_star"] == "open: shape-parameter decay rate undeclared"


def test_classify_wiener():
    rep = classify(spectra.wiener(S.power(1.0, 1.0)), "nor")
    assert rep.spt is True
    assert rep.p_star == Interval(1.0, 1.2)
    assert rep.qpt is True  # implied by SPT
    assert rep.t_star is None and rep.b is None
    bounded = classify(spectra.wiener(S.constant(2)), "nor")
    assert bounded.spt is False
    assert bounded.qpt is None and bounded.curse is None
    assert bounded.st_weakly_tractable(1.0, 2.0) is True
    assert bounded.st_weakly_tractable(1.0, 0.5) is None
    with pytest.raises(UnsupportedCriterionError):
        classify(spectra.wiener(S.constant(1)), "abs")


def test_classify_analytic_korobov():
    rep = classify(spectra.analytic_korobov(0.5, S.constant(2.0), S.constant(1.0)), "nor")
    assert rep.spt is False and rep.qpt is True
    assert rep.t_star == Interval.point(1.0 / math.log(2.0))
    grow = classify(spectra.analytic_korobov(
        0.5, S.power(1.0, 1.0), S.constant(1.0)), "nor")
    assert grow.spt is True and grow.t_star == Interval.point(0.0)


def test_classify_custom_declared_and_unknown():
    spec = spectra.custom_tabulated([[1.0, 0.5], [1.0, 0.25]], tau0=0.0,
                                    a_star=2.0, b_limit=INF,
                                    tail=spectra.TailModel("geometric", ratio=0.5))
    rep = classify(spec, "nor")
    assert rep.spt is True and rep.p_star == Interval.point(1.0)
    blank = spectra.custom_tabulated([[1.0, 0.5]], tau0=0.0)
    rep2 = classify(blank, "nor")
    assert rep2.spt is None and rep2.qpt is None and rep2.curse is None
    assert "undecidable" in rep2.provenance["a_star"]


@pytest.mark.parametrize("spec,criterion", [
    (spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), "nor"),
    (spectra.korobov(S.constant(1.0), S.constant(1.0)), "abs"),
    (spectra.gaussian(S.constant(1.0)), "nor"),
    (spectra.gaussian(S.power(1.0, -1.0)), "abs"),
    (spectra.euler(S.constant(1)), "nor"),
    (spectra.euler(S.log_growth(2.0)), "abs"),
    (spectra.analytic_korobov(0.5, S.constant(1.0), S.constant(1.0)), "nor"),
    (spectra.wiener(S.power(1.0, 2.0)), "nor"),
    (spectra.wiener(S.constant(0)), "nor"),
])
def test_flag_lattice(spec, criterion):
    rep = classify(spec, criterion)
    assert rep.spt == rep.pt
    assert rep.qpt == rep.uwt == rep.wt
    if rep.wt is not None:
        assert rep.curse == (not rep.wt)
    if rep.spt:
        assert rep.qpt  # SPT implies the whole cluster
    assert rep.st_weakly_tractable(0.5, 1.5) is True
    assert rep.st_weakly_tractable(2.0, 1.0) == rep.qpt
    with pytest.raises(InvalidInputError):
        rep.st_weakly_tractable(0.0, 1.0)


def test_exp_weight_crosscheck():
    r = S.log_growth(1.0)
    rep = classify(spectra.korobov(r, spectra.korobov_exp_weights(r)), "nor")
    alt = korobov_exp_weight_spt_exponent(r)
    assert rep.p_star.is_point
    assert abs(rep.p_star.lo - alt) <= 1e-12
    r1 = S.constant(1.0)
    rep1 = classify(spectra.korobov(r1, spectra.korobov_exp_weights(r1)), "nor")
    assert rep1.spt is False and korobov_exp_weight_spt_exponent(r1) is None


def test_report_json_schema():
    rep = classify(spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), "nor")
    doc = rep.to_json_dict()
    assert list(doc) == ["criterion", "spt", "pt", "qpt", "uwt", "wt", "curse",
                         "p_star", "t_star", "a_star", "b", "tau0", "provenance"]
    assert doc["p_star"] == {"lo": 1.0, "hi": 1.0}
    assert doc["b"] == "inf"
    assert doc["tau0"] == {"lo": 0.5, "hi": 0.5}
    import json
    json.dumps(doc)  # must be strictly serializable


def test_report_is_frozen_and_derives_the_equivalent_flags():
    rep = classify(spectra.gaussian(S.constant(1.0)), "nor")
    for name in ("spt", "qpt", "pt", "uwt", "wt", "curse"):
        with pytest.raises(AttributeError):
            setattr(rep, name, None)
    assert (rep.pt, rep.uwt, rep.wt, rep.curse) == (rep.spt, rep.qpt, rep.qpt, not rep.qpt)


# ---------------------------------------------------------------------------
# exponents against the spectra they summarize
# ---------------------------------------------------------------------------

def _log_slope(spec, k1, k2):
    """Two-point slope of ln(1/h_k) against ln k."""
    rise = math.log(spectra.second_ratio(spec, k1)) - math.log(spectra.second_ratio(spec, k2))
    return rise / math.log(k2 / k1)


@given(st.floats(0.05, 1.0), st.floats(-4.0, -0.1), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_korobov_power_weights_slope_is_a_star(c, alpha, r):
    spec = spectra.korobov(S.constant(r), S.power(c, alpha))
    rep = classify(spec, "nor")
    assert math.isclose(_log_slope(spec, 10**4, 10**6), rep.a_star, rel_tol=1e-12)


@given(st.floats(0.01, 10.0), st.floats(-3.0, -0.5))
@settings(max_examples=60, deadline=None)
def test_gaussian_power_shape_slope_is_a_star(c, alpha):
    # omega(x) = x (1 - 2x + O(x^2)): the slope reaches -alpha only once
    # gamma_k^2 is small, so it is taken far out
    spec = spectra.gaussian(S.power(c, alpha))
    rep = classify(spec, "nor")
    assert math.isclose(_log_slope(spec, 10**6, 10**12), rep.a_star, rel_tol=0.01)


@given(st.floats(0.1, 5.0), st.floats(0.05, 0.95), st.booleans())
@settings(max_examples=60, deadline=None)
def test_log_growth_slope_is_a_star_within_a_ceiling_step(theta, omega, is_euler):
    # ln(1/h_k) is ceil(theta ln(k+1)) times a step: one step of the
    # ceiling moves the slope by step / ln(k2/k1)
    if is_euler:
        spec, step = spectra.euler(S.log_growth(theta)), 2.0 * math.log(3.0)
    else:
        spec = spectra.analytic_korobov(omega, S.log_growth(theta), S.constant(1.0))
        step = math.log(1.0 / omega)
    k1, k2 = 10**4, 10**6
    rep = classify(spec, "nor")
    # (1 + 1e-3) covers ln((k2+1)/(k1+1)) against ln(k2/k1)
    assert abs(_log_slope(spec, k1, k2) - rep.a_star) <= step / math.log(k2 / k1) * (1 + 1e-3)


@given(st.one_of(
    st.integers(0, 5).map(lambda r: spectra.euler(S.constant(r))),
    st.floats(0.01, 1.0).map(lambda g: spectra.korobov(S.constant(1.0), S.constant(g))),
    st.floats(0.01, 10.0).map(lambda g2: spectra.gaussian(S.constant(g2))),
    st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 5.0), st.floats(0.2, 3.0)).map(
        lambda t: spectra.analytic_korobov(t[0], S.constant(t[1]), S.constant(t[2]))),
))
@settings(max_examples=60, deadline=None)
def test_constant_parameters_b_is_the_second_ratio_log(spec):
    rep = classify(spec, "nor")
    assert rep.b == -math.log(spectra.second_ratio(spec, 10**6))
    # and the second ratio is the one of the factor spectrum
    fac = spec.factor(10**6)
    assert math.isclose(spectra.second_ratio(spec, 10**6), fac.head[1] / fac.leading,
                        rel_tol=1e-12)


@given(st.one_of(
    st.integers(0, 5).map(lambda r: spectra.euler(S.constant(r))),
    st.floats(0.1, 5.0).map(lambda t: spectra.euler(S.log_growth(t))),
    st.floats(0.2, 4.0).map(lambda r: spectra.korobov(S.constant(r), S.constant(0.5))),
    st.tuples(st.floats(0.2, 4.0), st.floats(0.0, 2.0)).map(
        lambda t: spectra.korobov(S.power(t[0], t[1]), S.power(1.0, -1.0))),
))
@settings(max_examples=60, deadline=None)
def test_tail_sums_diverge_exactly_below_tau0(spec):
    tau0 = classify(spec, "nor").tau0.lo
    assert spectra.tail_sum_H(spec, 1, tau0 * (1 - 1e-9)) == INF
    assert math.isfinite(spectra.tail_sum_H(spec, 1, tau0 * (1 + 1e-6)))


@given(st.one_of(
    st.floats(0.01, 10.0).map(lambda g2: spectra.gaussian(S.constant(g2))),
    st.tuples(st.floats(0.01, 10.0), st.floats(-3.0, 0.0)).map(
        lambda t: spectra.gaussian(S.power(t[0], t[1]))),
    st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 5.0)).map(
        lambda t: spectra.analytic_korobov(t[0], S.constant(t[1]), S.constant(1.0))),
    st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 5.0)).map(
        lambda t: spectra.analytic_korobov(t[0], S.log_growth(t[1]), S.constant(1.0))),
), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_tail_sums_finite_at_small_tau_where_tau0_is_zero(spec, k):
    assert classify(spec, "nor").tau0 == Interval.point(0.0)
    assert math.isfinite(spectra.tail_sum_H(spec, k, 1e-3))
