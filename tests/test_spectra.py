import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tractal import spectra
from tractal.errors import ApproximateOnlyError, InvalidInputError
from tractal.sequences import SequenceDescriptor as S
from tractal.spectra import (
    factor_eigenvalue,
    gaussian_omega,
    second_ratio,
    tail_sum_H,
    tau_zero,
)

import helpers

OMEGA1 = (3.0 - math.sqrt(5.0)) / 2.0


def all_families():
    return [
        ("euler", spectra.euler(S.explicit([0, 1, 1, 2]))),
        ("wiener", spectra.wiener(S.explicit([0, 0, 1, 3]))),
        ("korobov", spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))),
        ("gaussian", spectra.gaussian(S.power(1.0, -1.0))),
        ("analytic_korobov", spectra.analytic_korobov(
            0.5, S.explicit([1.0, 1.5, 2.0]), S.constant(1.2))),
        ("custom", spectra.custom_tabulated(
            [[1.0, 0.5, 0.25, 0.125], [1.0, 0.3, 0.09]],
            tail=spectra.TailModel("geometric", ratio=0.5), tau0=0.0)),
    ]


# ---------------------------------------------------------------------------
# factor_eigenvalue
# ---------------------------------------------------------------------------

def test_euler_leading_value():
    spec = spectra.euler(S.constant(0))
    assert factor_eigenvalue(spec, 1, 1) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-14, abs=0)


@pytest.mark.parametrize("r,g", [(1.0, 1.0), (2.0, 0.3)])
def test_korobov_unit_leading(r, g):
    spec = spectra.korobov(S.constant(r), S.constant(g))
    for k in (1, 2, 9):
        assert factor_eigenvalue(spec, k, 1) == 1.0


def test_a_leading_eigenvalue_that_underflows_names_its_dimension():
    # (pi/2)**-(2k + 2) is the smallest double at k = 824 and 0.0 at k = 825
    spec = spectra.euler(S.power(1.0, 1.0))
    assert spec.factor(824).leading == 5e-324
    with pytest.raises(InvalidInputError,
                       match="leading eigenvalue underflows below the smallest double at k=825"):
        spec.factor(825)


def test_korobov_pairing():
    spec = spectra.korobov(S.constant(1.0), S.constant(0.7))
    assert factor_eigenvalue(spec, 1, 2) == factor_eigenvalue(spec, 1, 3) == 0.7
    assert factor_eigenvalue(spec, 1, 4) == factor_eigenvalue(spec, 1, 5) == pytest.approx(0.7 / 4)


def test_gaussian_second_eigenvalue():
    spec = spectra.gaussian(S.constant(1.0))
    assert factor_eigenvalue(spec, 1, 2) == pytest.approx((1 - OMEGA1) * OMEGA1, rel=1e-14, abs=0)


def test_analytic_korobov_pair_value():
    spec = spectra.analytic_korobov(0.5, S.constant(1.0), S.constant(1.0))
    for k in (1, 4):
        assert factor_eigenvalue(spec, k, 1) == 1.0
    assert factor_eigenvalue(spec, 1, 2) == 0.5
    assert factor_eigenvalue(spec, 1, 3) == 0.5


def test_wiener_approximate_flagging():
    spec = spectra.wiener(S.explicit([0, 2]))
    # r=0 is the plain min kernel and is exact
    assert factor_eigenvalue(spec, 1, 1, require_exact=True) == pytest.approx(
        (2.0 / math.pi) ** 2, rel=1e-14, abs=0)
    with pytest.raises(ApproximateOnlyError):
        factor_eigenvalue(spec, 2, 1, require_exact=True)
    # without the flag the leading-order term comes back
    assert factor_eigenvalue(spec, 2, 1) == pytest.approx((2.0 / math.pi) ** 6, rel=1e-13, abs=0)


def test_bad_indices():
    spec = spectra.euler(S.constant(0))
    with pytest.raises(InvalidInputError):
        factor_eigenvalue(spec, 1, 0)
    with pytest.raises(InvalidInputError):
        factor_eigenvalue(spec, 0, 1)


# ---------------------------------------------------------------------------
# gaussian_omega
# ---------------------------------------------------------------------------

def test_gaussian_omega_exact_value():
    assert gaussian_omega(1.0) == pytest.approx(2.0 / (3.0 + math.sqrt(5.0)), rel=1e-15, abs=0)


def test_gaussian_omega_small_limit():
    g2 = 1e-9
    assert gaussian_omega(g2) / g2 == pytest.approx(1.0, abs=1e-6)


def test_gaussian_omega_monotone_pair():
    assert gaussian_omega(2.0) > gaussian_omega(1.0)


def test_gaussian_omega_domain():
    with pytest.raises(InvalidInputError):
        gaussian_omega(0.0)


@pytest.mark.parametrize("gamma_sq", [S.constant(4e32), S.power(1e40, -2.0),
                                      S.explicit([4e32, 1.0, 0.5])])
def test_gaussian_refuses_a_ratio_that_rounds_to_one(gamma_sq):
    """omega(gamma^2(1)) == 1.0 would make the tail sums divide by zero and
    the leading eigenvalue 0.0; the largest gamma^2 is the first."""
    with pytest.raises(InvalidInputError, match="omega rounds to 1"):
        spectra.gaussian(gamma_sq)


def test_gaussian_just_below_the_rounding_is_accepted():
    spec = spectra.gaussian(S.constant(1e32))
    assert gaussian_omega(1e32) < 1.0
    assert spec.factor(1).leading == 1.0 - gaussian_omega(1e32) > 0.0


@given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=200, deadline=None)
def test_gaussian_omega_increasing_property(a, b):
    wa, wb = gaussian_omega(a), gaussian_omega(b)
    assert 0.0 < wa < 1.0
    if a < b:
        assert wa <= wb
    if b > a * (1.0 + 1e-9):  # strict once the gap clears float resolution
        assert wa < wb


# ---------------------------------------------------------------------------
# second_ratio
# ---------------------------------------------------------------------------

def test_second_ratio_values():
    assert second_ratio(spectra.euler(S.constant(0)), 1) == pytest.approx(1.0 / 9.0, rel=1e-15,
                                                                          abs=0)
    ko = spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))
    assert second_ratio(ko, 3) == pytest.approx(1.0 / 9.0, rel=1e-15, abs=0)
    assert second_ratio(spectra.gaussian(S.constant(1.0)), 1) == pytest.approx(OMEGA1, rel=1e-14,
                                                                               abs=0)


def test_second_ratio_wiener_envelope():
    """wiener's h_k is the ratio its factors hold, the euler formula's, not
    the envelope (1 + r_k)**-2 (1, 1/4, 1/16 here); the envelope's rate
    decides its verdicts."""
    r = S.explicit([0, 1, 3])
    spec, euler = spectra.wiener(r), spectra.euler(r)
    for k, want in ((1, 1.0 / 9.0), (2, 1.0 / 81.0), (3, 3.0 ** -8)):
        assert second_ratio(spec, k) == second_ratio(euler, k) == pytest.approx(want, rel=1e-15,
                                                                                abs=0)
        fac = spec.factor(k)
        assert second_ratio(spec, k) == pytest.approx(fac.head[1] / fac.leading, rel=1e-14, abs=0)
    # r_k = k: the envelope's rate 2 liminf ln(1 + r_k)/ln k, where euler's is infinite
    assert spectra.second_ratio_limits(spectra.wiener(S.power(1.0, 1.0)))[0] == 2.0


def test_every_family_has_a_record():
    """A family without a record fails here, and all_families covers every
    record, so the map checks below read each one."""
    assert set(spectra._RECORDS) == set(spectra.Family)
    assert {spec.family for _, spec in all_families()} == set(spectra.Family)


@pytest.mark.parametrize("k", [1, 2, 10, 1000])
@pytest.mark.parametrize("name,spec", all_families())
def test_record_ratio_map_matches_its_value_map(name, spec, k):
    """h_k from the record's ratio map is lam(k, 2)/lam(k, 1) from its value
    map, wiener's included: its held values are euler's."""
    rec = spectra._RECORDS[spec.family]
    seq, h = rec.ratio(spec)
    value = rec.value(spec, rec.params(spec, k))
    assert math.isclose(h(seq.value(k)), value(2) / value(1), rel_tol=1e-13, abs_tol=0.0)


@pytest.mark.parametrize("name,spec", all_families())
def test_second_ratio_nonincreasing_in_k(name, spec):
    prev = None
    ks = list(range(1, 200)) + list(range(200, 10001, 97))
    for k in ks:
        h = second_ratio(spec, k)
        assert 0.0 < h <= 1.0
        if prev is not None:
            assert h <= prev + 1e-15
        prev = h


# ---------------------------------------------------------------------------
# tail_sum_H
# ---------------------------------------------------------------------------

def test_tail_sum_korobov_zeta():
    spec = spectra.korobov(S.constant(1.0), S.constant(1.0))
    assert tail_sum_H(spec, 1, 1.0) == pytest.approx(math.pi ** 2 / 3.0, rel=1e-12)


def test_tail_sum_gaussian_geometric():
    spec = spectra.gaussian(S.constant(1.0))
    assert tail_sum_H(spec, 1, 1.0) == pytest.approx(1.0 / (1.0 - OMEGA1), rel=1e-13, abs=0)


def test_tail_sum_euler_divergent():
    spec = spectra.euler(S.constant(0))
    assert tail_sum_H(spec, 1, 0.5) == math.inf
    ko = spectra.korobov(S.constant(1.0), S.constant(1.0))
    assert tail_sum_H(ko, 1, 0.5) == math.inf


def test_tail_sum_domain():
    with pytest.raises(InvalidInputError):
        tail_sum_H(spectra.gaussian(S.constant(1.0)), 1, 0.0)


@pytest.mark.parametrize("name,spec", all_families())
def test_tail_sum_matches_direct_summation(name, spec):
    # tau at least 0.1 above the divergence threshold
    tau = tau_zero(spec).hi + 0.1 if name != "wiener" else 0.7
    for k in (1, 2, 3):
        H = tail_sum_H(spec, k, tau)
        fac = spec.factor(k)
        lam2 = fac.head[1]
        head = float(np.sum((np.array(fac.values(2, 1201)) / lam2) ** tau))
        tail = helpers.factor_tau_tail(spec, k, tau, 1200) / lam2 ** tau
        assert H == pytest.approx(head + tail, rel=1e-9)


@pytest.mark.parametrize("name,spec", all_families())
def test_tail_sum_sup_attained_at_first_dimension(name, spec):
    tau = tau_zero(spec).hi + 0.15
    h1 = tail_sum_H(spec, 1, tau)
    sup = max(tail_sum_H(spec, k, tau) for k in range(1, 101))
    assert sup == h1


@pytest.mark.parametrize("name,spec", all_families())
def test_eigenvalues_nonincreasing_in_j(name, spec):
    for k in (1, 7, 100):
        vals = np.array(spec.factor(k).values(1, 1001))
        assert np.all(np.diff(vals) <= 0)
        assert vals[-1] < vals[0]  # decays toward zero


# ---------------------------------------------------------------------------
# tau_zero
# ---------------------------------------------------------------------------

def test_tau_zero_values():
    assert tau_zero(spectra.euler(S.constant(1))) == spectra.Interval.point(0.25)
    assert tau_zero(spectra.gaussian(S.constant(1.0))) == spectra.Interval.point(0.0)
    w = tau_zero(spectra.wiener(S.constant(0)))
    assert (w.lo, w.hi) == (0.0, 0.6)
    assert tau_zero(spectra.korobov(S.constant(2.0), S.constant(1.0))) == \
        spectra.Interval.point(0.25)


def test_tau_zero_custom():
    declared = spectra.custom_tabulated([[1.0, 0.5]], tau0=0.1,
                                        tail=spectra.TailModel("geometric", ratio=0.5))
    assert tau_zero(declared) == spectra.Interval.point(0.1)
    unknown = spectra.custom_tabulated([[1.0, 0.5]])
    with pytest.warns(UserWarning, match="tau0"):
        iv = tau_zero(unknown)
    assert iv.lo == 0.0 and math.isinf(iv.hi)


# ---------------------------------------------------------------------------
# tail ratio sums
# ---------------------------------------------------------------------------

def test_analytic_korobov_sublinear_exponent():
    # b < 1 exercises the incomplete-gamma tail machinery
    spec = spectra.analytic_korobov(0.6, S.constant(1.5), S.constant(0.8))
    tau = 0.7
    c = tau * 1.5 * math.log(1.0 / 0.6)
    direct, m = 0.0, 1
    while True:
        t = math.exp(-c * (m ** 0.8 - 1.0))
        direct += 2.0 * t
        if t < 1e-19 * direct:
            break
        m += 1
    assert tail_sum_H(spec, 1, tau) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [
    S.power(1.0, -1.0),
    S.explicit([1.0], evaluator=lambda k: 1.0 / k, limit=0.0),
    S.explicit([1e-301, 0.0]),  # underflows to zero
])
def test_analytic_korobov_needs_b_bounded_away_from_zero(b):
    with pytest.raises(InvalidInputError, match="inf_k b_k must be positive"):
        spectra.analytic_korobov(0.5, S.constant(1.0), b)


@pytest.mark.parametrize("b", [
    S.power(2.0, 0.0), S.power(1.0, 0.5), S.log_growth(1.0), S.explicit([2.0, 1.0]),
    S.explicit([1.0], evaluator=lambda k: 1.0 + 1.0 / k),  # limit undeclared
])
def test_analytic_korobov_accepts_b_bounded_away_from_zero(b):
    spectra.analytic_korobov(0.5, S.constant(1.0), b)


@pytest.mark.parametrize("row", [[math.inf, 0.5], [1.0, 0.5, math.nan], [1.0, math.inf]])
def test_custom_tables_must_be_finite(row):
    with pytest.raises(InvalidInputError, match="table 1: eigenvalues must be finite"):
        spectra.custom_tabulated([row])


@pytest.mark.parametrize("exponent", [0.0, -1.0, math.inf, math.nan])
def test_power_tail_exponent_must_be_positive_and_finite(exponent):
    with pytest.raises(InvalidInputError, match="tail: power exponent"):
        spectra.TailModel("power", exponent=exponent)


def test_declared_custom_limits_may_be_infinite():
    spec = spectra.custom_tabulated([[1.0, 0.5]], tau0=math.inf, a_star=math.inf,
                                    b_limit=math.inf)
    assert spec.declared_tau0 == spec.declared_a_star == spec.declared_b_limit == math.inf


def test_family_validation_errors():
    with pytest.raises(InvalidInputError):
        spectra.korobov(S.constant(0.0), S.constant(1.0))  # r must be positive
    with pytest.raises(InvalidInputError):
        spectra.korobov(S.constant(1.0), S.constant(1.5))  # g <= 1
    with pytest.raises(InvalidInputError):
        spectra.gaussian(S.power(1.0, 2.0))  # must be nonincreasing
    with pytest.raises(InvalidInputError):
        spectra.analytic_korobov(1.5, S.constant(1.0), S.constant(1.0))
    with pytest.raises(InvalidInputError):
        spectra.analytic_korobov(0.5, S.constant(1.0), S.power(1.0, -1.0))  # inf b = 0
    with pytest.raises(InvalidInputError):
        spectra.euler(S.explicit([0.5]))  # integer smoothness required
    with pytest.raises(InvalidInputError):
        spectra.custom_tabulated([[1.0]])


def test_criterion_support():
    assert spectra.wiener(S.constant(1)).criterion_support == {"nor"}
    assert spectra.korobov(S.constant(1.0), S.constant(0.5)).criterion_support == {"abs", "nor"}
    assert spectra.euler(S.constant(0)).criterion_support == {"abs", "nor"}
    assert spectra.gaussian(S.constant(1.0)).criterion_support == {"abs", "nor"}
    assert spectra.analytic_korobov(
        0.5, S.constant(1.0), S.constant(1.0)).criterion_support == {"abs", "nor"}
    unit = spectra.custom_tabulated([[1.0, 0.5]], tau0=0.0)
    assert unit.criterion_support == {"abs", "nor"}
    scaled = spectra.custom_tabulated([[2.0, 1.0]], tau0=0.0)
    assert scaled.criterion_support == {"nor"}


# ---------------------------------------------------------------------------
# closed-form tails from scipy's Hurwitz zeta
# ---------------------------------------------------------------------------

FLAT_POWER_TABLE = spectra.custom_tabulated(
    [[1.0] + [0.5] * 999], tail=spectra.TailModel("power", exponent=3.0), tau0=0.5)


def _flat_power_direct(tau, terms=200_000):
    """999 unit ratios in the table, then sum_{j>1000} (1000/j)**(3 tau) term by term."""
    j = np.arange(1001, 1001 + terms, dtype=float)
    return 999.0 + float(np.sum((1000.0 / j) ** (3.0 * tau)))


@pytest.mark.parametrize("r", [3, 8, 12, 20, 30])
def test_euler_tail_matches_partial_sum(r):
    # x = 2r + 2 >= 8, so 10^4 terms leave a tail below 1e-30
    x = 2.0 * r + 2.0
    j = np.arange(2, 10_002, dtype=float)
    direct = float(np.sum((3.0 / (2.0 * j - 1.0)) ** x))
    assert tail_sum_H(spectra.euler(S.constant(r)), 1, 1.0) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("r", [20, 500, 4999])
def test_euler_tail_finite_for_steep_factors(r):
    H = tail_sum_H(spectra.euler(S.constant(r)), 1, 1.0)
    assert 1.0 <= H <= 1.0 + 1e-9  # the j = 3 term is 0.6**(2r+2)


def test_custom_power_tail_flat_table():
    assert tail_sum_H(FLAT_POWER_TABLE, 1, 2.0) == pytest.approx(1198.5004999995333, rel=1e-12)


@pytest.mark.parametrize("tau", [40.0, 400.0, 10_000.0 / 3.0])
def test_custom_power_tail_steep_exponents(tau):
    # x = 3 tau from 120 to 10^4: 1000**x overflows, the sum stays near 999
    H = tail_sum_H(FLAT_POWER_TABLE, 1, tau)
    assert H == pytest.approx(_flat_power_direct(tau), rel=1e-12)


# ---------------------------------------------------------------------------
# FactorSpectrum immutability
# ---------------------------------------------------------------------------

def test_factor_head_is_read_only_and_long_requests_leave_it():
    fac = spectra.korobov(S.constant(1.25), S.constant(0.375)).factor(1)
    head, ratio_head = fac.head, fac.ratio_head
    head_ratios, head_runs = ratio_head
    assert type(head) is tuple and len(head) == fac.HEAD
    assert type(head_ratios) is tuple and len(head_ratios) == fac.HEAD - 1
    assert type(head_runs) is tuple and len(head_runs) == fac.HEAD - 1
    long = fac.values(1, 1001)
    assert type(long) is tuple and len(long) == 1000 and long[:fac.HEAD] == head
    ratios, runs = fac.ratio_runs(2, 1001)
    assert type(ratios) is tuple and len(ratios) == 999 and ratios[:fac.HEAD - 1] == head_ratios
    assert runs[:fac.HEAD - 1] == head_runs  # the pairs j = 2m, 2m + 1 end inside the head
    assert fac.head is head and fac.values(1, 6) == head[:5]
    assert fac.ratio_head is ratio_head
    assert fac.ratio_head[0] is head_ratios and fac.ratio_head[1] is head_runs
    assert fac.head[1] == 0.375 == fac.eigenvalue(2)


# runs tied with the leading value, across j = 33/34, and of 0.0 past the
# table; lam(36) and lam(37) differ by an ulp but have equal -ln ratios
RUN_TABLE = spectra.custom_tabulated([[1.0, 1.0, 1.0] + [0.5] * 28 + [0.25] * 4
                                      + [1e-200, math.nextafter(1e-200, 0.0)]])


def _factors_for_block_identity():
    facs = [spec.factor(k) for _, spec in all_families() for k in (1, 3)]
    power = spectra.custom_tabulated([[1.0, 0.5, 0.25]], tail=spectra.TailModel(
        "power", exponent=1.5), tau0=1.0)
    no_tail = spectra.custom_tabulated([[2.0, 1.0, 0.5, 0.25]])
    facs += [power.factor(1), no_tail.factor(1), RUN_TABLE.factor(1)]
    return facs + [helpers.scaled_factor(f, c) for f, c in zip(facs[::3], (0.3, 7.5, 3.0, 0.3, 7.5))]


def _naive_runs(vals):
    """Run lengths of equal neighbours, as ratio_runs gives them: all ones
    where no two neighbours are equal."""
    runs = [0] * len(vals)
    i = 0
    while i < len(vals):
        n = 1
        while i + n < len(vals) and vals[i + n] == vals[i]:
            n += 1
        runs[i] = n
        i += n
    return tuple(runs)


@pytest.mark.parametrize("fac", _factors_for_block_identity())
@pytest.mark.parametrize("j0, j1", [(1, 33), (1, 34), (1, 35), (2, 200), (20, 90), (33, 35),
                                    (34, 130), (1000, 1010)])
def test_blocks_equal_eigenvalues_bit_for_bit(fac, j0, j1):
    """Inside the cached head and past it, values() holds exactly the doubles
    that eigenvalue() returns, and ratio_runs() their -ln ratios to the
    leading one (+inf at a zero eigenvalue) with the runs of equal
    eigenvalues, cut at the ends of the range."""
    want = [fac.eigenvalue(j) for j in range(j0, j1)]
    assert fac.values(j0, j1) == tuple(want)
    assert all(type(v) is float for v in want)
    j2 = max(j0, 2)
    log_lead = math.log(fac.eigenvalue(1))
    ratios = tuple(log_lead - math.log(v) if v > 0.0 else math.inf for v in want[j2 - j0:])
    assert fac.ratio_runs(j2, j1) == (ratios, _naive_runs(want[j2 - j0:]))
    head = fac.head[1:]
    assert fac.ratio_head == (tuple(log_lead - math.log(v) if v > 0.0 else math.inf
                                    for v in head), _naive_runs(head))


def test_runs_are_keyed_on_eigenvalues():
    fac = RUN_TABLE.factor(1)
    assert fac.ratio_runs(36, 38)[0][0] == fac.ratio_runs(36, 38)[0][1]
    runs = fac.ratio_runs(2, 40)[1]
    assert runs[:6] == (2, 0, 28, 0, 0, 0) and runs[30:] == (4, 0, 0, 0, 1, 1, 2, 0)
    assert fac.ratio_head[1][-2:] == (2, 0)  # the run j = 32..35, cut at the head


def test_factors_without_runs_share_one_head_runs_tuple():
    euler = spectra.euler(S.constant(1)).factor(1)
    ones = euler.ratio_head[1]
    assert ones == (1,) * (spectra.FactorSpectrum.HEAD - 1)
    assert spectra.gaussian(S.constant(0.5)).factor(3).ratio_head[1] is ones
    assert helpers.scaled_factor(euler, 2.5).ratio_head[1] is ones
    assert euler.ratio_runs(40, 45)[1] == (1,) * 5
    # the zeros past a table are one run, in the factor's own tuple
    zeros = spectra.custom_tabulated([[1.0, 0.5, 0.25]]).factor(1)
    assert zeros.ratio_head[1] == (1, 1, 30) + (0,) * 29


def test_analytic_korobov_exponent_beyond_the_double_range():
    # m**b_k overflows from m = 2 on, so omega**(a_k m**b_k) underflows to 0
    fac = spectra.analytic_korobov(0.5, S.constant(1.0), S.constant(1100.0)).factor(1)
    assert fac.values(1, 6) == (1.0, 0.5, 0.5, 0.0, 0.0)
    assert fac.eigenvalue(10**6) == 0.0


# ---------------------------------------------------------------------------
# log_trace_profile work: terms reused while the parameters repeat
# ---------------------------------------------------------------------------

def _counting(monkeypatch, name):
    """Replace traces.<name>, a tail-sum helper, by a wrapper that records its arguments."""
    from tractal import traces

    calls, fn = [], getattr(traces, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(traces, name, counted)
    return calls


def test_qpt_profiles_of_a_constant_sequence_sum_one_tail_each(monkeypatch):
    from tractal import complexity

    spec = spectra.euler(S.constant(1))
    want = complexity.qpt_functional(spec, 0.4, 30)
    calls = _counting(monkeypatch, "_power_tail")
    got = complexity.qpt_functional(spec, 0.4, 30)
    assert len(calls) == 30  # one per profile, not 1 + 2 + ... + 30 = 465
    assert got.tobytes() == want.tobytes()


def test_trace_at_large_d_builds_no_factor():
    from tractal import products

    spec = spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))
    spectra._factor.cache_clear()
    table = spec.dimension_table()
    assert math.isfinite(products.trace_sum(products.ProductProblem.from_family(spec, 10**5), 1.0))
    assert table.factors == {} and table.ratio_heads == []
    assert len(table.seconds) == 10**5 and table.seconds[:3] == [1.0, 0.25, 1.0 / 9.0]


@pytest.mark.parametrize("normalized", [True, False])
def test_custom_profile_sums_its_last_table_once(monkeypatch, normalized):
    rows = [[1.0, 0.5, 0.25], [1.0, 0.3, 0.09, 0.01], [2.0, 0.5, 0.1]]
    spec = spectra.custom_tabulated(rows, tail=spectra.TailModel("power", exponent=3.0))
    calls = _counting(monkeypatch, "_custom_tail_sum")
    spectra.log_trace_profile(spec, 0.75, 50, normalized)
    assert [list(call[0]) for call in calls] == rows
