import math

import numpy as np
import pytest

import helpers
from tractal import nystrom
from tractal.errors import InvalidInputError, NoClosedFormError
from tractal.nystrom import (
    closed_form_eigenvalues,
    euler_iterated,
    gaussian_weighted,
    kernel_matrix,
    korobov_series,
    quadrature_rule,
    spectrum_estimate,
    verify_against_closed_form,
    wiener_integral,
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_gauss_legendre_two_point():
    x, w = quadrature_rule(nystrom.UNIT_INTERVAL, 2)
    assert x == pytest.approx([0.5 - 1 / (2 * math.sqrt(3)), 0.5 + 1 / (2 * math.sqrt(3))])
    assert w == pytest.approx([0.5, 0.5])


@pytest.mark.parametrize("n", [2, 7, 40])
def test_weights_sum_to_one(n):
    for domain in (nystrom.UNIT_INTERVAL, nystrom.WEIGHTED_LINE):
        _, w = quadrature_rule(domain, n)
        assert float(w.sum()) == pytest.approx(1.0, rel=1e-13, abs=0)
        assert np.all(w > 0)


# 1..64, and the node counts of the bench, `verify` and acceptance (n and 2n)
LEGENDRE_NODE_COUNTS = [*range(1, 65), *range(148, 153), *range(296, 305), 400,
                        *range(596, 605), 800]


@pytest.mark.parametrize("n", LEGENDRE_NODE_COUNTS)
def test_gauss_legendre_rule_is_numpy_leggauss(n):
    x, w = quadrature_rule(nystrom.UNIT_INTERVAL, n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert x.tobytes() == ((xr + 1.0) / 2.0).tobytes()
    assert w.tobytes() == (wr / 2.0).tobytes()


def test_hermite_single_node():
    x, w = quadrature_rule(nystrom.WEIGHTED_LINE, 1)
    assert x == pytest.approx([0.0], abs=1e-15)
    assert w == pytest.approx([1.0])


def test_polynomial_exactness():
    x, w = quadrature_rule(nystrom.UNIT_INTERVAL, 3)  # exact through degree 5
    for deg, exact in ((3, 0.25), (5, 1.0 / 6.0)):
        assert float(np.dot(w, x ** deg)) == pytest.approx(exact, rel=1e-14, abs=0)
    xh, wh = quadrature_rule(nystrom.WEIGHTED_LINE, 3)
    # moments of the weight exp(-x^2)/sqrt(pi): variance 1/2, fourth moment 3/4
    assert float(np.dot(wh, xh ** 2)) == pytest.approx(0.5, rel=1e-13, abs=0)
    assert float(np.dot(wh, xh ** 4)) == pytest.approx(0.75, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def test_min_kernel_entries():
    x = np.array([0.3, 0.7])
    for spec in (wiener_integral(0), euler_iterated(0)):
        assert kernel_matrix(spec, x)[0, 1] == kernel_matrix(spec, x)[1, 0] == 0.3


def test_gaussian_kernel_diagonal():
    K = kernel_matrix(gaussian_weighted(1.0), np.array([1.234, -0.5]))
    assert K[0, 0] == K[1, 1] == 1.0


def test_korobov_kernel_half_shift():
    spec = korobov_series(1.0, 1.0, series_cutoff=10 ** 5)
    val = kernel_matrix(spec, np.array([0.75, 0.25]))[0, 1]
    assert val == pytest.approx(1.0 - math.pi ** 2 / 6.0, abs=1e-8)


KOROBOV_BLOCK = nystrom._KOROBOV_BLOCK


@pytest.mark.parametrize("J", [1, KOROBOV_BLOCK - 1, KOROBOV_BLOCK, KOROBOV_BLOCK + 1, 2000])
@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 2.0, 3.0])
def test_korobov_kernel_matches_recurrence(alpha, J):
    # a 10-node grid keeps |x - y| away from 1, where the recurrence itself
    # drifts (see test_korobov_kernel_accurate_at_grid_corners)
    x, _ = quadrature_rule(nystrom.UNIT_INTERVAL, 10)
    for beta in (0.5, 1.0):
        K = kernel_matrix(korobov_series(alpha, beta, series_cutoff=J), x)
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(K, helpers.korobov_recurrence_matrix(x, alpha, beta, J),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 2.0])
def test_korobov_kernel_accurate_at_grid_corners(alpha):
    # the two ends of the 300-node grid, where |x - y| is closest to 1,
    # against the series summed term by term in extended precision
    x, _ = quadrature_rule(nystrom.UNIT_INTERVAL, 300)
    x = np.concatenate([x[:4], x[-4:]])
    J = 2000
    j = np.arange(1, J + 1, dtype=np.longdouble)
    coeff = 2.0 * j ** (-2.0 * np.longdouble(alpha))
    diff = np.subtract.outer(x, x).astype(np.longdouble)
    two_pi = 4.0 * np.arccos(np.longdouble(0.0))
    exact = 1.0 + np.cos(two_pi * diff[..., None] * j) @ coeff
    scale = 1.0 + float(coeff.sum())  # the sum of the terms' magnitudes
    K = kernel_matrix(korobov_series(alpha, 1.0, series_cutoff=J), x)
    assert float(np.abs(K - exact).max()) <= 1e-13 * scale


def test_wiener_kernel_entry_r1():
    # int_0^m (x-u)(y-u) du = m*(x*y - (x+y)*m/2 + m^2/3)
    x, y = 0.3, 0.7
    m = 0.3
    expect = m * (x * y - (x + y) * m / 2.0 + m * m / 3.0)
    K = kernel_matrix(wiener_integral(1), np.array([x, y]))
    assert K[0, 1] == pytest.approx(expect, rel=1e-14, abs=0)
    assert K[1, 0] == pytest.approx(expect, rel=1e-14, abs=0)


def test_euler_base_matrix_is_min_kernel():
    x, _ = quadrature_rule(nystrom.UNIT_INTERVAL, 20)
    assert np.array_equal(kernel_matrix(euler_iterated(0), x), np.minimum.outer(x, x))
    assert np.array_equal(kernel_matrix(euler_iterated(2), x), np.minimum.outer(x, x))


# ---------------------------------------------------------------------------
# spectrum estimation
# ---------------------------------------------------------------------------

def test_euler_estimates_match_closed_form():
    rep = verify_against_closed_form(euler_iterated(0), 200, 10)
    assert rep.max_deviation < 1e-4
    rep = verify_against_closed_form(euler_iterated(1), 200, 6)
    assert rep.max_deviation < 1e-4


def test_gaussian_estimates_match_closed_form():
    for g2 in (0.25, 1.0, 4.0):
        rep = verify_against_closed_form(gaussian_weighted(g2), 100, 6)
        assert rep.max_deviation < 1e-8


def test_korobov_estimates_match_closed_form():
    # the 300-node module example honestly measures 1.0e-6; at 400 nodes the
    # acceptance tolerance 1e-6 holds (see test_acceptance)
    spec = korobov_series(1.0, 1.0, series_cutoff=2000)
    rep = verify_against_closed_form(spec, 300, 5)
    assert rep.reference == pytest.approx([1.0, 1.0, 1.0, 0.25, 0.25])
    assert rep.max_deviation < 1e-5


def test_wiener_r0_estimates():
    rep = verify_against_closed_form(wiener_integral(0), 400, 6)
    assert rep.max_deviation < 1e-5


@pytest.mark.parametrize("spec, nodes", [
    (euler_iterated(0), (150, 300)), (euler_iterated(1), (150, 300)),
    (wiener_integral(0), (150, 300)), (wiener_integral(1), (150, 300)),
    (wiener_integral(2), (150, 300)), (gaussian_weighted(1.0), (50, 100)),
], ids=["euler-r0", "euler-r1", "wiener-r0", "wiener-r1", "wiener-r2", "gaussian"])
def test_estimates_bit_identical_to_numpy_rules(spec, nodes):
    for n in nodes:
        est = spectrum_estimate(spec, n, 6)
        lam, refinement = helpers.numpy_rule_estimate(spec, n, 6)
        assert est.eigenvalues.tobytes() == lam.tobytes()
        assert est.refinement_error.tobytes() == refinement.tobytes()


def test_wiener_r1_no_closed_form():
    with pytest.raises(NoClosedFormError):
        verify_against_closed_form(wiener_integral(1), 100, 4)


def test_wiener_envelope_band():
    # h * (1+r)^2 stays within a narrow band across r: the decay envelope
    # (1+r)^-2 captures the ratio up to constants (factor-4 band required)
    ratios = []
    for r in (1, 2, 3, 4):
        est = spectrum_estimate(wiener_integral(r), 200, 2)
        h = est.eigenvalues[1] / est.eigenvalues[0]
        ratios.append(h * (1 + r) ** 2)
    assert max(ratios) / min(ratios) <= 4.0


def test_refinement_error_shrinks_with_nodes():
    a = spectrum_estimate(euler_iterated(0), 100, 5)
    b = spectrum_estimate(euler_iterated(0), 200, 5)
    assert np.all(b.refinement_error <= a.refinement_error)
    assert a.node_count == 100 and b.node_count == 200
    # hermite grids stay at or below 200 nodes (the rule degrades beyond);
    # at 50 nodes the gaussian case already sits at the rounding floor
    ga = spectrum_estimate(gaussian_weighted(1.0), 50, 5)
    gb = spectrum_estimate(gaussian_weighted(1.0), 100, 5)
    assert np.all(gb.refinement_error < 1e-12) and np.all(ga.refinement_error < 1e-12)


def test_hermite_rule_instability_guard():
    with pytest.raises(InvalidInputError, match="unstable"):
        quadrature_rule(nystrom.WEIGHTED_LINE, 400)


def test_estimates_nonincreasing_nonnegative():
    for spec in (euler_iterated(1), gaussian_weighted(0.5),
                 korobov_series(1.5, 0.7, 500), wiener_integral(2)):
        est = spectrum_estimate(spec, 80, 12)
        assert np.all(np.diff(est.eigenvalues) <= 1e-12)
        assert np.all(est.eigenvalues >= 0.0)


def test_estimate_argument_checks():
    with pytest.raises(InvalidInputError):
        spectrum_estimate(euler_iterated(0), 50, 60)
    with pytest.raises(InvalidInputError):
        spectrum_estimate(euler_iterated(0), 50, 0)


def test_negative_eigenvalue_policy(monkeypatch):
    # equal coarse and fine grids: the Richardson combination is the fake spectrum
    fake = np.array([1.0, 0.5, -5e-11])
    monkeypatch.setattr(nystrom, "_symmetrized_eigs", lambda spec, n: fake.copy())
    with pytest.warns(UserWarning, match="clipping"):
        est = spectrum_estimate(euler_iterated(0), 10, 3)
    assert est.eigenvalues[2] == 0.0
    bad = np.array([1.0, 0.5, -5e-9])
    monkeypatch.setattr(nystrom, "_symmetrized_eigs", lambda spec, n: bad.copy())
    with pytest.raises(InvalidInputError, match="PSD"):
        spectrum_estimate(euler_iterated(0), 10, 3)


def test_estimates_share_no_arrays():
    first = spectrum_estimate(euler_iterated(0), 40, 3)
    eig, err = first.eigenvalues.tobytes(), first.refinement_error.tobytes()
    first.eigenvalues[:] = 7.0
    first.refinement_error[:] = 7.0
    second = spectrum_estimate(euler_iterated(0), 40, 3)
    assert second.eigenvalues.tobytes() == eig
    assert second.refinement_error.tobytes() == err


def test_closed_form_patterns():
    vals = closed_form_eigenvalues(korobov_series(2.0, 0.5, 100), 5)
    assert vals == pytest.approx([1.0, 0.5, 0.5, 0.5 / 16, 0.5 / 16])
    vals[:] = 7.0  # a fresh array: writing to it leaves the spectra factor alone
    again = closed_form_eigenvalues(korobov_series(2.0, 0.5, 100), 5)
    assert again == pytest.approx([1.0, 0.5, 0.5, 0.5 / 16, 0.5 / 16])
    ew = closed_form_eigenvalues(euler_iterated(1), 3)
    j = np.arange(1, 4, dtype=float)
    assert ew == pytest.approx((math.pi * (j - 0.5)) ** -4.0, rel=1e-15, abs=0)


def test_kernel_spec_validation():
    with pytest.raises(InvalidInputError):
        korobov_series(0.4, 1.0)
    with pytest.raises(InvalidInputError):
        korobov_series(1.0, 1.5)
    with pytest.raises(InvalidInputError):
        gaussian_weighted(-1.0)
    with pytest.raises(InvalidInputError):
        euler_iterated(-1)
