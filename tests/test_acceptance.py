"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so the full scoreboard is visible in the pytest output (-s or on
failure).  Tolerances are pinned here and nowhere else: criteria 01, 02, 06,
07 and 08 run the rows of the ``tractal verify`` check table that back them
(``tractal.verify.CHECKS``), compare each deviation with the literal pin here,
and assert that the row's own threshold equals that pin, so a threshold
loosened in the library fails this file.
"""
import math
import random

import numpy as np

from tractal import complexity, spectra, verify
from tractal.complexity import ComplexityQuery, info_complexity, lemma_bound, qpt_functional
from tractal.products import ProductProblem, trace_sum
from tractal.sequences import SequenceDescriptor as S
from tractal.tractability import classify

import helpers

OMEGA1 = spectra.gaussian_omega(1.0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def run_rows(num, what, pins):
    """Runs the check-table rows backing criterion num, whose names and
    thresholds must be exactly pins, and reports each deviation against its pin."""
    rows = [row for row in verify.CHECKS if row.criterion == num]
    assert {row.name: row.threshold for row in rows} == pins
    results = [row.run() for row in rows]
    ok = all(r["deviation"] < pins[r["name"]] for r in results)
    detail = ", ".join(f"{r['name']}: {r['deviation']:.3e} (< {pins[r['name']]:g})"
                       for r in results)
    return report(num, ok, f"{what} ({detail})")


def fixed_specs():
    return [
        ("euler", spectra.euler(S.explicit([1, 1, 2, 2]))),
        ("wiener", spectra.wiener(S.explicit([1, 2, 2, 3]))),
        ("korobov", spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))),
        ("gaussian", spectra.gaussian(S.constant(1.0))),
        ("analytic_korobov", spectra.analytic_korobov(
            0.5, S.constant(1.0), S.constant(1.0))),
        ("custom", spectra.custom_tabulated(
            [[1.0, 0.5, 0.25], [1.0, 0.4, 0.16], [1.0, 0.3], [1.0, 0.2]],
            tail=spectra.TailModel("geometric", ratio=0.5), tau0=0.0)),
    ]


def test_criterion_01_trace_identity():
    """Per-factor product identity for the trace sum vs brute-force box plus
    independently summed tails, on 30 seeded random cases (10 families at
    d = 1..4, each at tau = 0.8, 1, 2, box j_k <= 30): the trace matches the
    product of head plus tail sums to relative error < 1e-9, and the box sum
    matches the product of head sums to < 1e-11."""
    assert run_rows(1, "trace identity", {"eq21-trace-30-cases": 1e-9,
                                          "eq21-box-30-cases": 1e-11})


def test_criterion_02_counting_oracle():
    """Exact agreement of pruned counting with brute-force box counts on
    200 seeded random instances (d = 1..5) with counts <= 1e6."""
    assert run_rows(2, "counting oracle", {"counting-oracle-200-instances": 0.5})


def test_criterion_03_gaussian_trace_normalization():
    """Gaussian factor power sums telescope to exactly one at tau = 1."""
    spec = spectra.gaussian(S.power(1.0, -1.0))
    worst = 0.0
    for d in (1, 5, 20, 100):
        worst = max(worst, abs(trace_sum(ProductProblem.from_family(spec, d), 1.0) - 1.0))
    ok = worst <= 1e-12
    assert report(3, ok, f"gaussian trace normalization, worst |trace-1| = {worst:.3e} "
                         f"(tolerance 1e-12)")


def test_criterion_04_trace_bound_dominates_counts():
    """ceil(trace * eps**-2tau) upper-bounds the normalized-criterion count
    on the full grid; zero violations allowed."""
    violations = 0
    cases = 0
    for name, spec in fixed_specs():
        tau0_hi = spectra.tau_zero(spec).hi
        for d in (1, 2, 3, 4):
            p = ProductProblem.from_family(spec, d)
            for tau in (0.8, 1.0, 2.0):
                if tau <= tau0_hi:
                    continue
                for eps in (0.9, 0.7, 0.5, 0.3, 0.1):
                    n = info_complexity(p, ComplexityQuery(eps, d, "nor")).n
                    if lemma_bound(p, eps, tau) < n:
                        violations += 1
                    cases += 1
    ok = violations == 0
    assert report(4, ok, f"trace bound vs counts, {cases} grid points, "
                         f"violations {violations}")


def test_criterion_05_curse_witness():
    """Unit-weight korobov: at least 2**d - 1 values are needed at eps = 1/2
    for every d <= 12 (saturated counts are exact lower bounds)."""
    spec = spectra.korobov(S.constant(1.0), S.constant(1.0))
    ok = True
    for d in range(1, 13):
        p = ProductProblem.from_family(spec, d)
        res = info_complexity(p, ComplexityQuery(0.5, d, "nor"), cap=2 ** d)
        if res.n < 2 ** d - 1:
            ok = False
    assert report(5, ok, "curse witness: n(1/2, d) >= 2**d - 1 for d = 1..12")


def test_criterion_06_exponent_crosscheck():
    """Two closed-form SPT exponents for geometric korobov weights agree to
    < 1e-12 for r_k = ln k growth, and both say constant r is not SPT."""
    assert run_rows(6, "exponent cross-check", {"exp-weight-crosscheck-growing-r": 1e-12,
                                                "exp-weight-crosscheck-constant-r": 0.5})


def test_criterion_07_euler_abs_exponent():
    """The power-series root: G(x0) = 1 to < 1e-10 inside the bracket
    G(1.2) > 1 > G(1.5), G(2) = 1/2 to < 1e-10, and G against its direct
    series at x = 1.2, 1.5, 3 to < 1e-8 relative."""
    assert run_rows(7, "series root", {
        "g-at-2": 1e-10, "g-root-residual": 1e-10, "g-root-bracket": 0.5,
        "g-reduction-vs-series-x1.2": 1e-8, "g-reduction-vs-series-x1.5": 1e-8,
        "g-reduction-vs-series-x3.0": 1e-8})


def test_criterion_08_nystrom_vs_closed_forms():
    """Quadrature spectra against the closed forms at the pinned tolerances."""
    assert run_rows(8, "nystrom vs closed forms", {
        "euler-r0-400-nodes": 1e-4, "euler-r1-400-nodes": 1e-4, "wiener-r0-400-nodes": 1e-5,
        "gaussian-g2-0.25-100-nodes": 1e-8, "gaussian-g2-1.0-100-nodes": 1e-8,
        "gaussian-g2-4.0-100-nodes": 1e-8, "korobov-a1-b1-400-nodes": 1e-6})


def gaussian_qpt_closed_form(tau, D):
    """Closed form of the QPT profile for gaussian gamma^2 = 1: each
    normalized factor power sum at x is the geometric series 1/(1 - w**x), so
    f(d) = exp(-(d/tau) * ln(1 - w**(tau*(1+ln d))) - 2 ln d)."""
    d = np.arange(1, D + 1, dtype=float)
    x = tau * (1.0 + np.log(d))
    return np.exp(-(d / tau) * np.log1p(-OMEGA1 ** x) - 2.0 * np.log(d))


def test_criterion_09_qpt_threshold_behavior():
    """Scaled-exponent trace profile for gaussian gamma^2 = 1 over d <= 500,
    with t* read from the classifier: it matches its closed form to 1e-12
    relative at both exponents; at tau = 1.2*(t*/2) its maximum is at d = 1
    and last < first; at tau = 0.5*(t*/2) it increases strictly from its
    minimum on, that minimum is the closed form's argmin, and last/first > 1e3.

    QPT is a statement about the supremum over all d of the profile
    sup_d d**-2 (sum_j (lam_{d,j}/lam_{d,1})**(tau(1+ln d)))**(1/tau), so a
    finite window can only check its shape against the exact function.  The
    earlier pins (monotone from d = 1, last/first > 1e3 by d = 50) were false
    of that function: below the threshold the closed form falls from d = 1 to
    d = 12 and rises after that, reaching last/first = 0.372 at d = 50 and
    2.07e5 at d = 500.
    """
    spec = spectra.gaussian(S.constant(1.0))
    t_star = classify(spec, "nor").t_star.lo
    D = 500
    profiles = {}
    worst = 0.0
    for factor in (1.2, 0.5):
        tau = factor * (t_star / 2.0)
        vals = qpt_functional(spec, tau, D)
        exact = gaussian_qpt_closed_form(tau, D)
        worst = max(worst, float(np.max(np.abs(vals - exact) / exact)))
        profiles[factor] = (vals, exact)
    hi, _ = profiles[1.2]
    bounded = hi.argmax() == 0 and hi[-1] < hi[0]
    lo, lo_exact = profiles[0.5]
    dip = int(lo.argmin())
    rising = bool(np.all(np.diff(lo[dip:]) > 0)) and dip == int(lo_exact.argmin())
    ratio = float(lo[-1] / lo[0])
    ok = worst <= 1e-12 and bounded and rising and ratio > 1e3
    assert report(9, ok, f"qpt threshold, t* = {t_star:.4f}, d <= {D}: closed-form "
                         f"rel err {worst:.2e} (tolerance 1e-12); bounded above "
                         f"threshold {bounded}; below threshold strictly rising "
                         f"from its minimum at d = {dip + 1} {rising}, "
                         f"last/first = {ratio:.3g} (needs > 1e3)")


def gaussian_trace_limit(tau, K=10 ** 5):
    """Upper bound on sup_d of the normalized trace at tau for gaussian
    gamma_k^2 = k**-2, computed without the library's trace: factor k adds
    -ln(1 - w_k**tau) to the log trace, summed directly for k <= K.  Since
    w_k <= gamma_k^2 = k**-2, the rest is at most
    sum_{k>K} k**-2tau / (1 - (K+1)**-2tau) <= K**(1-2tau) / ((2tau-1)(1 - (K+1)**-2tau)).
    Infinite when 2*tau <= 1, where the product over k diverges."""
    s = 2.0 * tau
    if s <= 1.0:
        return math.inf
    head = -sum(math.log1p(-spectra.gaussian_omega(k ** -2.0) ** tau) for k in range(1, K + 1))
    tail = K ** (1.0 - s) / ((s - 1.0) * (1.0 - (K + 1) ** -s))
    return math.exp(head + tail)


def test_criterion_10_spt_envelope():
    """Gaussian gamma_k^2 = k**-2, p* from the classifier (p* = 1): n constant
    in d past d0; the uniform envelope n(eps, d) <= C * eps**-(p* + 0.3) for
    every d in 1..40 and eps in 2**-1..2**-6, with C the supremum over all d
    of the normalized trace at tau = (p* + 0.3)/2, bounded from the factor
    spectra alone; and the threshold contrast: the library's trace stays
    below C up to d = 400 at p* + 0.3, and grows by more than 1e3 from
    d = 40 to d = 400 at p* - 0.3.

    SPT with exponent p* promises, for each p > p*, a constant C_p independent
    of d with n(eps, d) <= C_p * eps**-p.  The normalized trace gives one,
    n <= trace_d(p/2) * eps**-p, whose supremum over d is finite exactly when
    p > p*; the contrast checks that p* is where that supremum turns finite.
    The earlier pin, a log-log slope <= 1.3 of n against 1/eps at d = 30, is
    not implied: at a fixed d a gaussian count grows only polylogarithmically
    in 1/eps, so its local slope (1.58 down to 1.19 over this window) keeps
    falling, to 0.89 by eps = 2**-14, below p* itself, and estimates nothing.
    The d = 30 counts and slope are still printed, as information only.
    """
    spec = spectra.gaussian(S.power(1.0, -2.0))
    p_star = classify(spec, "nor").p_star.lo
    p = p_star + 0.3
    C = gaussian_trace_limit(p / 2.0)

    def log_trace(d, q):
        return complexity.log_normalized_trace(ProductProblem.from_family(spec, d), q / 2.0)

    converges = math.isfinite(C) and all(math.exp(log_trace(d, p)) <= C for d in (40, 400))
    growth = math.exp(log_trace(400, p_star - 0.3) - log_trace(40, p_star - 0.3))
    eps_grid = [2.0 ** -i for i in range(1, 7)]
    counts = {}
    for d in range(1, 41):
        prob = ProductProblem.from_family(spec, d)
        counts[d] = [info_complexity(prob, ComplexityQuery(e, d, "nor")).n for e in eps_grid]
    stable = all(len({counts[d][i] for d in range(21, 41)}) == 1 for i in (0, 1))
    worst = max(n * e ** p / C for ns in counts.values() for n, e in zip(ns, eps_grid))
    ns30 = counts[30]
    slope = float(np.polyfit(np.log([1.0 / e for e in eps_grid]), np.log(ns30), 1)[0])
    ok = stable and converges and growth > 1e3 and worst <= 1.0
    assert report(10, ok, f"spt envelope, p* = {p_star:g}: n(d) stabilizes {stable}; "
                          f"sup_d trace at p*+0.3 <= C = {C:.4g}, trace(d<=400) below it "
                          f"{converges}; trace(400)/trace(40) at p*-0.3 = {growth:.3g} "
                          f"(needs > 1e3); worst n*eps**{p:g}/C = {worst:.3g} over "
                          f"{40 * len(eps_grid)} counts (needs <= 1); informational: "
                          f"counts at d=30 {ns30}, log-log slope {slope:.3f}")


def test_criterion_11_nor_scale_invariance():
    """Rescaling every factor leaves normalized-criterion counts unchanged
    exactly, over 100 random instances."""
    rng = random.Random(31041)
    mismatches = 0
    for _ in range(100):
        name, spec = helpers.random_family(rng)
        d = rng.randint(1, 4)
        p = ProductProblem.from_family(spec, d)
        q = helpers.scaled(p, [rng.uniform(0.01, 10.0) for _ in range(d)])
        eps = rng.uniform(0.05, 0.95)
        n0 = info_complexity(p, ComplexityQuery(eps, d, "nor")).n
        n1 = info_complexity(q, ComplexityQuery(eps, d, "nor")).n
        if n0 != n1:
            mismatches += 1
    ok = mismatches == 0
    assert report(11, ok, f"normalized-criterion scale invariance, 100 instances, "
                          f"mismatches {mismatches}")
