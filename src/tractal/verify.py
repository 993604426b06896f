"""The checks of ``tractal verify`` and acceptance criteria 01, 02, 06, 07 and
08, as one table: each threshold, instance set and oracle is decided here.

Each row of :data:`CHECKS` names its ``verify`` suite, the criterion it
backs, its threshold and a function measuring the deviation.  Yes/no checks
measure 0.0 or 1.0, and mismatch checks the count, against 0.5.  The oracles
recompute by routes different from the library: tail sums by direct
summation with Euler-Maclaurin or geometric remainders (never the zeta
reduction), box sums by enumerating index tuples.
"""
from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

import numpy as np

from . import nystrom, products, spectra, tractability
from .sequences import SequenceDescriptor as S


class Check(NamedTuple):
    """A row of the table; it passes exactly when ``measure() < threshold``."""

    name: str
    suite: str
    criterion: int
    threshold: float
    measure: Callable[[], float]

    def run(self) -> dict:
        dev = float(self.measure())
        return {"name": self.name, "deviation": dev, "threshold": self.threshold,
                "pass": dev < self.threshold}


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

_EM_HEAD = 2000


def em_power_tail(coeff, x, start, shift=0.5):
    """sum_{j >= start} coeff * (j - shift)**(-x), x > 1, to ~1e-15 absolute.

    Direct summation to j = 2000, then Euler-Maclaurin on f(u) = (u-shift)**-x.
    """
    head_end = max(start, _EM_HEAD)
    j = np.arange(start, head_end + 1, dtype=float)
    total = float(np.sum((j - shift) ** -x))
    u = head_end + 1 - shift
    total += u ** (1.0 - x) / (x - 1.0)          # integral
    total += 0.5 * u ** -x                        # f(a)/2
    total += x * u ** (-x - 1.0) / 12.0           # -f'(a)/12
    total -= x * (x + 1.0) * (x + 2.0) * u ** (-x - 3.0) / 720.0
    return coeff * total


def factor_tau_tail(spec, k, tau, J):
    """sum_{j > J} lam(k, j)**tau, computed independently of tail_sum_H."""
    fam = spec.family
    if fam in (spectra.Family.EULER, spectra.Family.WIENER):
        x = tau * (2.0 * spec.r.value(k) + 2.0)
        return em_power_tail(math.pi ** -x, x, J + 1)
    if fam is spectra.Family.KOROBOV:
        x = 2.0 * spec.r.value(k) * tau
        gt = spec.g.value(k) ** tau
        m_done = J // 2  # pairs fully inside the box when J is odd
        tail = em_power_tail(2.0 * gt, x, m_done + 1, shift=0.0)
        if J % 2 == 0:  # odd partner of pair m_done sits just outside
            tail += gt * float(m_done) ** -x
        return tail
    if fam is spectra.Family.GAUSSIAN:
        w = spectra.gaussian_omega(spec.gamma_sq.value(k))
        ct = (1.0 - w) ** tau
        # sum_{j > J} w**(tau*(j-1)) = w**(tau*J) / (1 - w**tau)
        return ct * w ** (tau * J) / (1.0 - w ** tau)
    if fam is spectra.Family.ANALYTIC_KOROBOV:
        a_k, b_k = spec.a.value(k), spec.b.value(k)
        c = tau * a_k * math.log(1.0 / spec.omega)
        total = 0.0
        m_done = J // 2
        if J % 2 == 0:
            total += math.exp(-c * float(m_done) ** b_k)
        m = m_done + 1
        while True:
            term = math.exp(-c * float(m) ** b_k)
            total += 2.0 * term
            if term < 1e-18 * max(total, 1e-30) or term == 0.0:
                return total
            m += 1
    # custom: finite table + declared tail model
    row = np.asarray(spec.tables[min(k, len(spec.tables)) - 1], dtype=float)
    size = row.size
    total = float(np.sum(row[J:] ** tau)) if J < size else 0.0
    if spec.tail is None:
        return total
    start = max(J + 1 - size, 1)
    if spec.tail.kind == "geometric":
        q = spec.tail.ratio ** tau
        return total + row[-1] ** tau * q ** start / (1.0 - q)
    x = spec.tail.exponent * tau
    return total + em_power_tail(row[-1] ** tau * size ** x, x, max(J, size) + 1, shift=0.0)


def random_family(rng: random.Random, allow_wiener=True, allow_custom=True):
    """A seeded draw of a family spec with admissible random parameters."""
    choices = ["euler", "korobov", "gaussian", "analytic_korobov"]
    if allow_wiener:
        choices.append("wiener")
    if allow_custom:
        choices.append("custom")
    name = rng.choice(choices)
    if name in ("euler", "wiener"):
        rs = sorted(rng.randint(0, 3) for _ in range(5))
        spec = (spectra.euler if name == "euler" else spectra.wiener)(S.explicit(rs))
    elif name == "korobov":
        rs = sorted(round(rng.uniform(0.75, 3.0), 3) for _ in range(5))
        gs = sorted((round(rng.uniform(0.05, 1.0), 3) for _ in range(5)), reverse=True)
        spec = spectra.korobov(S.explicit(rs), S.explicit(gs))
    elif name == "gaussian":
        g2 = sorted((round(rng.uniform(0.05, 4.0), 3) for _ in range(5)), reverse=True)
        spec = spectra.gaussian(S.explicit(g2))
    elif name == "analytic_korobov":
        om = round(rng.uniform(0.3, 0.7), 3)
        a = sorted(round(rng.uniform(0.5, 3.0), 3) for _ in range(5))
        b = round(rng.uniform(1.0, 2.0), 3)
        spec = spectra.analytic_korobov(om, S.explicit(a), S.constant(b))
    else:
        q = round(rng.uniform(0.2, 0.8), 3)
        lead = round(rng.uniform(0.5, 2.0), 3)
        tables = []
        for _ in range(5):
            n_entries = rng.randint(3, 6)
            tables.append([lead * q ** i for i in range(n_entries)])
        spec = spectra.custom_tabulated(tables, tail=spectra.TailModel("geometric", ratio=q),
                                        tau0=0.0)
    return name, spec


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def _nystrom(name, suite, threshold, kernel, n_nodes, m):
    return Check(name, suite, 8, threshold,
                 lambda: nystrom.verify_against_closed_form(kernel, n_nodes, m).max_deviation)


def _eq21_cases():
    """10 seeded random families at d = 1..4, each at tau = 0.8, 1 and 2, with
    the factors' head sums over j <= 30."""
    rng = random.Random(20240817)
    for _ in range(10):
        _, spec = random_family(rng)
        p = products.ProductProblem.from_family(spec, rng.randint(1, 4))
        yield spec, p, {tau: [float(np.sum(np.array(f.values(1, 31)) ** tau)) for f in p.factors]
                        for tau in (0.8, 1.0, 2.0)}


def _eq21_trace():
    """Worst relative error of the trace sum against prod_k (head_k + tail_k)."""
    worst = 0.0
    for spec, p, heads in _eq21_cases():
        for tau, h in heads.items():
            oracle = math.prod(hk + factor_tau_tail(spec, k, tau, 30) for k, hk in enumerate(h, 1))
            worst = max(worst, abs(products.trace_sum(p, tau) - oracle) / oracle)
    return worst


def _eq21_box():
    """Worst relative error of the enumerated box sum against prod_k head_k."""
    worst = 0.0
    for _, p, heads in _eq21_cases():
        box = products.box_products(p, 30)
        for tau, h in heads.items():
            worst = max(worst, abs(float(np.sum(box ** tau)) - math.prod(h)) / math.prod(h))
    return worst


def _counting_mismatches():
    """Pruned counts that differ from box counts, on 200 seeded random
    instances with counts <= 1e6 at thresholds above the box's validity floor."""
    rng = random.Random(777)
    checked = mismatches = 0
    while checked < 200:
        _, spec = random_family(rng)
        d = rng.randint(1, 5)
        p = products.ProductProblem.from_family(spec, d)
        J = {1: 600, 2: 90, 3: 40, 4: 28, 5: 18}[d]
        box = products.box_products(p, J)
        floor = products.oracle_validity_floor(p, J)
        top = float(box.max())
        if floor >= top:
            continue
        lo = math.log(max(floor * 1.000001, 1e-290))
        T = math.exp(rng.uniform(lo, math.log(top)))
        if T <= floor:
            continue
        want = int((box > T).sum())
        if want > 10 ** 6:
            continue
        mismatches += products.count_products_above(p, T).count != want
        checked += 1
    return mismatches


def _g_vs_series(x):
    """Relative deviation of G(x) = sum_{j >= 1} (pi (j - 1/2))**-x from its
    series, summed directly to j = 2000 with an Euler-Maclaurin tail."""
    g = tractability.g_function(x)
    return abs(em_power_tail(math.pi ** -x, x, 1) - g) / g


def _exp_weight(r):
    """(p* of korobov with weights (2*pi)**(-2*r_k) under nor, its SPT flag,
    the exponent from r alone)."""
    report = tractability.classify(spectra.korobov(r, spectra.korobov_exp_weights(r)), spectra.NOR)
    return report.p_star, report.spt, tractability.korobov_exp_weight_spt_exponent(r)


def _exp_weight_growing_r():
    p_star, _, alt = _exp_weight(S.log_growth(1.0))
    return abs(p_star.lo - alt) if p_star is not None and p_star.is_point else math.inf


def _exp_weight_constant_r():
    _, spt, alt = _exp_weight(S.constant(1.0))
    return 0.0 if spt is False and alt is None else 1.0


CHECKS = (
    *[_nystrom(f"euler-r{r}-400-nodes", "euler-nystrom", 1e-4, nystrom.euler_iterated(r), 400, 6)
      for r in (0, 1)],
    _nystrom("wiener-r0-400-nodes", "wiener-nystrom", 1e-5, nystrom.wiener_integral(0), 400, 6),
    *[_nystrom(f"gaussian-g2-{g2}-100-nodes", "gaussian-nystrom", 1e-8,
               nystrom.gaussian_weighted(g2), 100, 6) for g2 in (0.25, 1.0, 4.0)],
    _nystrom("korobov-a1-b1-400-nodes", "korobov-nystrom", 1e-6,
             nystrom.korobov_series(1.0, 1.0, 10 ** 4), 400, 5),
    Check("eq21-trace-30-cases", "eq21-identity", 1, 1e-9, _eq21_trace),
    Check("eq21-box-30-cases", "eq21-identity", 1, 1e-11, _eq21_box),
    Check("counting-oracle-200-instances", "counting-oracle", 2, 0.5, _counting_mismatches),
    Check("g-at-2", "g-function", 7, 1e-10, lambda: abs(tractability.g_function(2.0) - 0.5)),
    Check("g-root-residual", "g-function", 7, 1e-10,
          lambda: abs(tractability.g_function(tractability.g_root()) - 1.0)),
    Check("g-root-bracket", "g-function", 7, 0.5,
          lambda: float(not tractability.g_function(1.2) > 1.0 > tractability.g_function(1.5))),
    *[Check(f"g-reduction-vs-series-x{x}", "g-function", 7, 1e-8, lambda x=x: _g_vs_series(x))
      for x in (1.2, 1.5, 3.0)],
    Check("exp-weight-crosscheck-growing-r", "exponent-crosscheck", 6, 1e-12,
          _exp_weight_growing_r),
    Check("exp-weight-crosscheck-constant-r", "exponent-crosscheck", 6, 0.5,
          _exp_weight_constant_r),
)
