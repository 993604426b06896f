"""Tail ratio sums, trace sums and the trace functionals built on them.

``H(k, tau) = sum_{j>=2} (lam(k,j)/lam(k,2))**tau`` comes from each family
record's ``tail`` map (:data:`tractal.spectra._RECORDS`), which reads its
tail sums from this module, and the trace identity
``sum_j lam_{d,j}**tau = prod_k (lam(k,1)**tau + lam(k,2)**tau * H(k,tau))``
gives the log trace of every d up to D from one per-factor loop
(:func:`log_trace_profile`).  No counting command runs this code, so it is
a module of its own, loaded on first use through the names
:mod:`tractal.spectra`, :mod:`tractal.products` and
:mod:`tractal.complexity` give it.  A function here calls a function the
package names on one of those modules through that module, as the callers
it replaced did, so wrapping the name there wraps every call.
"""
from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .errors import DivergenceError, InvalidInputError
from .products import ProductProblem, check_dimension
from .special import scipy_special
from .xreal import INF, ceil_exp, exp_or_inf
from . import complexity, products, spectra

if TYPE_CHECKING:
    import numpy as np

_REL_TOL = 1e-12


def tail_sum_H(spec: spectra.FamilySpec, k: int, tau: float) -> float:
    """H(k, tau) = sum_{j>=2} (lam(k,j)/lam(k,2))**tau, +oo if divergent.

    Finite values carry relative error below 1e-12.
    """
    values, H = _tail_map(spec, tau)
    return H(values(k))


def _tail_map(spec: spectra.FamilySpec, tau: float):
    """The family record's tail map at tau, after checking tau; the map reads
    its tail sums from this module."""
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    return spectra._RECORDS[spec.family].tail(spec, tau, sys.modules[__name__])


def _euler_tail_sum(x):
    # sum_{j>=2} (3/(2j-1))**x = 1.5**x zeta(x, 1.5) = 1 + sum_{n>=1} (1.5/(1.5+n))**x
    return INF if x <= 1.0 else 1.0 + _power_tail(x, 1.5)


def _korobov_tail_sum(x):
    # sum_{j>=2} (lam(j)/lam(2))**tau = 2 zeta(x), x = 2 r tau
    return INF if x <= 1.0 else 2.0 * float(scipy_special().zeta(x))


def _analytic_korobov_tail_sum(omega, a_k, b_k, tau):
    c = tau * a_k * math.log(1.0 / omega)
    if b_k == 1.0:
        return 2.0 / (1.0 - math.exp(-c))
    # 2 * sum_{m>=1} exp(-c*(m**b - 1)); bracket the remainder by integrals
    # of the decreasing integrand.
    total = 0.0
    m = 1
    while True:
        term = math.exp(-c * (m ** b_k - 1.0))
        total += term
        nxt = math.exp(-c * ((m + 1) ** b_k - 1.0))
        if nxt / 2.0 <= 0.5 * _REL_TOL * total:
            tail_lo = _exp_power_integral(c, b_k, m + 1)
            total += math.exp(c) * tail_lo + nxt / 2.0
            break
        if m > 10**7:
            raise DivergenceError("tail sum did not converge within 1e7 terms", dimension=None)
        m += 1
    return 2.0 * total


def _exp_power_integral(c, b, lower):
    """integral_{lower}^{oo} exp(-c*x**b) dx via the incomplete gamma function."""
    sp = scipy_special()
    s = 1.0 / b
    return sp.gamma(s) * sp.gammaincc(s, c * lower ** b) / (b * c ** s)


def _custom_tail_sum(row, tail, tau):
    import numpy as np

    row = np.asarray(row, dtype=float)
    lam2 = row[1]
    finite = float(np.sum((row[1:] / lam2) ** tau))
    if tail is None:
        return finite
    last_ratio = (row[-1] / lam2) ** tau
    if tail.kind == "geometric":
        q = tail.ratio ** tau
        return finite + last_ratio * q / (1.0 - q)
    x = tail.exponent * tau
    if x <= 1.0:
        return INF
    return finite + last_ratio * _power_tail(x, row.size)


def _power_tail(x, a):
    """sum_{n>=1} (a/(a+n))**x = a**x zeta(x, a+1) for x > 1, a >= 1 (DLMF 25.11.1).

    Evaluated as (a/b)**x * (b**x zeta(x, b)), b = a + 1, with nothing
    subtracted.  Where b**x would overflow, the multiplication theorem (DLMF
    25.11.15) with m = floor(b) moves every Hurwitz argument into [1, 3): the
    sum is (a/m)**x * sum_{k<m} zeta(x, (b+k)/m), which underflows only where
    the sum itself is below the double range.
    """
    zeta = scipy_special().zeta
    b = a + 1.0
    if x * math.log(b) < 700.0:
        return (a / b) ** x * (b ** x * float(zeta(x, b)))
    import numpy as np

    m = math.floor(b)
    scale = math.exp(-x * math.log1p((m - a) / a))
    return scale * float(np.sum(zeta(x, (b + np.arange(m)) / m)))


def log_trace_profile(spec: spectra.FamilySpec, tau: float, D: int,
                      normalized: bool) -> np.ndarray:
    """Entry d-1 is ln sum_j lam_{d,j}**tau = sum_{k<=d} ln sum_j lam(k,j)**tau.

    Each factor's power sum is lam(k,1)**tau + lam(k,2)**tau * H(k,tau); the
    normalized trace divides every lam(k,j) by lam(k,1).  H and h_k come
    through the ``tail`` and ``ratio`` maps of the family's record, and the
    unnormalized lam(k,1) and lam(k,2) from the rows of the spec's
    :class:`~tractal.spectra.DimensionTable`, so no factor is built.  A
    dimension whose parameter values (or rows) equal those of dimension
    k - 1 reuses its terms: a constant sequence, or custom rows past the
    last table, costs one tail sum per profile.  The logs are added in
    dimension order by a plain left fold, not by ``sum``, which compensates
    from Python 3.12 on, so the entries do not depend on the Python version.
    """
    import numpy as np

    tail_values, tail = _tail_map(spec, tau)
    if normalized:
        ratio_seq, ratio = spectra._RECORDS[spec.family].ratio(spec)
        ratio_values, lead = ratio_seq.value, 1.0
    else:
        # one lookup: hashing a spec of many tables costs O(tables)
        table = spectra._factor(spec)
        try:
            table.grow(D)
        except InvalidInputError:
            pass  # grow(k) raises it again at its k, after the dimensions before it
        leads, seconds, grown = table.leads, table.seconds, len(table.leads)
        lead = None
    out = np.empty(D)
    total = 0.0
    tail_key = ratio_key = second = term = None
    for k in range(1, D + 1):
        p = tail_values(k)
        if p != tail_key:
            tail_key, term = p, None
            try:
                H = tail(p)
            except DivergenceError:  # a tail series that did not converge
                H = INF
            if math.isinf(H):
                raise DivergenceError(f"trace diverges at dimension {k} for tau={tau}",
                                      dimension=k)
        if normalized:
            q = ratio_values(k)
            if q != ratio_key:
                ratio_key, second, term = q, ratio(q), None
        else:
            if k > grown:
                table.grow(k)
            if leads[k - 1] != lead or seconds[k - 1] != second:
                lead, second, term = leads[k - 1], seconds[k - 1], None
        if term is None:
            term = math.log(lead ** tau + second ** tau * H)
        total += term
        out[k - 1] = total
    return out


def trace_sum(problem: ProductProblem, tau: float) -> float:
    """sum_j lam_{d,j}**tau = prod_k sum_j lam(k,j)**tau; inf beyond the double range."""
    return exp_or_inf(products.log_trace_sum(problem, tau))


def log_trace_sum(problem: ProductProblem, tau: float) -> float:
    """ln of the trace sum; use this form for large d to avoid overflow.
    It reads every dimension, so d may not pass DIMENSION_CAP."""
    if problem.family is None:
        raise InvalidInputError("trace sums need a family-backed problem")
    check_dimension(problem.d)
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    return float(log_trace_profile(problem.family, tau, problem.d, normalized=False)[-1])


def lemma_bound(problem: ProductProblem, epsilon: float, tau: float) -> int:
    """ceil(normalized trace at tau * epsilon**(-2*tau)); an upper bound for
    the normalized-criterion complexity whenever the trace is finite."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must lie in (0,1), got {epsilon}")
    log_value = complexity.log_normalized_trace(problem, tau) - 2.0 * tau * math.log(epsilon)
    return ceil_exp(log_value)


def log_normalized_trace(problem: ProductProblem, tau: float) -> float:
    """ln sum_j (lam_{d,j}/lam_{d,1})**tau via the per-factor identity.
    It reads every dimension, so d may not pass ``products.DIMENSION_CAP``."""
    if problem.family is None:
        raise InvalidInputError("normalized traces need a family-backed problem")
    check_dimension(problem.d)
    return float(log_trace_profile(problem.family, tau, problem.d, normalized=True)[-1])


def pt_functional(spec, tau: float, q: float, D: int) -> np.ndarray:
    """d -> (sum_j (lam_{d,j}/lam_{d,1})**tau)**(1/tau) * d**-q for d <= D.

    Boundedness of this profile over all d is the polynomial-tractability
    criterion; a finite window can only support the verdict, never prove it.
    Values beyond the double range are inf.
    """
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    if D < 1:
        raise InvalidInputError(f"D must be >= 1, got {D}")
    import numpy as np

    cum = log_trace_profile(spec, tau, D, normalized=True)
    d = np.arange(1, D + 1, dtype=float)
    with np.errstate(over="ignore"):
        return np.exp(cum / tau - q * np.log(d))


def qpt_functional(spec, tau: float, D: int) -> np.ndarray:
    """As pt_functional with exponent tau*(1+ln d) inside and d**-2 outside."""
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    if D < 1:
        raise InvalidInputError(f"D must be >= 1, got {D}")
    import numpy as np

    out = np.empty(D)
    for d in range(1, D + 1):
        x = tau * (1.0 + math.log(d))
        total = float(log_trace_profile(spec, x, d, normalized=True)[-1])
        out[d - 1] = exp_or_inf(total / tau - 2.0 * math.log(d))
    return out
