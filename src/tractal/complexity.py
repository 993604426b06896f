"""Worst-case errors, information complexity, and trace-based bounds."""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidInputError, UnsupportedCriterionError
from .xreal import ceil_exp, exp_or_inf
from . import products, spectra
from .products import COUNTING_CAP, ProductProblem

if TYPE_CHECKING:
    import numpy as np


class _ComplexityQuery(NamedTuple):
    epsilon: float
    d: int
    criterion: str = spectra.NOR


class ComplexityQuery(_ComplexityQuery):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidInputError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.d < 1:
            raise InvalidInputError(f"d must be >= 1, got {self.d}")
        if self.criterion not in (spectra.ABS, spectra.NOR):
            raise InvalidInputError(f"criterion must be 'abs' or 'nor', got {self.criterion!r}")
        return self


class ComplexityResult(NamedTuple):
    n: int
    threshold: float
    saturated: bool


def minimal_error(problem: ProductProblem, n: int) -> float:
    """e(n) = sqrt of the (n+1)-st largest product eigenvalue; e(0) is the
    initial error sqrt(prod_k lam(k,1)).  Inf or 0.0 past the double range."""
    if n < 0:
        raise InvalidInputError(f"n must be >= 0, got {n}")
    if n == 0:
        return exp_or_inf(0.5 * problem.log_leading_product)
    top = products.product_eigenvalues_top(problem, n + 1)
    return math.sqrt(top[-1])


def info_complexity(problem: ProductProblem, query: ComplexityQuery,
                    cap: int = COUNTING_CAP) -> ComplexityResult:
    """Minimal n with e(n) <= epsilon * CRI, as a spectrum count.

    The threshold is epsilon**2 for the absolute criterion and
    epsilon**2 * lam_{d,1} for the normalized one; n is the number of
    product eigenvalues strictly above it.  It is counted in the problem's
    space (see :mod:`tractal.products`), or in log space where the direct
    threshold underflows to 0.0.
    """
    if query.d != problem.d:
        raise InvalidInputError(f"query d={query.d} does not match problem d={problem.d}")
    threshold, T, log_space = _count_point(problem, query, cap)
    count = products.count_products_above_log if log_space else products.count_products_above
    res = count(problem, T, cap=cap)
    return ComplexityResult(n=res.count, threshold=threshold, saturated=res.saturated)


def info_complexity_grid(spec, criterion: str, d_list, eps_list,
                         cap: int = COUNTING_CAP) -> list:
    """info_complexity at every (d, epsilon), d outer, from one count walk per band.

    A band is the points whose thresholds, divided by the leading product,
    nearly coincide (:func:`products.count_grid`): under the normalized
    criterion the points of each epsilon, and under the absolute one the
    same when every leading eigenvalue is 1; otherwise each point is a band.
    Each result is the one ``info_complexity`` gives on
    ``ProductProblem.from_family(spec, d)``, and the inputs are checked in
    the grid's order, so the first error is the one a loop of those calls
    would raise.
    """
    thresholds, points = [], []
    for problem in products.family_problems(spec, d_list):
        for eps in eps_list:
            query = ComplexityQuery(epsilon=eps, d=problem.d, criterion=criterion)
            threshold, T, log_space = _count_point(problem, query, cap)
            thresholds.append(threshold)
            points.append((problem, T, log_space))
    return [ComplexityResult(n=res.count, threshold=threshold, saturated=res.saturated)
            for threshold, res in zip(thresholds, products.count_grid(points, cap))]


def _count_point(problem, query, cap):
    """``(threshold, T, log_space)``: the threshold reported for query and
    the one counted, in direct space or, with log_space set, as ln T.

    The direct threshold is eps**2, times lam_{d,1} under the normalized
    criterion.  In log space, ln T is ``math.log`` of that, or, where it
    would underflow or overflow, ``2 ln eps`` plus ``ln lam_{d,1}``; the
    threshold reported is then its ``exp``, 0.0 or inf past the double range.
    """
    if problem.family is not None and query.criterion not in problem.family.criterion_support:
        raise UnsupportedCriterionError(
            f"criterion {query.criterion!r} is not supported for the "
            f"{problem.family.family.value} family")
    products.check_cap(cap)
    eps2 = query.epsilon * query.epsilon
    if query.criterion == spectra.ABS:
        threshold = eps2
        if not problem.uses_log and eps2 > 0.0:
            return threshold, eps2, False
        log_threshold = math.log(eps2) if eps2 > 0.0 else 2.0 * math.log(query.epsilon)
        return threshold, log_threshold, True
    if not problem.uses_log:
        threshold = eps2 * problem.leading_product
        if threshold > 0.0:
            return threshold, threshold, False
    # CRI**2 assembled in log space, so huge d or tiny epsilon cannot underflow
    log_threshold = 2.0 * math.log(query.epsilon) + problem.log_leading_product
    return exp_or_inf(log_threshold), log_threshold, True


def lemma_bound(problem: ProductProblem, epsilon: float, tau: float) -> int:
    """ceil(normalized trace at tau * epsilon**(-2*tau)); an upper bound for
    the normalized-criterion complexity whenever the trace is finite."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError(f"epsilon must lie in (0,1), got {epsilon}")
    log_value = log_normalized_trace(problem, tau) - 2.0 * tau * math.log(epsilon)
    return ceil_exp(log_value)


def log_normalized_trace(problem: ProductProblem, tau: float) -> float:
    """ln sum_j (lam_{d,j}/lam_{d,1})**tau via the per-factor identity."""
    if problem.family is None:
        raise InvalidInputError("normalized traces need a family-backed problem")
    return float(spectra.log_trace_profile(problem.family, tau, problem.d, normalized=True)[-1])


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

    cum = spectra.log_trace_profile(spec, tau, D, normalized=True)
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
        total = float(spectra.log_trace_profile(spec, x, d, normalized=True)[-1])
        out[d - 1] = exp_or_inf(total / tau - 2.0 * math.log(d))
    return out
