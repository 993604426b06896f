"""Information complexity n(eps, d), and the minimal errors and trace bounds beside it."""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidInputError, UnsupportedCriterionError
from .xreal import exp_or_inf
from . import _lazy, products, spectra
from .products import COUNTING_CAP, ProductProblem

# What no count runs lives in modules of its own, loaded on first use: the
# minimal errors e(n), read from top-m, and the trace bounds and functionals.
__getattr__ = _lazy(globals(), {
    "topm": ("minimal_error", "log_minimal_error"),
    "traces": ("lemma_bound", "log_normalized_trace", "pt_functional", "qpt_functional"),
})


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
    the one counted, T itself, which :func:`products.count_grid` takes into
    the problem's space, or, with log_space set, ln T.

    The threshold is eps**2, times lam_{d,1} under the normalized
    criterion.  Where that underflows to 0.0, and under the normalized
    criterion whenever the problem is in log space, ln T is ``2 ln eps``,
    plus ``ln lam_{d,1}`` under the normalized criterion; the threshold
    reported is then its ``exp``, 0.0 or inf past the double range.
    """
    if problem.family is not None and query.criterion not in problem.family.criterion_support:
        raise UnsupportedCriterionError(
            f"criterion {query.criterion!r} is not supported for the "
            f"{problem.family.family.value} family")
    products.check_cap(cap)
    eps2 = query.epsilon * query.epsilon
    if query.criterion == spectra.ABS:
        if eps2 > 0.0:
            return eps2, eps2, False
        return eps2, 2.0 * math.log(query.epsilon), True
    if problem.space is products.DIRECT:
        threshold = eps2 * problem.leading_product
        if threshold > 0.0:
            return threshold, threshold, False
    # CRI**2 assembled in log space, so huge d or tiny epsilon cannot underflow
    log_threshold = 2.0 * math.log(query.epsilon) + problem.log_leading_product
    return exp_or_inf(log_threshold), log_threshold, True
