"""The brute-force box oracle: every product over the box j_k <= J.

It is the exact reference the count and top-m walks are checked against
(``tractal oracle-compare``, :mod:`tractal.verify`, the tests).  No counting
command runs it, so it is a module of its own, loaded on first use through
the names :mod:`tractal.products` gives it (``products.brute_force_oracle``
and the others below).
"""
from __future__ import annotations

import math
from functools import reduce
from typing import TYPE_CHECKING

from .errors import CapExceededError, InvalidInputError
from .products import DIRECT, ENUMERATION_CAP, ProductProblem, Space, check_dimension

if TYPE_CHECKING:
    import numpy as np


def brute_force_oracle(problem: ProductProblem, J: int) -> np.ndarray:
    """All products over the box j_k <= J, sorted descending.

    Each product is formed as the top-m walk forms it, in the problem's
    :class:`~tractal.products.Space` (:func:`box_folds`): by direct
    multiplication, or as ``math.exp`` of the dimension-order sum of
    ``math.log`` terms (inf where that overflows).  Exact reference only for
    thresholds above max_k lam(k, J) * prod_{k' != k} lam(k', 1); see
    :func:`oracle_validity_floor`.
    """
    import numpy as np

    return problem.space.values(np.sort(box_folds(problem, J, problem.space))[::-1])


def box_products(problem: ProductProblem, J: int) -> np.ndarray:
    """All products over the box j_k <= J, unsorted, multiplied in dimension order."""
    return box_folds(problem, J, DIRECT)


def box_folds(problem: ProductProblem, J: int, space: Space) -> np.ndarray:
    """The folds in space of all products over the box j_k <= J, unsorted,
    the last index fastest.

    The box grows by one dimension at a time, as the outer ``space.op`` of
    the folds so far with the dimension's terms: one IEEE step per
    dimension, in dimension order, the same bits as ``space.fold`` of each
    tuple's terms from its first one.
    """
    import numpy as np

    rows = [np.array(list(map(space.term, row))) for row in _box_rows(problem, J)]
    return reduce(lambda vals, row: space.op(vals[:, None], row).ravel(), rows)


def _box_rows(problem, J):
    if J < 1:
        raise InvalidInputError(f"J must be >= 1, got {J}")
    check_dimension(problem.d)
    if J ** problem.d > ENUMERATION_CAP:
        raise CapExceededError(f"J**d = {J ** problem.d} exceeds {ENUMERATION_CAP}")
    return [fac.values(1, J + 1) for fac in problem.factors]


def oracle_validity_floor(problem: ProductProblem, J: int) -> float:
    """Thresholds above this value are counted exactly by the J-box oracle:
    max_k lam(k, J) * prod_{k' != k} lam(k', 1)."""
    leads = problem.leads
    return max(fac.eigenvalue(J) * math.prod(leads[:k] + leads[k + 1:])
               for k, fac in enumerate(problem.factors))
