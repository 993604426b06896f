"""Top-m product eigenvalues and the minimal errors e(n) read from them.

No counting command runs this code, so it is a module of its own, loaded
on first use through the names :mod:`tractal.products` and
:mod:`tractal.complexity` give it (``products.product_eigenvalues_top``,
``complexity.minimal_error``).  The walk shares the count walk's bounds,
heads and borderline window, which :mod:`tractal.products` defines.  Its
frontier hands each visit's last entry to the next visit, so a visit
usually costs one heap operation, and breaks no tie by insertion order
(:func:`top_folds`).  m and n are read through ``operator.index``: a
float, even a whole one, is refused.
"""
from __future__ import annotations

import heapq
import math
import operator
import sys
from typing import TYPE_CHECKING

from .errors import CapExceededError, InvalidInputError
from .products import (ENUMERATION_CAP, LOG, ProductProblem, _band, _bound, _bounds,
                       _grow_ratios, _hmax, _log)
from .xreal import exp_or_inf

if TYPE_CHECKING:
    import numpy as np


def product_eigenvalues_top(problem: ProductProblem, m: int) -> np.ndarray:
    """The m largest product eigenvalues, nonincreasing, with multiplicity.

    Each value is its tuple's dimension-order fold in the problem's
    :class:`~tractal.products.Space` (:func:`top_folds`): ``math.prod`` of
    the d eigenvalues in DIRECT, ``math.exp`` of the left fold of their
    ``math.log`` in LOG, or inf where that overflows.
    """
    return problem.space.values(top_folds(problem, m))


def top_folds(problem: ProductProblem, m: int) -> list:
    """The folds of the m largest product eigenvalues in the problem's
    :class:`~tractal.products.Space`, nonincreasing: their values, or in LOG
    their logs, which stay finite where the values leave the double range.

    The tuples are the excitations of (1, ..., 1), walked as the count walk
    (``products._walk``) walks them: a node's children excite one dimension
    after its last excited one, and a child's log normalised value ``V`` is
    its parent's minus one ``-ln`` ratio.  A frontier visits them best ``V``
    first, and a min-heap keeps the m best folds found so far.  A child's
    next sibling enters the frontier once it is visited, and its children
    in dimensions >= k as one entry keyed by the bound ``hmax[k]``
    (``products._hmax``, folded once per call, or on a unit-lead table
    started by ``products._bounds`` and extended as the frontier reaches
    each dimension), so a visit makes at most two entries, not one per
    dimension.  It pushes the first and hands the last to the next
    iteration, which takes ``heapq.heappushpop``: where no entry in the
    frontier beats it, it comes straight back, and a visit costs a fold and
    one heap operation.  An entry is a tuple of numbers, ordered by its key
    and then by its other fields; equal keys keep no insertion order, and
    need none, as the m largest folds are a multiset and each fold is fixed
    by its tuple's one path.  As in counts, one member per run of equal
    eigenvalues is visited, with a weight ``W``, the number of tuples it
    stands for; its fold enters the heap W times, at most m.

    An entry of dimension k carries, in place of its parent's chain, the
    fold ``P`` of its parent's terms in dimensions < k, from the space's
    ``unit`` on.  A child of dimension k folds its own term onto P, then the
    leads after k up to the problem's ``unit_end``, past which each lead
    folds as the identity: the same bits as the whole fold, and one
    eigenvalue read per visit.  So a korobov or analytic korobov visit costs
    O(k), and one of a family whose leads are not 1.0 (euler, gaussian)
    still costs O(d).

    As in counts, ``heads`` starts as a copy of the table's built heads,
    and the head of dimension k, with its factor, is read through the
    table's ``head`` when the frontier first pops an entry of dimension k,
    which it does after one of dimension k - 1.  A popped entry's key lies
    above the heap's ``lo``, so only the prefix of dimensions the m-th value
    can reach is built: at korobov ``g_k = k**-2``, d = 10**5 and m = 1000,
    24 factors.

    Once the frontier's best ``V`` lies a borderline window below the heap's
    least fold, no tuple left can rank, and the walk stops.  That bound,
    ``lo``, is re-read from the window only when the heap holds m folds and
    its least fold has changed; an entry whose key is not above ``lo`` is
    never made.  A visited tuple whose fold is no larger than the heap's
    least is dropped with its later siblings and its subtree: replacing one
    term by one no larger never raises a fold.  So a band of tuples tied
    with the m-th value costs about m visits per dimension, not its size.
    """
    m = _count_of("m", m, 1)
    if m > ENUMERATION_CAP:
        raise CapExceededError(f"m={m} exceeds the enumeration cap {ENUMERATION_CAP}")
    table, d = problem.table, problem.d
    # the walk's own copy, as _grow_ratios replaces its entries
    heads = table.ratio_heads[:d]
    factors = table.factors  # holds every factor whose head is read
    space = problem.space
    term, op, fold, unit = space.term, space.op, space.fold, space.unit
    band = _band(problem, space)
    # the leads a fold reads: each lead past them folds as the identity
    root = getattr(table, space.leads)[:problem.unit_end]
    fold_end = len(root)
    heap = [fold(root, unit)]
    hmax = _bounds(table, d) if table.unit_leads else _hmax(problem)
    lo = -math.inf  # no child is dropped unfolded until the heap holds m folds
    least = -math.inf  # the heap's least fold once it holds m, which lo was read from
    frontier = []
    # the entry handed to the next iteration, which pushes it and pops the best
    entry = (-hmax[0], 0, -1, 0.0, 1, unit) if m > 1 else None
    while entry or frontier:
        entry = heapq.heappushpop(frontier, entry) if entry else heapq.heappop(frontier)
        key, k, i, V, W, P = entry
        entry = None
        if -key <= lo:  # so is every node left, and every node not yet pushed
            break
        if i < 0:
            if k + 1 == len(hmax):  # the first visit to dimension k past the rows read
                hmax.append(_bound(table, k + 1, d))
            # the node's children in dimensions >= k, keyed by their bound hmax
            child = V + hmax[k + 1]
            if child > lo:  # never at a zero eigenvalue, where the key is -inf
                entry = (-child, k + 1, -1, V, W, op(P, root[k]) if k < fold_end else P)
            n = 1  # its first child is the sibling after i = -1
            if k == len(heads):  # the first visit to dimension k: entries of k - 1 came first
                heads.append(table.head(k + 1))
        else:
            n = heads[k][1][i]
            Pk = op(P, term(factors[k + 1].eigenvalue(i + 2)))
            f = fold(root[k + 1:fold_end], Pk)
            if f <= least:
                continue
            for _ in range(min(W * n, m)):
                if len(heap) < m:
                    heapq.heappush(heap, f)
                elif f > heap[0]:
                    heapq.heapreplace(heap, f)
                else:
                    break
            if len(heap) == m and heap[0] != least:
                least = heap[0]
                lo = band(least)[0]
            child = -key + hmax[k + 1]
            if child > lo:
                entry = (-child, k + 1, -1, -key, W * n, Pk)
        # the next sibling: a node and i + n children ranked before it fill
        # the heap with folds no smaller than its own, so no node needs m children
        i += n
        if i + 1 < m:
            nl = heads[k][0]
            if i == len(nl):
                nl, _ = _grow_ratios(factors[k + 1], heads, k, m - 1)
            sibling = V - nl[i]
            if sibling > lo:
                if entry:
                    heapq.heappush(frontier, entry)
                entry = (-sibling, k, i, V, W, P)
    if len(heap) < m:
        raise InvalidInputError("spectrum exhausted before m values (zero eigenvalue hit)")
    heap.sort(reverse=True)
    return heap


def _count_of(name, value, least):
    """value as an int through ``operator.index``, so that 2.5, nan and
    ``np.float64`` are refused and ``np.int64`` is read, if it is >= least."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    return value


def minimal_error(problem: ProductProblem, n: int) -> float:
    """e(n) = sqrt of the (n+1)-st largest product eigenvalue; e(0) is the
    initial error sqrt(prod_k lam(k,1)).  In log space, where that value is
    not a normal double, ``exp`` of half its log fold; inf or 0.0 past the
    double range."""
    n = _count_of("n", n, 0)
    if n == 0:
        return exp_or_inf(0.5 * problem.log_leading_product)
    fold = top_folds(problem, n + 1)[-1]
    value = problem.space.values([fold])[0]
    if problem.space is LOG and not sys.float_info.min <= value < math.inf:
        # the value left the double range, but its square root may not have
        return exp_or_inf(0.5 * fold)
    return math.sqrt(value)


def log_minimal_error(problem: ProductProblem, n: int) -> float:
    """ln e(n): half the log fold of the (n+1)-st largest product eigenvalue
    in log space, half the ``math.log`` of its value in direct space (-inf
    at 0.0), and half the log leading product at n = 0.  Unlike
    :func:`minimal_error` it stays finite where e(n) leaves the double range."""
    n = _count_of("n", n, 0)
    if n == 0:
        return 0.5 * problem.log_leading_product
    fold = top_folds(problem, n + 1)[-1]
    return 0.5 * (fold if problem.space is LOG else _log(fold))
