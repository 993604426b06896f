"""d-variate product spectra: top-m enumeration, counting, trace sums.

Products are taken over one factor per dimension in fixed order k = 1..d.
For d <= 30 (and leading products comfortably inside the double range)
values are accumulated by direct multiplication, which makes results
bit-reproducible against the brute-force oracle; beyond that everything
switches to log space.

Counting and top-m both walk only the excitations of (1, ..., 1).  Divided
by the leading product, a tuple's value is the product of the ratios
lam(k, j_k)/lam(k, 1) over its coordinates with j_k >= 2, and almost every
tuple near the top has few of those, so a tuple's log value costs one
subtraction from its parent's, whatever d is.  Both walks read the ``-ln``
ratios in place from each factor's head, build longer ones for a dimension
only when they read past it, and prune on the same bound.  A family's
problem is a prefix of the family's dimension table
(:class:`spectra.DimensionTable`), which holds lam(k, 1), its log and
ln h_k for each k; a factor is built only when a walk can reach its
dimension, so a count costs what its excited dimensions cost, plus a pass
over d rows in C.

A count decides the tuples within a small relative window of the threshold
by the dense dimension-order evaluation, in direct or log space as above, so
counts agree bit for bit with that evaluation, ties included: a product
equal to the threshold is never counted.  A grid of thresholds on the
prefixes of one problem, as a sweep over (eps, d) has, is counted by one
walk per band: the points whose windows overlap form a band, walked once at
its largest d, because a tuple excited only in its first d dimensions has
the same log value at every dimension >= d.  Each point keeps its own
window and evaluation.  Under the normalised criterion each eps is one band
over all d, and so it is under the absolute criterion when every leading
eigenvalue is 1; otherwise each point is a band of its own.  A single count
is the one-point case.  Equal eigenvalues of a dimension (the cos and
sin pairs of the Korobov families) form a run whose members have the same
ratio, the same dense evaluations and the same subtree, so a count walks one
member per run, weighted by the run's length.  Top-m walks the same
tuples best first by log value, one member per run, and pushes each visited
tuple's exact dimension-order product into a heap of the m best as many
times as its weight; the log value only rules out tuples that lie a window
below the m-th.
"""
from __future__ import annotations

import heapq
import itertools
import math
import operator
from bisect import bisect_left
from functools import partial, reduce
from typing import TYPE_CHECKING, NamedTuple

from .errors import CapExceededError, InvalidInputError
from . import spectra

if TYPE_CHECKING:
    import numpy as np

ENUMERATION_CAP = 10**7
COUNTING_CAP = 10**8
# The largest d a problem is built at.  Building one reads two eigenvalues per
# dimension and builds no factor: at d = 10**5 (korobov g_k = k**-2) it took
# 0.2-0.34 s and ~22 MB, and the nor, eps = 0.01 count then built 100 factors.
# The rows grow with d, so d = 10**6 would hold ~0.2 GB.
DIMENSION_CAP = 10**5
# Log-space values add their logs in dimension order by a plain left fold, not
# by ``sum``, which compensates from Python 3.12 on: the bits then do not
# depend on the Python version.
log_fold = partial(reduce, operator.add)

_DIRECT_DIM_LIMIT = 30
_DIRECT_LOG_FLOOR = -300.0
# The borderline window is (3d + 20) * _WINDOW_ULPS wide per unit of the log
# magnitudes involved (see _band).  Both evaluations of a tuple take
# fewer than 3d + 20 rounded steps, each off by at most an ulp of those
# magnitudes (``math.log`` is within one ulp); the factor 4 is margin.
_WINDOW_ULPS = 4 * 2.0 ** -53
# A ratio list grows past this length only after reading the ratio at which
# its coordinate alone would saturate the count (see _walk_group).  Shorter
# lists are small, and the read would cost almost every count time for nothing.
_UNCHECKED_RATIOS = 1024


class _CountResult(NamedTuple):
    count: int
    saturated: bool
    cap: int


class CountResult(_CountResult):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.saturated and self.count != self.cap:
            raise ValueError("saturated counts must equal the cap")
        return self


class ProductProblem:
    """An ordered list of factor spectra defining the product eigenvalues.

    The problem is the first d rows of a :class:`spectra.DimensionTable`:
    its family's, or one holding the given factors.  Indices are 0-based
    here: ``factor(k)`` is the factor of dimension k + 1, built the first
    time it is read, and ``factors`` lists all d of them, building any not
    built yet.
    """

    def __init__(self, factors, family=None):
        factors = list(factors)
        if not factors:
            raise InvalidInputError("a product problem needs at least one factor")
        self._prefix(spectra.DimensionTable.of(factors), len(factors), family)

    @classmethod
    def from_family(cls, spec, d):
        return next(family_problems(spec, [d]))

    def _prefix(self, table, d, family):
        self.table, self.d, self.family = table, d, family
        # lam(k, 1) and its log for each k, the root's eigenvalues
        self.leads = table.leads[:d]
        self.log_leads = table.log_leads[:d]
        # suffix_leading[k] = prod_{k' >= k} lam(k', 1), 0-indexed, length d+1,
        # and log_suffix_leading the same sums of logs, both folded from the end
        self.suffix_leading = _suffix_fold(self.leads, operator.mul, 1.0)
        self.log_suffix_leading = _suffix_fold(self.log_leads, operator.add, 0.0)
        # hmax[k] = ln max_{k' >= k} h_k', with -inf past the last dimension
        self.hmax = _suffix_fold(table.log_h[:d], max, -math.inf)
        self.uses_log = (self.d > _DIRECT_DIM_LIMIT
                         or self.log_suffix_leading[0] < _DIRECT_LOG_FLOOR)

    def factor(self, k):
        return self.table.factor(k + 1)

    @property
    def factors(self):
        table = self.table
        table.build(self.d)
        return [table.factors[k] for k in range(1, self.d + 1)]

    @property
    def leading_product(self) -> float:
        return self.suffix_leading[0]

    @property
    def log_leading_product(self) -> float:
        return self.log_suffix_leading[0]

    def scaled(self, constants) -> "ProductProblem":
        """Each factor multiplied by its positive constant; family link dropped."""
        constants = list(constants)
        if len(constants) != self.d:
            raise InvalidInputError("need one scale constant per dimension")
        return ProductProblem([f.scaled(c) for f, c in zip(self.factors, constants)])


def _suffix_fold(values, op, start):
    """``[f(0), ..., f(n - 1), start]`` with ``f(k) = op(f(k + 1), values[k])``,
    ``f(n) = start``: a fold from the end."""
    folded = list(itertools.accumulate(reversed(values), op, initial=start))
    folded.reverse()
    return folded


def family_problems(spec, ds):
    """``ProductProblem.from_family(spec, d)`` for each d of ds, in order.

    Each problem is the first d rows of the family's dimension table
    (:class:`spectra.DimensionTable`), grown to d here: a row is lam(k, 1),
    its log and ln h_k, read from the closed form, and a factor is built
    only when something reads it.  So the problems share their leading
    factors, as the points of :func:`count_grid` must.  Being a generator,
    it raises each error where a loop of ``from_family`` calls would raise
    it: a d below 1, past the custom tables or past the cap before any row
    is read, and a leading eigenvalue that is not a positive double when its
    row is.
    """
    table = spec.dimension_table()
    for d in ds:
        if d < 1:
            raise InvalidInputError(f"d must be >= 1, got {d}")
        if spec.family is spectra.Family.CUSTOM and d > len(spec.tables):
            raise InvalidInputError(
                f"custom spec provides {len(spec.tables)} tables, requested d={d}")
        if d > DIMENSION_CAP:
            raise CapExceededError(f"d={d} exceeds the dimension cap {DIMENSION_CAP}")
        table.grow(d)
        problem = ProductProblem.__new__(ProductProblem)
        problem._prefix(table, d, spec)
        yield problem


def product_eigenvalues_top(problem: ProductProblem, m: int) -> np.ndarray:
    """The m largest product eigenvalues, nonincreasing, with multiplicity.

    Each value is its tuple's dimension-order fold: ``math.prod`` of the d
    eigenvalues in direct space, ``math.exp`` of the left fold
    (:data:`log_fold`) of their ``math.log`` in log space (see the module
    docstring).

    The tuples are the excitations of (1, ..., 1), walked as :func:`_walk`
    walks them: a node's children excite one dimension after its last
    excited one, and a child's log normalised value ``V`` is its parent's
    minus one ``-ln`` ratio.  A frontier visits them best ``V`` first, and a
    min-heap keeps the m best folds found so far.  A child's later siblings
    enter the frontier once it is visited, and its children in dimensions
    >= k as one entry keyed by the bound ``hmax[k]``, so a visit costs a
    fold and a few pushes, not one per dimension.  As in counts, one member
    per run of equal eigenvalues is visited, with a weight ``W``, the number
    of tuples it stands for; its fold enters the heap W times, at most m.

    An entry of dimension k carries, in place of its parent's chain, the
    fold ``P`` of its parent's terms in dimensions < k, from the identity
    (1.0, or -0.0 in log space) on.  A child of dimension k folds its own
    term onto P, then the leads after k: the same operations in the same
    order as the whole fold, and one eigenvalue read per visit.

    Once the frontier's best ``V`` lies a borderline window below the heap's
    least fold, no tuple left can rank, and the walk stops.  A visited tuple
    whose fold is no larger than the heap's least is dropped with its later
    siblings and its subtree: replacing one term by one no larger never
    raises a fold.  So a band of tuples tied with the m-th value costs about
    m visits per dimension, not its size.
    """
    if m < 1:
        raise InvalidInputError(f"m must be >= 1, got {m}")
    if m > ENUMERATION_CAP:
        raise CapExceededError(f"m={m} exceeds the enumeration cap {ENUMERATION_CAP}")
    facs = problem.factors
    use_log = problem.uses_log
    term, op, one = (math.log, operator.add, -0.0) if use_log else (float, operator.mul, 1.0)
    band = _band(problem, use_log)
    hmax = problem.hmax
    neg = problem.table.neg_heads[:problem.d]  # as in _walk; facs built every head
    runs = problem.table.head_runs[:problem.d]
    root = problem.log_leads if use_log else problem.leads
    heap = [log_fold(root) if use_log else math.prod(root)]
    lo = -math.inf  # no child is dropped unfolded until the heap holds m folds
    frontier = []
    seq = itertools.count()

    def push(key, k, i, V, W, P):
        if key > lo:  # never at a zero eigenvalue, where the key is -inf
            heapq.heappush(frontier, (-key, next(seq), k, i, V, W, P))

    if m > 1:
        push(hmax[0], 0, -1, 0.0, 1, one)
    while frontier:
        key, _, k, i, V, W, P = heapq.heappop(frontier)
        if -key <= lo:  # so is every node left, and every node not yet pushed
            break
        if i < 0:
            # the node's children in dimensions >= k, keyed by their bound hmax
            push(V + hmax[k + 1], k + 1, -1, V, W, op(P, root[k]))
            n = 1  # its first child is the sibling after i = -1
        else:
            n = runs[k][i] if runs[k] else 1
            Pk = op(P, term(facs[k].eigenvalue(i + 2)))
            f = log_fold(root[k + 1:], Pk) if use_log else math.prod(root[k + 1:], start=Pk)
            if len(heap) == m and f <= heap[0]:
                continue
            for _ in range(min(W * n, m)):
                if len(heap) < m:
                    heapq.heappush(heap, f)
                elif f > heap[0]:
                    heapq.heapreplace(heap, f)
                else:
                    break
            if len(heap) == m:
                lo = band(heap[0])[0]
            push(-key + hmax[k + 1], k + 1, -1, -key, W * n, Pk)
        # the next sibling: a node and i + n children ranked before it fill
        # the heap with folds no smaller than its own, so no node needs m children
        i += n
        if i + 1 < m:
            if i == len(neg[k]):
                _grow_ratios(facs[k], neg, runs, k, m - 1)
            push(V - neg[k][i], k, i, V, W, P)
    if len(heap) < m:
        raise InvalidInputError("spectrum exhausted before m values (zero eigenvalue hit)")
    heap.sort(reverse=True)
    import numpy as np

    return np.array([math.exp(v) for v in heap] if use_log else heap)


def count_products_above(problem: ProductProblem, T: float, cap: int = COUNTING_CAP) -> CountResult:
    """|{(j_1..j_d) : prod_k lam(k, j_k) > T}|, saturating at cap.

    The count is the one the dense dimension-order counter gives: strict
    ``>``, so products equal to T are excluded, with the products formed by
    direct multiplication for d <= 30 and as sums of logs beyond (see the
    module docstring).  It is the one-point case of :func:`count_grid`.
    """
    return count_grid([(problem, T, False)], cap)[0]


def count_products_above_log(problem: ProductProblem, log_T: float,
                             cap: int = COUNTING_CAP) -> CountResult:
    """count_products_above with the threshold given as ln T.

    Counts in log space regardless of dimension, so thresholds outside the
    double range stay usable.
    """
    return count_grid([(problem, log_T, True)], cap)[0]


def count_grid(points, cap: int = COUNTING_CAP) -> list:
    """The counts of several points, in order, from one excitation walk per band.

    A point ``(problem, T, log_space)`` is counted as
    ``count_products_above(problem, T)``, or, with log_space set, as
    ``count_products_above_log(problem, T)``.  Each problem's factors must
    be the first factors of the largest problem's, as they are for the
    problems :func:`family_problems` builds.
    """
    points = list(points)
    for i, (problem, T, log_space) in enumerate(points):
        if log_space:
            if not math.isfinite(T):
                raise InvalidInputError(f"log threshold must be finite, got {T}")
        elif not math.isfinite(T) or T <= 0:
            raise InvalidInputError(
                f"threshold must be positive and finite, got {T} (a count at 0 would be infinite)")
        elif problem.uses_log:
            points[i] = (problem, math.log(T), True)
    check_cap(cap)
    largest = max((p for p, _, _ in points), key=operator.attrgetter("d"), default=None)
    # problems on one table share their leading factors by construction
    if any(p.table is not largest.table and p.factors != largest.factors[:p.d]
           for p, _, _ in points):
        raise InvalidInputError("grid problems must share the leading factors of the largest")
    return _walk(points, cap)


def check_cap(cap):
    """Reject a count cap below 1, as every count does."""
    if cap < 1:
        raise InvalidInputError(f"cap must be >= 1, got {cap}")


class _Point:
    """One threshold of a walk: its problem, its window and its count so far."""

    __slots__ = ("problem", "T", "log_space", "d", "lo", "hi", "extra")

    def __init__(self, problem, T, log_space, lo, hi):
        self.problem, self.T, self.log_space = problem, T, log_space
        self.d, self.lo, self.hi = problem.d, lo, hi
        self.extra = 0          # children accepted beyond the band's sure ones

    def accepts(self, exc, k, j):
        """The dense rule's decision for the child exciting (k, j) of exc."""
        lams = _tuple_terms(self.problem, (k, j, exc, 0))
        return _dense_rule(self.problem, lams, self.T, self.log_space)


def _walk(points, cap):
    """Count every point's tuples by walks of the excitations of (1, ..., 1).

    A node is a tuple, held as its log normalised value
    ``V = sum_k ln(lam(k, j_k) / lam(k, 1))`` (zero at the root) and the
    chain of its excited coordinates.  Its children excite one more
    dimension after its last excited one.  ``neg[k]`` holds
    ``-ln(lam(k, j) / lam(k, 1))`` for j = 2, 3, ... (ascending; zero
    eigenvalues give +inf), so the children of a node in dimension k that
    clear a bound are a prefix found by bisection.  It starts as factor k's
    ``neg_log_head`` tuple, read in place, and ``runs[k]`` as its
    ``head_runs``; only a walk that reads past the head gives the dimension
    longer tuples of its own (:func:`_grow_ratios`).  The walk over a node's
    dimensions stops once the node times the largest second ratio
    ``h_k = lam(k,2)/lam(k,1)`` among those left falls below the bound; h
    need not be monotone in k.  So no node, whose ``V`` is at most 0, reads
    a dimension k with ``hmax[k] <= lo``; as hmax is a suffix maximum, the
    dimensions read are a prefix.  Its factors are built before the walk,
    with no check in the loop, and ``neg`` and ``runs`` start as slices of
    the table's heads that far.

    For a point, values above its window ``(lo, hi)`` from :func:`_band`
    are counted and those below it rejected; values in between are decided
    by :func:`_dense_rule` on the point's own problem.  Every decision is
    monotone in each coordinate, so a child rejected by a point has no
    descendant it accepts, and the first child it rejects in a dimension
    ends that dimension's children for it.

    A tuple excited only in its first d dimensions has the same ``V`` in
    every problem of dimension >= d, because factor k depends only on k.
    So the points whose windows overlap form a band, counted by one walk
    (:func:`_walk_group`) at its largest d, in which a child in dimension k
    belongs to each point of dimension d > k; the bands share the ratio
    lists.  Under the normalised criterion the points of one eps form one
    band over all d, and so they do under the absolute criterion when every
    leading eigenvalue is 1; otherwise each point is a band of its own.

    A run of equal eigenvalues in a dimension (see
    :meth:`spectra.FactorSpectrum.ratio_runs`) has equal ratios, so no
    bisection splits it, and equal dense-rule decisions, so no borderline
    decision does; its members' subtrees are the same.  The walk pushes one
    child per run, carrying a weight ``W``: the product of the run lengths
    along its chain.  Each child a node counts, it counts W times, and each
    run in a band is decided once.  A run is read only as far as its ratio
    list, so one that continues past the list's end is cut there; the rest
    is another run once the list grows.  Dimensions without a run push as
    before, with W = 1.
    """
    results = {}
    open_pts = []
    for sub, T, log_space in points:
        key = (sub.d, T, log_space)
        if key in results:
            continue
        lo, hi = _band(sub, log_space)(T)
        if not (0.0 > lo and (0.0 > hi or _dense_rule(sub, sub.leads, T, log_space))):
            results[key] = CountResult(0, False, cap)
        else:
            open_pts.append(_Point(sub, T, log_space, lo, hi))
    bands = []
    for pt in sorted(open_pts, key=operator.attrgetter("lo")):
        if bands and pt.lo <= band_hi:
            bands[-1].append(pt)
            band_hi = max(band_hi, pt.hi)
        else:
            bands.append([pt])
            band_hi = pt.hi
    # the bands share the ratios, whose dimension k is read by every band of
    # d > k; runs[k] gives the runs of equal eigenvalues in neg[k] (see
    # FactorSpectrum.ratio_runs), or is None while no run is longer than one
    neg = runs = ()
    if open_pts:
        # every band's lo is at least the first band's, and its hmax at most
        # the largest problem's: the prefix where the one exceeds the other
        largest = max(open_pts, key=operator.attrgetter("d")).problem
        K = bisect_left(largest.hmax, -bands[0][0].lo, key=operator.neg)
        table = largest.table
        table.build(K)
        neg, runs = table.neg_heads[:K], table.head_runs[:K]
    for band in bands:
        band.sort(key=operator.attrgetter("d"))
        for pt, n in zip(band, _walk_group(band, cap, neg, runs)):
            results[pt.d, pt.T, pt.log_space] = (CountResult(cap, True, cap) if n >= cap
                                                 else CountResult(n, False, cap))
    return [results[(sub.d, T, log_space)] for sub, T, log_space in points]


def _walk_group(band, cap, neg, runs):
    """The walk of :func:`_walk` for one band, its points ordered by d; their counts.

    The walk runs at the problem of the top point, the one of largest d, and
    prunes at the band's ``lo``, the least of its points'.  ``acc[k]``
    counts the children in dimension k above every window, which count for
    each point with d > k; it is kept below ``dsec``, the second largest d,
    as ``tot`` is the top's count so far.  A top whose count reaches cap is
    closed, and the node being walked is walked again from the dimension it
    had reached: the point of the next d becomes the top, and the band
    narrows to the points left.
    """
    pts = list(band)
    problem = pts[-1].problem
    hmax = problem.hmax
    acc = [0] * problem.d
    tot = 1
    stack = [(0.0, 0, None)]
    while pts:
        lo = min(p.lo for p in pts)
        hi = max(p.hi for p in pts)
        top = pts[-1].d
        dsec = pts[-2].d if len(pts) > 1 else 0
        while stack and tot < cap:
            V, k0, exc = stack.pop()
            W = exc[3] if exc else 1
            raw = 0  # the node's children counted for the top, before weighting
            for k in range(k0, top):
                if V + hmax[k] <= lo:
                    break
                nl = neg[k]
                key = V - lo
                m = bisect_left(nl, key)
                while m == len(nl) < cap:
                    fac = problem.factor(k)
                    # A long list grows again only if this dimension alone
                    # does not fill the rest of the top's count, so no list
                    # grows toward cap.
                    if len(nl) >= _UNCHECKED_RATIOS:
                        tot += raw * W
                        raw = 0
                        room = cap - tot
                        if room <= 0 or (nl[room - 1] if room <= len(nl) else
                                         fac.ratio_runs(room + 1, room + 2)[0][0]) < V - hi:
                            tot = cap
                            break
                    nl = _grow_ratios(fac, neg, runs, k, cap)
                    m = bisect_left(nl, key, m)
                if tot >= cap:
                    # the top is full: close it, then walk the node from k on again
                    stack.append((V, k, exc))
                    break
                n_push = bisect_left(nl, V - hi, 0, m)
                if k < dsec:
                    acc[k] += n_push * W
                raw += n_push
                if n_push < m:
                    n_push, extra = _borderline(pts, nl, runs[k], V, k, exc, W, n_push, m)
                    tot += extra
                # hmax[d] is -inf: no child of the last dimension is pushed
                n_int = bisect_left(nl, V + hmax[k + 1] - lo, 0, n_push)
                if n_int:
                    ln = runs[k]
                    if ln is None:
                        stack.extend([(V - nl[i], k + 1, (k, i + 2, exc, W)) for i in range(n_int)])
                    else:
                        # one child per run, standing for the run's identical subtrees
                        stack.extend([(V - nl[i], k + 1, (k, i + 2, exc, W * ln[i]))
                                      for i in range(n_int) if ln[i]])
            tot += raw * W
        if tot < cap:
            break
        pts.pop()
        if pts:
            tot = 1 + sum(acc[:pts[-1].d]) + pts[-1].extra
    counts = [1 + sum(acc[:p.d]) + p.extra for p in pts[:-1]] + [tot] if pts else []
    return counts + [cap] * (len(band) - len(pts))


def _borderline(pts, nl, ln, V, k, exc, W, n, m):
    """Decide the children n <= i < m, inside the band, point by point.

    ``pts`` are the band's open points, ordered by d, and ``ln`` gives the
    runs of equal eigenvalues (None if there are none): the dense rule
    decides each run once.  Adds to each point's extra the children it
    accepts beyond the first n, times the node's weight W; returns the most
    children a point accepts and the top's extra.
    """
    most = n
    top_extra = 0
    top = pts[-1]
    for p in pts:
        if p.d <= k:
            continue
        mp = bisect_left(nl, V - p.lo, n, m)
        i = bisect_left(nl, V - p.hi, n, mp)
        while i < mp and p.accepts(exc, k, i + 2):
            i += ln[i] if ln else 1
        p.extra += (i - n) * W
        if p is top:
            top_extra = (i - n) * W
        if i > most:
            most = i
    return most, top_extra


def _grow_ratios(fac, neg, runs, k, limit):
    """Replace ``neg[k]`` and ``runs[k]`` (see :func:`_walk`) by new tuples
    extended by the next block from factor fac, to twice as many ratios but
    at most ``limit``, and return the new ``neg[k]``; the old ones, the
    factor's head at first, are left as they are."""
    nl = neg[k]
    block, ln = fac.ratio_runs(len(nl) + 2, min(2 * len(nl), limit) + 2)
    if ln is not None or runs[k] is not None:
        runs[k] = (runs[k] or (1,) * len(nl)) + (ln or (1,) * len(block))
    neg[k] = nl = nl + block
    return nl


def _tuple_terms(problem, exc):
    """The d eigenvalues of the tuple that the chain exc excites, in
    dimension order: the leads, with ``lam(k, j)`` at each excited coordinate (k, j)."""
    terms = problem.leads.copy()
    while exc is not None:
        k, j, exc, _ = exc
        terms[k] = problem.factor(k).eigenvalue(j)
    return terms


def _band(problem, log_space):
    """The borderline window of a count, as a function of T.

    It maps a threshold T (ln T in log space) to the normalised ``(lo, hi)``:
    ``ln T - ln L`` widened by a window ``w`` on each side, where L is the
    leading product.  ``w`` bounds the rounding of the walk's log values and
    of the dimension-order evaluations, plus, for subnormal direct products,
    an absolute slack on T.  So a tuple whose log normalised value lies
    above ``hi`` has every dimension-order evaluation above T, and one at or
    below ``lo`` has every such evaluation at or below T.
    """
    log_L = problem.log_leading_product
    scale = _WINDOW_ULPS * (3 * problem.d + 20)
    base = 1.0 + math.fsum(map(abs, problem.log_leads))
    # A direct product step that goes subnormal is off by up to 2**-1075,
    # times the factors after it (at most the largest leading suffix).
    slack = 0.0 if log_space else problem.d * 2.0 ** -1074 * max(problem.suffix_leading)

    def band(T):
        if log_space:
            log_hi = log_lo = T
        else:
            log_hi = math.log(T + slack)
            log_lo = math.log(T - slack) if T > slack else -math.inf
        w = scale * (base + abs(log_hi) + abs(log_hi - log_L))
        return log_lo - log_L - w, log_hi - log_L + w

    return band


def _dense_rule(problem, lams, T, log_space):
    """The dense dimension-order counter's decision for the one tuple whose
    eigenvalues, in dimension order, are lams.

    Prefixes are multiplied (or, in log space, summed with ``math.log``) in
    dimension order, and each prefix times the leading product of the
    remaining dimensions must exceed T; the last check is the full product.
    """
    sfx = problem.log_suffix_leading if log_space else problem.suffix_leading
    P = 0.0 if log_space else 1.0
    for k, lam in enumerate(lams, 1):
        if lam <= 0.0:
            return False
        P = P + math.log(lam) if log_space else P * lam
        if not ((P + sfx[k]) > T if log_space else (P * sfx[k]) > T):
            return False
    return True


def trace_sum(problem: ProductProblem, tau: float) -> float:
    """sum_j lam_{d,j}**tau = prod_k sum_j lam(k,j)**tau; inf beyond the double range."""
    log_value = log_trace_sum(problem, tau)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def log_trace_sum(problem: ProductProblem, tau: float) -> float:
    """ln of the trace sum; use this form for large d to avoid overflow."""
    if problem.family is None:
        raise InvalidInputError("trace sums need a family-backed problem")
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    return float(spectra.log_trace_profile(problem.family, tau, problem.d, normalized=False)[-1])


def brute_force_oracle(problem: ProductProblem, J: int) -> np.ndarray:
    """All products over the box j_k <= J, sorted descending.

    Each product is formed as the top-m walk forms it: by direct
    multiplication, or, for problems in log space, as ``math.exp`` of the
    dimension-order :data:`log_fold` of ``math.log`` terms.  Exact reference
    only for thresholds above max_k lam(k, J) * prod_{k' != k} lam(k', 1); see
    :func:`oracle_validity_floor`.
    """
    import numpy as np

    if problem.uses_log:
        return np.fromiter(map(math.exp, brute_force_log_oracle(problem, J)),
                           dtype=float, count=J ** problem.d)
    return np.sort(box_products(problem, J))[::-1]


def box_products(problem: ProductProblem, J: int) -> np.ndarray:
    """All products over the box j_k <= J, unsorted, multiplied in dimension order."""
    import numpy as np

    vals = None
    for row in _box_rows(problem, J):
        vals = np.array(row) if vals is None else np.multiply.outer(vals, row).ravel()
    return vals


def brute_force_log_oracle(problem: ProductProblem, J: int) -> np.ndarray:
    """The logs of all products over the box j_k <= J, sorted descending.

    Each is the dimension-order :data:`log_fold` of ``math.log`` terms, as the
    top-m walk forms it in log space; the log-space count compares such sums, not
    their ``exp``, with ln T.  A zero eigenvalue gives -inf.
    """
    import numpy as np

    logs = [[math.log(v) if v > 0.0 else -math.inf for v in row]
            for row in _box_rows(problem, J)]
    vals = np.fromiter(map(log_fold, itertools.product(*logs)), dtype=float, count=J ** problem.d)
    return np.sort(vals)[::-1]


def _box_rows(problem, J):
    if J < 1:
        raise InvalidInputError(f"J must be >= 1, got {J}")
    if J ** problem.d > ENUMERATION_CAP:
        raise CapExceededError(f"J**d = {J ** problem.d} exceeds {ENUMERATION_CAP}")
    return [fac.values(1, J + 1) for fac in problem.factors]


def oracle_validity_floor(problem: ProductProblem, J: int) -> float:
    """Thresholds above this value are counted exactly by the J-box oracle:
    max_k lam(k, J) * prod_{k' != k} lam(k', 1)."""
    leads = problem.leads
    return max(fac.eigenvalue(J) * math.prod(leads[:k] + leads[k + 1:])
               for k, fac in enumerate(problem.factors))
