"""d-variate product spectra: top-m enumeration, counting, trace sums.

Products are taken over one factor per dimension in fixed order k = 1..d.
For d <= 30 (and leading products comfortably inside the double range)
values are accumulated by direct multiplication, which makes results
bit-reproducible against the brute-force oracle; beyond that everything
switches to log space, and a value whose ``exp`` leaves the double range
reads 0.0 or inf.

Counting and top-m both walk only the excitations of (1, ..., 1).  Divided
by the leading product, a tuple's value is the product of the ratios
lam(k, j_k)/lam(k, 1) over its coordinates with j_k >= 2, and almost every
tuple near the top has few of those, so a tuple's log value costs one
subtraction from its parent's, whatever d is.  Both walks read the ``-ln``
ratios in place from each factor's head, build longer ones for a dimension
only when they read past it, and prune on the same bound.  A family's
problem is a view of a prefix of the family's dimension table
(:class:`spectra.DimensionTable`), which holds lam(k, 1), its log and
ln h_k for each k: the problem stores d and its leading product, and each
list derived from the rows is built by the code that reads it, so the
problems of a d-range hold no d-long list each.  Either walk starts from a
copy of the heads the table has built, and asks the table for the head of
the dimension past them when it first reaches it, right after the one
before; a count whose top point is full asks for none.  So a walk builds
the factors it reaches and no others, and costs what its excited dimensions
cost, plus a few passes over d rows in C.  The table builds one factor per
distinct parameter tuple, so the dimensions of a constant sequence share
one.

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
below the m-th.  Both exact evaluations skip the trailing run of leads equal
to 1.0 (0.0 in log space), which folds as the identity, bit for bit.
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
from .xreal import exp_or_inf
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

    The problem is a view of the first d rows of a
    :class:`spectra.DimensionTable`: its family's, or one holding the given
    factors.  It stores the table, d and the family, plus three scalars: the
    leading product, its log and ``uses_log``; ``leads`` and ``log_leads``
    read the table's rows.  Each list derived from the rows is built by the
    code that reads it: ``hmax`` by the walks (:func:`_hmax`), a point's
    suffix fold by its first borderline decision, kept until the point is
    counted (:class:`_Point`).
    Indices are 0-based here: ``factor(k)`` is the factor of dimension
    k + 1, and ``factors`` lists all d of them, both read through the
    table's ``factor``, which builds a factor the first time its
    parameters are asked for.  Both walks read the heads of the factors they
    reach through the table's ``head``.
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
        # prod_k lam(k, 1) and the sum of its logs, folded from the last dimension
        self.leading_product = reduce(operator.mul, reversed(self.leads), 1.0)
        self.log_leading_product = reduce(operator.add, reversed(self.log_leads), 0.0)
        # an overflowing leading product is inf, whatever suffix overflowed
        self.uses_log = (self.d > _DIRECT_DIM_LIMIT or self.leading_product == math.inf
                         or self.log_leading_product < _DIRECT_LOG_FLOOR)

    @property
    def leads(self):
        """lam(k, 1) for each k, the root's eigenvalues."""
        return self.table.leads[:self.d]

    @property
    def log_leads(self):
        return self.table.log_leads[:self.d]

    def factor(self, k):
        return self.table.factor(k + 1)

    @property
    def factors(self):
        return list(map(self.table.factor, range(1, self.d + 1)))

    def scaled(self, constants) -> "ProductProblem":
        """Each factor multiplied by its positive constant; family link dropped."""
        constants = list(constants)
        if len(constants) != self.d:
            raise InvalidInputError("need one scale constant per dimension")
        return ProductProblem([f.scaled(c) for f, c in zip(self.factors, constants)])


def _suffix_fold(values, op, start):
    """``[f(0), ..., f(n - 1), start]`` with ``f(k) = op(f(k + 1), values[k])``,
    ``f(n) = start``: a fold from the end."""
    return list(itertools.accumulate(reversed(values), op, initial=start))[::-1]


def _unit_run_start(row, unit):
    """Where row's trailing run of entries equal to unit starts (len(row) if
    none is): leads of 1.0, or 0.0 in log space, which fold as the identity,
    bit for bit, onto any value but -0.0, and neither fold yields -0.0."""
    differs = map(operator.ne, reversed(row), itertools.repeat(unit))
    return len(row) - next(itertools.compress(itertools.count(), differs), len(row))


def _hmax(problem):
    """``hmax[k] = ln max_{k' >= k} h_k'`` for k = 0 .. d, 0-indexed, with
    -inf past the last dimension: the walks' bound on a node's children."""
    return _suffix_fold(problem.table.log_h[:problem.d], max, -math.inf)


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
    docstring), or inf where that overflows.

    The tuples are the excitations of (1, ..., 1), walked as :func:`_walk`
    walks them: a node's children excite one dimension after its last
    excited one, and a child's log normalised value ``V`` is its parent's
    minus one ``-ln`` ratio.  A frontier visits them best ``V`` first, and a
    min-heap keeps the m best folds found so far.  A child's later siblings
    enter the frontier once it is visited, and its children in dimensions
    >= k as one entry keyed by the bound ``hmax[k]`` (:func:`_hmax`, folded
    once per call), so a visit costs a fold and a few pushes, not one per
    dimension.  As in counts, one member
    per run of equal eigenvalues is visited, with a weight ``W``, the number
    of tuples it stands for; its fold enters the heap W times, at most m.

    An entry of dimension k carries, in place of its parent's chain, the
    fold ``P`` of its parent's terms in dimensions < k, from the identity
    (1.0, or -0.0 in log space) on.  A child of dimension k folds its own
    term onto P, then the leads after k up to the trailing run of leads
    equal to 1.0 (0.0), whose fold is the identity (:func:`_unit_run_start`):
    the same bits as the whole fold, and one eigenvalue read per visit.
    So a korobov or analytic korobov visit costs O(k), and one of a family
    whose leads are not 1.0 (euler, gaussian) still costs O(d).

    As in counts, ``heads`` starts as a copy of the table's built heads,
    and the head of dimension k, with its factor, is read through the
    table's ``head`` when the frontier first pops an entry of dimension k,
    which it does after one of dimension k - 1.  A popped entry's key lies
    above the heap's ``lo``, so only the prefix of dimensions the m-th value
    can reach is built: at korobov ``g_k = k**-2``, d = 10**5 and m = 1000,
    24 factors.

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
    # the walk's own copy, as _grow_ratios replaces its entries
    heads = problem.table.ratio_heads[:problem.d]
    factors = problem.table.factors  # holds every factor whose head is read
    use_log = problem.uses_log
    term, op, one = (math.log, operator.add, -0.0) if use_log else (float, operator.mul, 1.0)
    band = _band(problem, use_log)
    hmax = _hmax(problem)
    root = problem.log_leads if use_log else problem.leads
    heap = [log_fold(root) if use_log else math.prod(root)]
    # the leads a fold reads: the trailing run of 1.0 (0.0) folds as the identity
    fold_end = _unit_run_start(root, 0.0 if use_log else 1.0)
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
            if k == len(heads):  # the first visit to dimension k: entries of k - 1 came first
                heads.append(problem.table.head(k + 1))
        else:
            n = heads[k][1][i]
            Pk = op(P, term(factors[k + 1].eigenvalue(i + 2)))
            rest = root[k + 1:fold_end]
            f = log_fold(rest, Pk) if use_log else math.prod(rest, start=Pk)
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
            nl = heads[k][0]
            if i == len(nl):
                nl, _ = _grow_ratios(factors[k + 1], heads, k, m - 1)
            push(V - nl[i], k, i, V, W, P)
    if len(heap) < m:
        raise InvalidInputError("spectrum exhausted before m values (zero eigenvalue hit)")
    heap.sort(reverse=True)
    import numpy as np

    return np.array(list(map(exp_or_inf, heap)) if use_log else heap)


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
    return _walk(points, cap, largest)


def check_cap(cap):
    """Reject a count cap below 1, as every count does."""
    if cap < 1:
        raise InvalidInputError(f"cap must be >= 1, got {cap}")


class _Point:
    """One threshold of a walk: its problem, its window and its count so far."""

    __slots__ = ("problem", "T", "log_space", "d", "lo", "hi", "extra", "sfx")

    def __init__(self, problem, T, log_space, lo, hi):
        self.problem, self.T, self.log_space = problem, T, log_space
        self.d, self.lo, self.hi = problem.d, lo, hi
        # the children accepted beyond the band's sure ones, and the suffix
        # fold _dense_rule reads, from the point's first decision until it is counted
        self.extra, self.sfx = 0, None

    def accepts(self, chain):
        """The dense rule's decision for the tuple the chain excites; the
        first decision folds the point's leading suffix products."""
        if self.sfx is None:
            # sfx[k] = prod_{k' >= k} lam(k', 1), 0-indexed, or in log space
            # the same sum of logs, up to the trailing run of unit leads,
            # past which every entry is 1.0 (0.0)
            leads, op, unit = ((self.problem.log_leads, operator.add, 0.0) if self.log_space
                               else (self.problem.leads, operator.mul, 1.0))
            self.sfx = _suffix_fold(leads[:_unit_run_start(leads, unit)], op, unit)
        return _dense_rule(self.problem, chain, self.T, self.log_space, self.sfx)


def _walk(points, cap, largest):
    """Count every point's tuples by walks of the excitations of (1, ..., 1).

    A node is a tuple, held as its log normalised value
    ``V = sum_k ln(lam(k, j_k) / lam(k, 1))`` (zero at the root) and the
    chain of its excited coordinates.  Its children excite one more
    dimension after its last excited one.  ``heads[k]`` is the pair
    ``(ratios, runs)`` of dimension k (see
    :meth:`spectra.FactorSpectrum.ratio_runs`): the ratios
    ``-ln(lam(k, j) / lam(k, 1))`` for j = 2, 3, ... (ascending; zero
    eigenvalues give +inf), so the children of a node in dimension k that
    clear a bound are a prefix found by bisection, and the runs of equal
    eigenvalues among them.  It starts as factor k's ``ratio_head``, read in
    place; only a walk that reads past the head gives the dimension a longer
    pair of its own (:func:`_grow_ratios`).  The walk over a node's
    dimensions stops once the node times the largest second ratio
    ``h_k = lam(k,2)/lam(k,1)`` among those left falls below the bound; h
    need not be monotone in k.  So no node, whose ``V`` is at most 0, reads
    a dimension k with ``hmax[k] <= lo``.  A node reads its dimensions in
    order from the one after its parent's, so the dimensions read are a
    prefix, and the first node to read the one past ``heads`` does so right
    after reading the one before.  ``heads`` starts as a copy of the table's
    built heads, of the table of ``largest``, the problem of largest d, and
    that node extends the table's prefix by one
    (:meth:`spectra.DimensionTable.head`), which builds the factor, unless
    its band's top is full (see :func:`_walk_group`).  The copy is the
    walk's own, as :func:`_grow_ratios` replaces its entries.

    For a point, values above its window ``(lo, hi)`` from :func:`_band`
    are counted and those below it rejected; values in between are decided
    by :func:`_dense_rule` on the point's own problem, through
    :meth:`_Point.accepts`, which folds the point's leading suffix products
    once, in the point's own space, on its first such decision; the fold is
    dropped once the point is counted.  Every decision is
    monotone in each coordinate, so a child rejected by a point has no
    descendant it accepts, and the first child it rejects in a dimension
    ends that dimension's children for it.

    A tuple excited only in its first d dimensions has the same ``V`` in
    every problem of dimension >= d, because factor k depends only on k.
    So the points whose windows overlap form a band, counted by one walk
    (:func:`_walk_group`) at its largest d, in which a child in dimension k
    belongs to each point of dimension d > k; the bands share the head
    pairs.  Under the normalised criterion the points of one eps form one
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
    is another run once the list grows.  A dimension without equal
    eigenvalues has runs of length one.
    """
    results = {}
    windows = {}  # one window function per problem and space
    open_pts = []
    for sub, T, log_space in points:
        key = (sub.d, T, log_space)
        if key in results:  # a repeated point is walked once
            continue
        if (sub.d, log_space) not in windows:
            windows[sub.d, log_space] = _band(sub, log_space)
        pt = _Point(sub, T, log_space, *windows[sub.d, log_space](T))
        results[key] = CountResult(0, False, cap)  # unless the walk counts the point
        if 0.0 > pt.lo and (0.0 > pt.hi or pt.accepts(None)):
            open_pts.append(pt)
    bands = []
    for pt in sorted(open_pts, key=operator.attrgetter("lo")):
        if bands and pt.lo <= band_hi:
            bands[-1].append(pt)
            band_hi = max(band_hi, pt.hi)
        else:
            bands.append([pt])
            band_hi = pt.hi
    # the bands share the pairs, whose dimension k is read by every band of d > k
    heads = largest.table.ratio_heads[:largest.d] if largest else []
    for band in bands:
        band.sort(key=operator.attrgetter("d"))
        for pt, n in zip(band, _walk_group(band, cap, heads, largest.table)):
            results[pt.d, pt.T, pt.log_space] = CountResult(min(n, cap), n >= cap, cap)
            pt.sfx = None
    return [results[(sub.d, T, log_space)] for sub, T, log_space in points]


def _walk_group(band, cap, heads, table):
    """The walk of :func:`_walk` for one band, its points ordered by d; their counts.

    The walk runs at the problem of the top point, the one of largest d,
    whose ``hmax`` it folds, and prunes at the band's ``lo``, the least of
    its points'.  ``acc[k]`` counts the children in dimension k above every
    window, which count for each point with d > k; it is kept below
    ``dsec``, the second largest d, as ``tot`` is the top's count so far,
    kept current per dimension.  A top whose count reaches cap is closed,
    and the node being walked is walked again from the dimension it had
    reached: the point of the next d becomes the top, and the band narrows
    to the points left.  The check comes where a node would build a factor:
    before a ratio list grows, and before the first node to reach the
    dimension past ``heads`` extends it with ``table``'s next head.  So a
    count builds no factor past the dimension at which its top filled.
    """
    pts = list(band)
    problem = pts[-1].problem
    hmax = _hmax(problem)
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
            key = V - lo
            for k in range(k0, top):
                if V + hmax[k] <= lo:
                    break
                try:
                    nl, ln = heads[k]
                except IndexError:  # the walk's first visit to dimension k, right after k - 1
                    if tot >= cap:  # the top is full: close it as below, building no factor
                        stack.append((V, k, exc))
                        break
                    heads.append(table.head(k + 1))
                    nl, ln = heads[k]
                m = bisect_left(nl, key)
                while m == len(nl) < cap:
                    fac = problem.factor(k)
                    # A list grows only if this dimension alone does not fill
                    # the rest of the top's count, so no list grows toward cap.
                    room = cap - tot
                    if room <= 0 or (nl[room - 1] if room <= len(nl) else
                                     fac.ratio_runs(room + 1, room + 2)[0][0]) < V - hi:
                        tot = cap
                        break
                    nl, ln = _grow_ratios(fac, heads, k, cap)
                    m = bisect_left(nl, key, m)
                if tot >= cap:
                    # the top is full: close it, then walk the node from k on again
                    stack.append((V, k, exc))
                    break
                n_push = bisect_left(nl, V - hi, 0, m)
                if k < dsec:
                    acc[k] += n_push * W
                tot += n_push * W
                if n_push < m:
                    extra = pts[-1].extra
                    n_push = _borderline(pts, nl, ln, V, k, exc, W, n_push, m)
                    tot += pts[-1].extra - extra
                # hmax[d] is -inf: no child of the last dimension is pushed
                n_int = bisect_left(nl, V + hmax[k + 1] - lo, 0, n_push)
                if n_int:  # one child per run, standing for the run's identical subtrees
                    stack.extend([(V - nl[i], k + 1, (k, i + 2, exc, W * ln[i]))
                                  for i in range(n_int) if ln[i]])
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
    runs of equal eigenvalues in ``nl``: the dense rule decides each run
    once.  Adds to each point's extra the children it accepts beyond the
    first n, times the node's weight W; returns the most children a point
    accepts.
    """
    most = n
    for p in pts:
        if p.d <= k:
            continue
        mp = bisect_left(nl, V - p.lo, n, m)
        i = bisect_left(nl, V - p.hi, n, mp)
        while i < mp and p.accepts((k, i + 2, exc, W)):
            i += ln[i]
        p.extra += (i - n) * W
        if i > most:
            most = i
    return most


def _grow_ratios(fac, heads, k, limit):
    """Replace the pair ``heads[k]`` (see :func:`_walk`) by a new one
    extended by the next block from factor fac, to twice as many ratios but
    at most ``limit``, and return it; the old one, the factor's head at
    first, is left as it is."""
    nl, ln = heads[k]
    block, runs = fac.ratio_runs(len(nl) + 2, min(2 * len(nl), limit) + 2)
    heads[k] = nl + block, ln + runs
    return heads[k]


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
    slack = 0.0 if log_space else problem.d * 2.0 ** -1074 * max(
        itertools.accumulate(reversed(problem.leads), operator.mul, initial=1.0))

    def band(T):
        if log_space:
            log_hi = log_lo = T
        else:
            log_hi = math.log(T + slack)
            log_lo = math.log(T - slack) if T > slack else -math.inf
        w = scale * (base + abs(log_hi) + abs(log_hi - log_L))
        return log_lo - log_L - w, log_hi - log_L + w

    return band


def _dense_rule(problem, chain, T, log_space, sfx):
    """The dense dimension-order counter's decision for the one tuple that
    the chain excites: the leads, with ``lam(k, j)`` at each excited
    coordinate (k, j).

    Prefixes are multiplied (or, in log space, summed with ``math.log``) in
    dimension order, and each prefix times ``sfx[k]``, the leading product of
    the remaining dimensions (the point's fold, see :class:`_Point`, and 1.0,
    or 0.0, past its end), must exceed T; the last check is the full
    product.  The leads are read in
    place from the table's rows between the excited terms, and the d checks
    run as one ``accumulate``/``map`` pipeline, the same operations in the
    same order as a loop over a d-long list of the terms.
    """
    row, op, unit = ((problem.table.log_leads, operator.add, 0.0) if log_space
                     else (problem.table.leads, operator.mul, 1.0))
    pieces, end = [], problem.d
    while chain is not None:
        k, j, chain, _ = chain
        # lam > 0: a walk excites a coordinate only at a finite -ln ratio, and
        # the ratio is +inf wherever the eigenvalue is not > 0
        lam = problem.factor(k).eigenvalue(j)
        pieces += itertools.islice(row, k + 1, end), (math.log(lam) if log_space else lam,)
        end = k
    pieces.append(itertools.islice(row, end))
    prefixes = itertools.accumulate(itertools.chain.from_iterable(reversed(pieces)), op)
    suffixes = itertools.chain(itertools.islice(sfx, 1, None), itertools.repeat(unit))
    return all(map(partial(operator.lt, T), map(op, prefixes, suffixes)))


def trace_sum(problem: ProductProblem, tau: float) -> float:
    """sum_j lam_{d,j}**tau = prod_k sum_j lam(k,j)**tau; inf beyond the double range."""
    return exp_or_inf(log_trace_sum(problem, tau))


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
    dimension-order :data:`log_fold` of ``math.log`` terms (inf where that
    overflows).  Exact reference
    only for thresholds above max_k lam(k, J) * prod_{k' != k} lam(k', 1); see
    :func:`oracle_validity_floor`.
    """
    import numpy as np

    if problem.uses_log:
        return np.fromiter(map(exp_or_inf, brute_force_log_oracle(problem, J)),
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
