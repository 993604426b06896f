"""d-variate product spectra: the problems, their evaluation spaces and counting.

Products are taken over one factor per dimension in fixed order k = 1..d,
and every exact evaluation folds them in one of two spaces, each a
:class:`Space` record: :data:`DIRECT` multiplies the eigenvalues, with
identity 1.0, and :data:`LOG` adds their ``math.log``, with identity 0.0,
and reads a value whose ``exp`` leaves the double range as 0.0 or inf.  A
problem folds in DIRECT for d <= 30 and leading products comfortably inside
the double range, which makes results bit-reproducible against the
brute-force oracle, and in LOG beyond that.

Counting and top-m both walk only the excitations of (1, ..., 1).  Divided
by the leading product, a tuple's value is the product of the ratios
lam(k, j_k)/lam(k, 1) over its coordinates with j_k >= 2, and almost every
tuple near the top has few of those, so a tuple's log value costs one
subtraction from its parent's, whatever d is.  Both walks read the ``-ln``
ratios in place from each factor's head, build longer ones for a dimension
only when they read past it, and prune on the same bound.  A family's
problem is a view of a prefix of the family's dimension table
(:class:`spectra.DimensionTable`), which holds lam(k, 1), its log and
ln h_k for each k, with two marks on them: the problem stores d, its
``unit_end`` and its leading product, and each list derived from the rows
is built by the code that reads it, so the problems of a d-range hold no
d-long list each.  Either walk starts from a copy of the heads the table
has built, and asks the table for the head of the dimension past them when
it first reaches it, right after the one before; a count whose top point
is full asks for none.  So a walk builds the factors it reaches and no
others, and costs what its excited dimensions cost, plus C-speed slices of
the leads up to ``unit_end`` and of ln h_k.  A unit-lead table's problems
read no rows, and its walks read a row only on their first visit to the
dimension before it, and never more than DIMENSION_CAP rows.  The table builds
one factor per distinct parameter tuple, so the dimensions of a constant
sequence share one.

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
member per run, weighted by the run's length.  Top-m (:mod:`tractal.topm`)
walks the same tuples best first by log value, one member per run, and pushes each visited
tuple's exact dimension-order product into a heap of the m best as many
times as its weight; the log value only rules out tuples that lie a window
below the m-th.  Both exact evaluations fold the leads only up to the
problem's ``unit_end``: each lead past it is 1.0, whose term is the space's
unit, and folds as the identity, bit for bit.
"""
from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from collections import namedtuple
from functools import partial, reduce
from typing import NamedTuple

from .errors import CapExceededError, InvalidInputError
from .xreal import exp_or_inf
from . import _lazy, spectra

# What no count runs lives in modules of its own, loaded on first use:
# top-m, trace sums and the box oracle.
__getattr__ = _lazy(globals(), {
    "topm": ("product_eigenvalues_top", "top_folds"),
    "traces": ("trace_sum", "log_trace_sum"),
    "oracle": ("brute_force_oracle", "box_products", "box_folds", "oracle_validity_floor"),
})

ENUMERATION_CAP = 10**7
COUNTING_CAP = 10**8
# The largest d a problem is built at, that code reading every dimension
# (traces, box oracles, the factor list) accepts, and the most rows a walk
# reads.  Building such a problem reads two eigenvalues per dimension: at
# d = 10**5 ~0.3 s and ~22 MB.
DIMENSION_CAP = 10**5
# The largest d of a unit-lead family's problem, which reads no rows; its
# walks still read at most DIMENSION_CAP rows (:func:`_bound`).  The
# borderline window (3d + 20) * _WINDOW_ULPS bounds the rounding of up to
# 3d + 20 steps by its first-order term nu = (3d + 20) * 2**-53; at d = 10**12,
# nu = 3.4e-4, so the term dropped, nu**2 / (1 - nu), is well inside the
# window's factor 4 of margin.  (A fold of unit leads is exact anyway.)
UNIT_LEAD_DIMENSION_CAP = 10**12
# Log-space values add their logs in dimension order by a plain left fold, not
# by ``sum``, which compensates from Python 3.12 on: the bits then do not
# depend on the Python version.
log_fold = partial(reduce, operator.add)


def _log(x):
    """``math.log``, and -inf at 0.0, the log of a zero eigenvalue."""
    return math.log(x) if x > 0.0 else -math.inf


def _floats(values):
    import numpy as np

    return np.asarray(values, dtype=float)


def _exps(logs):
    import numpy as np

    return np.fromiter(map(exp_or_inf, logs), dtype=float, count=len(logs))


def _direct_bounds(problem):
    # A direct product step that goes subnormal is off by up to 2**-1075,
    # times the factors after it (at most the largest leading suffix).
    leads = problem.table.leads[:problem.unit_end]
    slack = problem.d * 2.0 ** -1074 * max(_suffix_fold(leads, operator.mul, 1.0))
    return lambda T: (_log(T - slack), math.log(T + slack))


# A space in which the exact folds evaluate a product, DIRECT or LOG.  ``term``
# maps an eigenvalue or a threshold into the space, and ``op`` folds two of
# its values.  ``unit`` is the fold's identity and the term of each lead
# equal to 1.0, and ``leads`` names the row of the space's leads on a table.
# ``fold(terms, start)`` is the left fold of terms onto start, and ``values``
# turns a sequence of folds into a float array of products.
# ``bounds(problem)`` is the map from a threshold of the space to the logs
# ``(lo, hi)`` between which a dimension-order fold may round onto either
# side of it (see _band).
# Every fold starts at ``unit``, 1.0 or 0.0, with the bits of a fold that
# starts at its first term, since no term is -0.0: no positive double's
# ``math.log`` is, and no sum of terms that are not -0.0 is.  So 0.0 serves
# every log fold, top-m's included, as the exact additive identity -0.0 would.
Space = namedtuple("Space", "term op unit leads fold values bounds")
# Direct multiplication, for d <= 30 and leading products well inside the
# double range: bit-reproducible against the brute-force box.
DIRECT = Space(float, operator.mul, 1.0, "leads",
               lambda terms, start: math.prod(terms, start=start), _floats, _direct_bounds)
# Sums of ``math.log`` terms by the plain left fold log_fold; the value of a
# fold is its ``exp``, 0.0 or inf past the double range.
LOG = Space(_log, operator.add, 0.0, "log_leads", log_fold, _exps, lambda p: lambda T: (T, T))

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
    factors.  It stores the table, d and the family, plus ``unit_end``, the
    number of leading rows a fold of its leads reads (the lead of every
    dimension past it is 1.0, which folds as the identity), the leading
    product, its log and ``space``, the :class:`Space` its exact folds
    evaluate in.  Each list derived from the rows is built by the code that
    reads it: ``hmax`` by the walks (:func:`_hmax`), a point's suffix fold
    by its first borderline decision, kept until the point is counted
    (:class:`_Point`).  So a problem of a unit-lead table, whose
    ``unit_end`` is 0, reads no row, whatever d is.  ``leads`` and
    ``log_leads`` list all d, for the oracles.
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
        self.unit_end = e = min(d, table.unit_end)
        # prod_k lam(k, 1) and the sum of its logs, folded from the last dimension
        self.leading_product = reduce(operator.mul, reversed(table.leads[:e]), 1.0)
        self.log_leading_product = reduce(operator.add, reversed(table.log_leads[:e]), 0.0)
        # an overflowing leading product is inf, whatever suffix overflowed
        self.space = (LOG if self.d > _DIRECT_DIM_LIMIT or self.leading_product == math.inf
                      or self.log_leading_product < _DIRECT_LOG_FLOOR else DIRECT)

    @property
    def leads(self):
        """lam(k, 1) for each k, the root's eigenvalues."""
        check_dimension(self.d)
        return self.table.leads[:self.unit_end] + [1.0] * (self.d - self.unit_end)

    @property
    def log_leads(self):
        check_dimension(self.d)
        return self.table.log_leads[:self.unit_end] + [0.0] * (self.d - self.unit_end)

    def factor(self, k):
        return self.table.factor(k + 1)

    @property
    def factors(self):
        check_dimension(self.d)
        return list(map(self.table.factor, range(1, self.d + 1)))


def check_dimension(d, cap=DIMENSION_CAP):
    """Refuse a d past cap, by default the cap of code that reads every dimension."""
    if d > cap:
        raise CapExceededError(f"d={d} exceeds the dimension cap {cap}")


def dimension_cap(spec):
    """The largest d a problem of spec is built at: DIMENSION_CAP, or
    UNIT_LEAD_DIMENSION_CAP for a unit-lead family, whose problems read no rows."""
    return UNIT_LEAD_DIMENSION_CAP if spec.dimension_table().unit_leads else DIMENSION_CAP


def _suffix_fold(values, op, start):
    """``[f(0), ..., f(n - 1), start]`` with ``f(k) = op(f(k + 1), values[k])``,
    ``f(n) = start``: a fold from the end."""
    return list(itertools.accumulate(reversed(values), op, initial=start))[::-1]


def _hmax(problem):
    """``hmax[k] = ln max_{k' >= k} h_k'`` for k = 0 .. d, 0-indexed, with
    ``hmax[d]`` -inf: the walks' bound on a node's children.  It reads
    every row, which a unit-lead table may not have read yet; over the
    table's nonincreasing prefix the suffix maxima are the rows."""
    table, d = problem.table, problem.d
    check_dimension(d)
    table.grow(d)
    log_h = table.log_h[:d]
    if table.nonincreasing >= d:
        return log_h + [-math.inf]
    return _suffix_fold(log_h, max, -math.inf)


def _bounds(table, d):
    """The start of ``hmax`` for a problem of dimension d on a unit-lead
    table: the table's ``h_bounds`` over the rows it has read, or row 1's.
    A walk extends it by :func:`_bound` as it first reaches each dimension
    past them."""
    return table.h_bounds[:d] or [_bound(table, 0, d)]


def _bound(table, k, d):
    """``hmax[k]`` of a problem of dimension d on a unit-lead table, read as
    a walk first needs it (:meth:`~spectra.DimensionTable.bound`).  A walk
    that needs row k past DIMENSION_CAP, which no problem of another family
    holds, is refused: the cap bounds the rows any query reads."""
    if DIMENSION_CAP <= k < d:
        raise CapExceededError(
            f"the walk reaches dimension {k + 1}, past the dimension cap {DIMENSION_CAP}")
    return table.bound(k, d)


def family_problems(spec, ds):
    """``ProductProblem.from_family(spec, d)`` for each d of ds, in order.

    Each problem is the first d rows of the family's dimension table
    (:class:`spectra.DimensionTable`), grown to d here: a row is lam(k, 1),
    its log and ln h_k, read from the closed form, and a factor is built
    only when something reads it.  So the problems share their leading
    factors, as the points of :func:`count_grid` must.  Being a generator,
    it raises each error where a loop of ``from_family`` calls would raise
    it: a d below 1, past the custom tables or past the cap
    (:func:`dimension_cap`) before any row is read, and a leading eigenvalue
    that is not a positive double when its row is.  A unit-lead family's
    table reads no row here.
    """
    table = spec.dimension_table()
    cap = dimension_cap(spec)
    for d in ds:
        if d < 1:
            raise InvalidInputError(f"d must be >= 1, got {d}")
        if spec.family is spectra.Family.CUSTOM and d > len(spec.tables):
            raise InvalidInputError(
                f"custom spec provides {len(spec.tables)} tables, requested d={d}")
        check_dimension(d, cap)
        if not table.unit_leads:
            table.grow(d)
        problem = ProductProblem.__new__(ProductProblem)
        problem._prefix(table, d, spec)
        yield problem


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
    problems :func:`family_problems` builds.  A point is counted in its
    problem's :class:`Space`, or in :data:`LOG` when log_space is set.
    """
    points = list(points)
    for i, (problem, T, log_space) in enumerate(points):
        if log_space:
            if not math.isfinite(T):
                raise InvalidInputError(f"log threshold must be finite, got {T}")
            points[i] = (problem, T, LOG)
        elif not math.isfinite(T) or T <= 0:
            raise InvalidInputError(
                f"threshold must be positive and finite, got {T} (a count at 0 would be infinite)")
        else:
            points[i] = (problem, problem.space.term(T), problem.space)
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

    __slots__ = ("problem", "T", "space", "d", "lo", "hi", "extra", "sfx")

    def __init__(self, problem, T, space, lo, hi):
        self.problem, self.T, self.space = problem, T, space
        self.d, self.lo, self.hi = problem.d, lo, hi
        # the children accepted beyond the band's sure ones, and the suffix
        # fold _dense_rule reads, from the point's first decision until it is counted
        self.extra, self.sfx = 0, None

    def accepts(self, chain):
        """The dense rule's decision for the tuple the chain excites; the
        first decision folds the point's leading suffix products."""
        sp, problem = self.space, self.problem
        if self.sfx is None:
            # sfx[k] = prod_{k' >= k} lam(k', 1), 0-indexed, folded in the
            # point's space up to the problem's unit_end, past which every
            # entry is the unit
            leads = getattr(problem.table, sp.leads)[:problem.unit_end]
            self.sfx = _suffix_fold(leads, sp.op, sp.unit)
        return _dense_rule(problem, chain, self.T, sp, self.sfx)


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
    for sub, T, space in points:
        key = (sub.d, T, space)
        if key in results:  # a repeated point is walked once
            continue
        if (sub.d, space) not in windows:
            windows[sub.d, space] = _band(sub, space)
        pt = _Point(sub, T, space, *windows[sub.d, space](T))
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
            results[pt.d, pt.T, pt.space] = CountResult(min(n, cap), n >= cap, cap)
            pt.sfx = None
    return [results[sub.d, T, space] for sub, T, space in points]


def _walk_group(band, cap, heads, table):
    """The walk of :func:`_walk` for one band, its points ordered by d; their counts.

    The walk runs at the problem of the top point, the one of largest d,
    whose ``hmax`` it folds (:func:`_hmax`) or, on a unit-lead table,
    starts by :func:`_bounds` and extends on its first visit to each
    dimension past them, and
    prunes at the band's ``lo``, the least of its points', which only rises
    as points close.  ``acc[k]`` counts the children in dimension k above
    every window, which count for each point with d > k; it is kept below
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
    rows, d = problem.table, problem.d
    hmax = _bounds(rows, d) if rows.unit_leads else _hmax(problem)
    acc = [0] * len(hmax)
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
                    fac = table.factors[k + 1]  # built when its head was read
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
                try:  # hmax[d] is -inf: no child of the last dimension is pushed
                    h = hmax[k + 1]
                except IndexError:  # the first visit to dimension k past the rows read
                    h = _bound(rows, k + 1, d)
                    hmax.append(h)
                    acc.append(0)
                n_int = bisect_left(nl, V + h - lo, 0, n_push)
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


def _band(problem, space):
    """The borderline window of a count in space, as a function of T.

    It maps a threshold T of the space to the normalised ``(lo, hi)``:
    ``ln T - ln L`` widened by a window ``w`` on each side, where L is the
    leading product.  ``w`` bounds the rounding of the walk's log values and
    of the dimension-order evaluations, plus, for subnormal direct products,
    an absolute slack on T (``space.bounds``).  So a tuple whose log
    normalised value lies above ``hi`` has every dimension-order evaluation
    above T, and one at or below ``lo`` has every such evaluation at or
    below T.
    """
    log_L = problem.log_leading_product
    scale = _WINDOW_ULPS * (3 * problem.d + 20)
    base = 1.0 + math.fsum(map(abs, problem.table.log_leads[:problem.unit_end]))
    bounds = space.bounds(problem)

    def band(T):
        log_lo, log_hi = bounds(T)
        w = scale * (base + abs(log_hi) + abs(log_hi - log_L))
        return log_lo - log_L - w, log_hi - log_L + w

    return band


def _dense_rule(problem, chain, T, space, sfx):
    """The dense dimension-order counter's decision for the one tuple that
    the chain excites: the leads, with ``lam(k, j)`` at each excited
    coordinate (k, j).

    The terms are folded in dimension order in the space, and each prefix,
    folded with ``sfx[k + 1]``, the leading product of the remaining
    dimensions (the point's fold, see :class:`_Point`, and the unit past its
    end), must exceed T; the last check is the full product.  Past both the
    point's fold and the last excited dimension, each term and each suffix
    is the unit, so each check repeats the one before, and the loop stops
    there.
    """
    # len(sfx) - 1 is the problem's unit_end
    end = max(len(sfx) - 1, chain[0] + 1 if chain else 1)
    terms = getattr(problem.table, space.leads)[:end]
    if len(terms) < end:  # a unit-lead table's rows past those its walks read
        terms += [space.unit] * (end - len(terms))
    while chain is not None:
        k, j, chain, _ = chain
        # lam > 0: a walk excites a coordinate only at a finite -ln ratio, and
        # the ratio is +inf wherever the eigenvalue is not > 0.  The walk read
        # dimension k's head, which built its factor.
        terms[k] = space.term(problem.table.factors[k + 1].eigenvalue(j))
    op, P = space.op, space.unit
    for t, s in zip(terms, sfx[1:end + 1] + [space.unit] * (end + 1 - len(sfx))):
        P = op(P, t)
        if not T < op(P, s):
            return False
    return True
