"""Univariate factor spectra for the supported kernel families.

Each family describes, per dimension ``k``, a nonincreasing sequence of
operator eigenvalues ``lam(k, j)``.  This module evaluates those eigenvalues
in closed form, together with the derived quantities the rest of the package
is built on: the second ratio ``h_k = lam(k,2)/lam(k,1)``, the tail ratio sum
``H(k, tau) = sum_{j>=2} (lam(k,j)/lam(k,2))**tau`` and its divergence
threshold ``tau0``.

Each family is one immutable record (``_RECORDS``), and every question the
package asks of a family reads it: ``params`` and ``value``, the floats of
dimension k and lam(k, j) from them; ``ratio``, h_k as a function of one
parameter sequence; ``tail``, H(k, tau) as a function of one parameter of k;
``tau0``; ``rate``, the decay rate A of h_k, from the ratio sequence's
asymptotics; and ``unit_leads``, whether every lam(k, 1) is 1.0.  This
module builds factors and dimension tables from the records.  The tail and
trace sums are in :mod:`tractal.traces`, and the functions that read h_k,
tau0, A and lim h_k of one family in :mod:`tractal.limits`; this module
gives their public names as its own (``spectra.tail_sum_H``,
``spectra.tau_zero``, ...) and loads them on first use, so a count compiles
neither.  The closed forms (``j >= 1``, ``m = floor(j/2)``):

* ``euler``            lam(k,j) = (pi*(j-1/2))**-(2*r_k+2)
* ``wiener``           euler's record, with the unresolved tau0 in [0, 3/5]
                       and the rate of the envelope (1+r_k)**-2: the euler
                       formula is its leading-order term; exact values for
                       r_k >= 1 have no closed form and are only available
                       numerically (see :mod:`tractal.nystrom`), so
                       ``factor_eigenvalue(require_exact=True)`` refuses them
* ``korobov``          lam(k,1) = 1, lam(k,2m) = lam(k,2m+1) = g_k * m**(-2*r_k)
* ``gaussian``         lam(k,j) = (1-w_k) * w_k**(j-1), w_k = gaussian_omega(gamma_k^2)
* ``analytic_korobov`` lam(k,1) = 1, lam(k,2m) = lam(k,2m+1) = omega**(a_k * m**b_k)
* ``custom``           per-dimension tables with an optional tail model; h_k
                       is the explicit sequence of the rows' ratios, whose
                       asymptotics are the declared A and B

Each formula is written once, as a scalar function of j on Python floats, so
an eigenvalue has the same bits however it is read and on every CPU (numpy's
vectorised ``power`` may round differently from the C library).  A
:class:`FactorSpectrum` is read three ways, all from that function:
``eigenvalue(j)``, ``values(j0, j1)`` and ``ratio_runs(j0, j1)``, the
``-ln`` ratios to the leading value with their runs of equal eigenvalues.
The walks of :mod:`tractal.products` start from the ``(ratios, runs)`` pair
the factor holds for its head, and read past it through ``ratio_runs``.  numpy
is imported only by the functions that return arrays, so counting runs on
the standard library alone.

Specs and factors are immutable after construction.  Each spec has one
:class:`DimensionTable`, an append-only cache of its dimensions: rows of
lam(k, 1), its log, lam(k, 2) and ln h_k, with two marks read from them
(where the last lead other than 1.0 lies, and how far ln h_k is
nonincreasing); the factors built so far, at any k, one per distinct
parameter tuple, so that dimensions with equal parameters share one; and
the head pairs of factors 1..K, the prefix the count walk has read.  A
unit-lead family's rows are read only as far as a walk asks.  It is
reached only through the ``lru_cache`` of ``_factor``, so clearing that
cache empties it.  A lock per table keeps it consistent under threads.
"""
from __future__ import annotations

import enum
import math
import operator
import struct
import threading
import warnings
from collections import namedtuple
from functools import lru_cache, partial
from typing import NamedTuple, Optional

from .errors import InvalidInputError, UndecidableError
from .sequences import SequenceDescriptor, validate_sequence
from .xreal import INF, Interval
from . import _lazy

# What no count runs lives in modules of its own, loaded on first use: the
# tail and trace sums, and the closed-form facts the classifier reads.
__getattr__ = _lazy(globals(), {
    "traces": ("tail_sum_H", "log_trace_profile"),
    "limits": ("factor_eigenvalue", "second_ratio", "second_ratio_limits", "tau_zero",
               "korobov_exp_weights"),
})


class Family(str, enum.Enum):
    EULER = "euler"
    WIENER = "wiener"
    KOROBOV = "korobov"
    GAUSSIAN = "gaussian"
    ANALYTIC_KOROBOV = "analytic_korobov"
    CUSTOM = "custom"


ABS = "abs"
NOR = "nor"
_NOR_ONLY = frozenset((NOR,))
_BOTH_CRITERIA = frozenset((ABS, NOR))


class _TailModel(NamedTuple):
    kind: str
    ratio: float = 0.0
    exponent: float = 0.0


class TailModel(_TailModel):
    """Decay model for a tabulated spectrum beyond its last entry.

    ``geometric``: lam(J+i) = lam(J) * ratio**i.
    ``power``:     lam(j) = lam(J) * (J/j)**exponent for j > J.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind == "geometric":
            if not 0.0 < self.ratio < 1.0:
                raise InvalidInputError(f"geometric tail ratio must be in (0,1), got {self.ratio}")
        elif self.kind == "power":
            if not 0.0 < self.exponent < INF:
                raise InvalidInputError(
                    f"tail: power exponent must be positive and finite, got {self.exponent}")
        else:
            raise InvalidInputError(f"unknown tail model kind {self.kind!r}")
        return self


class FamilySpec(NamedTuple):
    """A kernel family plus the parameter sequences it requires."""

    family: Family
    r: Optional[SequenceDescriptor] = None
    g: Optional[SequenceDescriptor] = None
    gamma_sq: Optional[SequenceDescriptor] = None
    omega: float = 0.0
    a: Optional[SequenceDescriptor] = None
    b: Optional[SequenceDescriptor] = None
    tables: tuple = ()
    tail: Optional[TailModel] = None
    declared_tau0: Optional[float] = None
    declared_a_star: Optional[float] = None
    declared_b_limit: Optional[float] = None

    @property
    def criterion_support(self) -> frozenset:
        # ABS needs unit leading eigenvalues, or an ABS exponent formula
        # (euler, gaussian); only wiener and rescaled tables have neither.
        if self.family is Family.WIENER or (
                self.family is Family.CUSTOM and any(row[0] != 1.0 for row in self.tables)):
            return _NOR_ONLY
        return _BOTH_CRITERIA

    def factor(self, k: int) -> "FactorSpectrum":
        return _factor(self).factor(k)

    def dimension_table(self) -> "DimensionTable":
        return _factor(self)


def euler(r: SequenceDescriptor) -> FamilySpec:
    validate_sequence(r, "r", direction="nondecreasing", positive=False, integer=True)
    return FamilySpec(family=Family.EULER, r=r)


def wiener(r: SequenceDescriptor) -> FamilySpec:
    validate_sequence(r, "r", direction="nondecreasing", positive=False, integer=True)
    return FamilySpec(family=Family.WIENER, r=r)


def korobov(r: SequenceDescriptor, g: SequenceDescriptor) -> FamilySpec:
    validate_sequence(r, "r", direction="nondecreasing", positive=True)
    validate_sequence(g, "g", direction="nonincreasing", positive=True, max_value=1.0)
    return FamilySpec(family=Family.KOROBOV, r=r, g=g)


def gaussian(gamma_sq: SequenceDescriptor) -> FamilySpec:
    validate_sequence(gamma_sq, "gamma_sq", direction="nonincreasing", positive=True)
    # gamma^2 is nonincreasing and omega increasing in it, so k = 1 decides
    if not gaussian_omega(gamma_sq.value(1)) < 1.0:
        raise InvalidInputError(f"gamma_sq(1) = {gamma_sq.value(1)!r}: omega rounds to 1")
    return FamilySpec(family=Family.GAUSSIAN, gamma_sq=gamma_sq)


def analytic_korobov(omega: float, a: SequenceDescriptor, b: SequenceDescriptor) -> FamilySpec:
    if not 0.0 < omega < 1.0:
        raise InvalidInputError(f"omega must lie in (0,1), got {omega}")
    validate_sequence(a, "a", direction="nondecreasing", positive=True)
    validate_sequence(b, "b", positive=True)
    # inf_k b_k is the least of b's listed values and its limit
    if min(b.values, default=INF) <= 0 or _quiet(b.limit) == 0:
        raise InvalidInputError("inf_k b_k must be positive")
    return FamilySpec(family=Family.ANALYTIC_KOROBOV, omega=float(omega), a=a, b=b)


def custom_tabulated(tables, tail=None, tau0=None, a_star=None, b_limit=None) -> FamilySpec:
    rows = []
    for i, row in enumerate(tables):
        row = tuple(float(v) for v in row)
        if len(row) < 2:
            raise InvalidInputError(f"table {i + 1} needs at least two eigenvalues")
        if not all(map(math.isfinite, row)):
            raise InvalidInputError(f"table {i + 1}: eigenvalues must be finite, got {row}")
        if row[0] <= 0 or row[1] <= 0:
            raise InvalidInputError(f"table {i + 1}: leading two eigenvalues must be positive")
        if any(b > a for a, b in zip(row, row[1:])) or row[-1] < 0:
            raise InvalidInputError(f"table {i + 1} is not nonincreasing and nonnegative")
        rows.append(row)
    if not rows:
        raise InvalidInputError("custom family needs at least one eigenvalue table")
    for name, val in (("tau0", tau0), ("a_star", a_star), ("b_limit", b_limit)):
        if val is not None and not val >= 0:
            raise InvalidInputError(f"declared {name} must be nonnegative, got {val}")
    return FamilySpec(
        family=Family.CUSTOM,
        tables=tuple(rows),
        tail=tail,
        declared_tau0=tau0,
        declared_a_star=a_star,
        declared_b_limit=b_limit,
    )


# ---------------------------------------------------------------------------
# factor spectra
# ---------------------------------------------------------------------------


class FactorSpectrum:
    """One dimension's eigenvalue sequence, immutable once built.

    ``value(j)``, the family's closed form as a scalar function of j, is the
    one source of every eigenvalue, read through :meth:`eigenvalue`,
    :meth:`values` and :meth:`ratio_runs`.  The first ``HEAD`` values are
    kept as the tuple ``head``, with ``leading`` and ``log_leading``, lam(1)
    and its ``math.log``, and ``ratio_head``, the pair ``ratio_runs(2,
    HEAD + 1)``.  All are computed at build, and the count and top-m walks
    read ``ratio_head`` in place.  Longer requests are evaluated and never
    stored."""

    __slots__ = ("leading", "log_leading", "_value", "head", "ratio_head")
    # A count or top-m walk starts from the 32 ratios j = 2..33 of a dimension
    # and rarely reads more; a longer head would cost every factor built more logs.
    HEAD = 33

    def __init__(self, value):
        self._value = value
        self.head = tuple(map(value, range(1, self.HEAD + 1)))
        self.leading = self.head[0]
        self.log_leading = _log_leading(self.leading)
        self.ratio_head = self.ratio_runs(2, self.HEAD + 1)

    def eigenvalue(self, j: int) -> float:
        if j < 1:
            raise InvalidInputError(f"eigenvalue index must be >= 1, got {j}")
        return self.head[j - 1] if j <= self.HEAD else self._value(j)

    def values(self, j0: int, j1: int) -> tuple:
        """lam(j) for j0 <= j < j1, as a tuple of floats."""
        if j1 <= self.HEAD + 1:
            return self.head[j0 - 1:j1 - 1]
        return self.head[j0 - 1:] + tuple(map(self._value, range(max(j0, self.HEAD + 1), j1)))

    def ratio_runs(self, j0: int, j1: int) -> tuple:
        """-ln(lam(j)/lam(1)) for 2 <= j0 <= j < j1 (+inf at a zero
        eigenvalue), and the runs of equal eigenvalues there.

        The runs are a tuple whose entry j - j0 is the length of the run of
        equal eigenvalues that starts at j, and 0 for a j inside a run: all
        ones where no two neighbours lam(j), lam(j + 1) in the range are
        equal.  Only the range is read, so a run that continues past j1 - 1
        ends there.
        """
        vals = self.values(j0, j1)
        return self._neg_logs(vals), _run_lengths(vals)

    def _neg_logs(self, vals):
        log_lead = self.log_leading
        return tuple([log_lead - math.log(v) if v > 0.0 else math.inf for v in vals])


def _log_leading(lead):
    """ln lam(1), after checking that lam(1) is a positive double."""
    if lead == 0.0:  # the closed forms are positive: 0.0 is an underflow
        raise InvalidInputError("leading eigenvalue underflows below the smallest double")
    if not lead > 0:
        raise InvalidInputError("leading eigenvalue must be positive")
    return math.log(lead)


# The runs of a head without equal neighbours, one tuple for every factor
_HEAD_ONES = (1,) * (FactorSpectrum.HEAD - 1)


def _run_lengths(vals):
    """The runs of equal values in vals, as :meth:`FactorSpectrum.ratio_runs`
    gives them."""
    if not any(map(operator.eq, vals, vals[1:])):
        return _HEAD_ONES if len(vals) == len(_HEAD_ONES) else (1,) * len(vals)
    runs = [0] * len(vals)
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] != vals[start]:
            runs[start] = i - start
            start = i
    return tuple(runs)


def _euler_value(r_k: float):
    expo = -(2.0 * r_k + 2.0)
    pi = math.pi
    def value(j):
        return (pi * (j - 0.5)) ** expo
    return value


def _korobov_value(r_k: float, g_k: float):
    expo = -(2.0 * r_k)
    def value(j):
        return 1.0 if j < 2 else g_k * float(j // 2) ** expo
    return value


def _gaussian_value(omega_k: float):
    c = 1.0 - omega_k
    def value(j):
        return c * omega_k ** (j - 1.0)
    return value


def _analytic_korobov_value(omega: float, a_k: float, b_k: float):
    def value(j):
        if j < 2:
            return 1.0
        try:
            return omega ** (a_k * float(j // 2) ** b_k)
        except OverflowError:  # m**b_k beyond the double range: omega**inf
            return 0.0
    return value


def _custom_value(row: tuple, tail: Optional[TailModel]):
    J = len(row)
    last = row[-1]
    def value(j):
        if j <= J:
            return row[j - 1]
        if tail is None:
            return 0.0
        if tail.kind == "geometric":
            return last * tail.ratio ** float(j - J)
        return last * (J / float(j)) ** tail.exponent
    return value


# ---------------------------------------------------------------------------
# one record per family
# ---------------------------------------------------------------------------


def _row(spec, k):
    """Table k of a custom spec, and the last table for every k past the end."""
    return spec.tables[min(k, len(spec.tables)) - 1]


def _custom_ratio(spec):
    """h_k of custom tables as an explicit sequence: row k's ratio, the last
    row's past the end, with the declared A and lim h_k = exp(-B) as its
    asymptotics (an explicit sequence with an evaluator reads its
    asymptotics from its declarations alone)."""
    ratios = [row[1] / row[0] for row in spec.tables]
    B = spec.declared_b_limit
    return SequenceDescriptor.explicit(ratios, evaluator=lambda k: ratios[-1],
                                       liminf_log_ratio=spec.declared_a_star,
                                       limit=None if B is None else math.exp(-B)), lambda h: h


def _custom_tau0(spec):
    if spec.declared_tau0 is not None:
        return Interval.point(spec.declared_tau0)
    warnings.warn("tabulated spectrum has no declared tau0; reporting the "
                  "uninformative interval [0, +oo)", stacklevel=3)
    return Interval(0.0, INF)


# What the package reads of one family, each field a function of the spec:
# ``params(spec, k)``, the floats lam(k, .) depends on; ``value(spec,
# params)``, lam(k, j) as a scalar function of j; ``ratio(spec)``, the
# sequence h_k depends on and h_k as a function of its k-th value (and of its
# limit, to lim h_k); ``tail(spec, tau, sums)``, the parameter of k that
# H(k, tau) depends on and H as a function of it, from the tail sums of the
# module sums (:mod:`tractal.traces`, their one reader, passes itself);
# ``tau0(spec)``; and ``rate(spec,
# sequence)``, A = liminf ln(1/h_k)/ln k from the ratio sequence's
# asymptotics, raising UndecidableError where they do not decide it.
# ``unit_leads`` is whether lam(k, 1) = 1.0 for every k by the closed form.
_Record = namedtuple("_Record", "params value ratio tail tau0 rate unit_leads")
_EULER = _Record(
    lambda spec, k: (spec.r.value(k),),
    lambda spec, p: _euler_value(*p),
    lambda spec: (spec.r, lambda r: 3.0 ** (-(2.0 * r + 2.0))),
    lambda spec, tau, sums: (spec.r.value,
                             lambda r: sums._euler_tail_sum(tau * (2.0 * r + 2.0))),
    lambda spec: Interval.point(1.0 / (2.0 * spec.r.value(1) + 2.0)),
    lambda spec, r: 2.0 * math.log(3.0) * r.liminf_over_log(),
    False)
_RECORDS = {
    Family.EULER: _EULER,
    # The euler formula is wiener's leading-order term, exact for r_k = 0, so
    # its factors, traces and second ratios read the euler values; its
    # verdicts read the unresolved tau0 and the envelope (1+r_k)**-2.
    Family.WIENER: _EULER._replace(tau0=lambda spec: Interval(0.0, 0.6),
                                   rate=lambda spec, r: 2.0 * _growth_rate(r)),
    Family.KOROBOV: _Record(
        lambda spec, k: (spec.r.value(k), spec.g.value(k)),
        lambda spec, p: _korobov_value(*p),
        lambda spec: (spec.g, lambda g: g),
        lambda spec, tau, sums: (spec.r.value, lambda r: sums._korobov_tail_sum(2.0 * r * tau)),
        lambda spec: Interval.point(1.0 / (2.0 * spec.r.value(1))),
        lambda spec, g: g.liminf_log_ratio(),
        True),
    Family.GAUSSIAN: _Record(
        lambda spec, k: (gaussian_omega(spec.gamma_sq.value(k)),),
        lambda spec, p: _gaussian_value(*p),
        lambda spec: (spec.gamma_sq, lambda g2: 0.0 if g2 == 0 else gaussian_omega(g2)),
        lambda spec, tau, sums: (spec.gamma_sq.value,
                                 lambda g2: 1.0 / (1.0 - gaussian_omega(g2) ** tau)),
        lambda spec: Interval.point(0.0),
        lambda spec, g2: g2.liminf_log_ratio(),
        False),
    Family.ANALYTIC_KOROBOV: _Record(
        lambda spec, k: (spec.omega, spec.a.value(k), spec.b.value(k)),
        lambda spec, p: _analytic_korobov_value(*p),
        lambda spec: (spec.a, lambda a: spec.omega ** a),
        lambda spec, tau, sums: (
            lambda k: (spec.a.value(k), spec.b.value(k)),
            lambda ab: sums._analytic_korobov_tail_sum(spec.omega, *ab, tau)),
        lambda spec: Interval.point(0.0),
        lambda spec, a: math.log(1.0 / spec.omega) * a.liminf_over_log(),
        True),
    Family.CUSTOM: _Record(
        _row,
        lambda spec, row: _custom_value(row, spec.tail),
        _custom_ratio,
        lambda spec, tau, sums: (partial(_row, spec),
                                 lambda row: sums._custom_tail_sum(row, spec.tail, tau)),
        _custom_tau0,
        lambda spec, h: h.liminf_log_ratio(),
        False),
}


def _parameters(spec: FamilySpec, k: int) -> tuple:
    """The floats lam(k, j) depends on besides j (and a custom spec's tail):
    r_k; (r_k, g_k); omega_k; (omega, a_k, b_k); or table k's row."""
    if k < 1:
        raise InvalidInputError(f"dimension index must be >= 1, got {k}")
    return _RECORDS[spec.family].params(spec, k)


def _value(spec: FamilySpec, k: int):
    """lam(k, j) as a scalar function of j, from the family closed form at
    the parameters of dimension k."""
    return _RECORDS[spec.family].value(spec, _parameters(spec, k))


# A unit-lead table's ln h_k is nonincreasing in k up to the rounding of its
# parameter sequence and of the closed form: a few ulps of 1 + |ln h_k| for
# the kinds it admits (``SequenceDescriptor.monotone_by_kind``).  A bound on
# the ln h of the rows past k widens row k's by 2**-40 of that, thousands of
# ulps, so it never undercuts a later row.  As lam(k, 2) <= lam(k, 1),
# ln h_k <= 0, and the widened value is ln h_k * (1 - 2**-40) + 2**-40.
_H_SLACK = 2.0 ** -40


class DimensionTable:
    """The dimensions of one family, read only as far as they are asked for.

    Append-only.  Row k, for k = 1 .. ``len(leads)``, holds ``leads[k-1]``,
    lam(k, 1); ``log_leads[k-1]``, its ``math.log``; ``seconds[k-1]``,
    lam(k, 2); ``log_h[k-1]``, ``ln h_k`` as minus factor k's first
    ``-ln`` ratio (-inf where lam(k, 2) is 0.0): the expressions
    :class:`FactorSpectrum` evaluates, so the bits are the same; and
    ``h_bounds[k-1]``, ``ln h_k`` widened by its rounding (``_H_SLACK``),
    which on a unit-lead table bounds the ``ln h`` of row k and of every
    row after it.  :meth:`grow` reads rows in order, two eigenvalues each;
    a trace reads lam(k, 1) and lam(k, 2) from the rows, so it builds no
    factor.  Two marks are kept as
    the rows are read, from the floats alone: ``unit_end``, one past the
    last lead other than 1.0 (past it each lead folds as the identity), and
    ``nonincreasing``, the length of the prefix of ``log_h`` that is
    nonincreasing (over it the suffix maxima of ``log_h`` are its entries).

    ``unit_leads`` marks a family whose every lam(k, 1) is 1.0 by its closed
    form (its record's ``unit_leads``) and whose h_k is nonincreasing by the
    validated direction of its ratio sequence's kind.  Its problems read no
    rows; a walk starts from the ``h_bounds`` of the rows read so far, or
    from row 1's, and reads row k + 1, through :meth:`bound`, only when it
    first reaches dimension k and the row is not read yet.
    ``factors`` maps k to the :class:`FactorSpectrum` of dimension k once
    :meth:`factor` has read it, at any k.  There is one factor per distinct
    parameter tuple (:func:`_parameters`, keyed on its bits, so that -0.0
    and 0.0 stay apart): the dimensions of a constant sequence, or of
    repeated custom tables, share one object.  ``ratio_heads`` holds the
    ``ratio_head`` pairs of factors 1, 2, ... as far as :meth:`head` has
    built them: a prefix, independent of the rows, and the one cache of
    heads the walks share.  A product problem is a prefix of the rows; a
    walk, count or top-m, starts from a copy of the built heads and extends
    the prefix by one dimension, through :meth:`head`, when it first reads
    the dimension past it.
    """

    __slots__ = ("spec", "leads", "log_leads", "seconds", "log_h", "h_bounds", "factors",
                 "ratio_heads", "unit_end", "nonincreasing", "unit_leads", "_by_parameters",
                 "_lock")

    def __init__(self, spec):
        self.spec = spec
        self._lock = threading.RLock()  # head builds factors under it
        self.leads, self.log_leads, self.seconds, self.log_h, self.h_bounds = [], [], [], [], []
        self.unit_end = self.nonincreasing = 0
        self.factors = {}
        self._by_parameters = {}
        self.ratio_heads = []
        rec = None if spec is None else _RECORDS[spec.family]
        self.unit_leads = (rec is not None and rec.unit_leads
                           and rec.ratio(spec)[0].monotone_by_kind)

    @classmethod
    def of(cls, factors):
        """The table whose rows are the given factors, all built."""
        self = cls(None)
        self.factors = dict(enumerate(factors, 1))
        self.ratio_heads = [f.ratio_head for f in factors]
        for f, (nl, _) in zip(factors, self.ratio_heads):
            self._append(f.leading, f.log_leading, f.head[1], -nl[0])
        return self

    def _append(self, lead, log_lead, second, log_h):
        # the marks first and log_h last: a row is read once log_h holds it
        k = len(self.log_h)
        if lead != 1.0:
            self.unit_end = k + 1
        if self.nonincreasing == k and not (k and log_h > self.log_h[-1]):
            self.nonincreasing = k + 1
        self.leads.append(lead)
        self.log_leads.append(log_lead)
        self.seconds.append(second)
        self.h_bounds.append(log_h * (1.0 - _H_SLACK) + _H_SLACK)
        self.log_h.append(log_h)

    def grow(self, d):
        """Read the rows up to dimension d; a leading eigenvalue that is not
        a positive double raises the error building factor k would."""
        if len(self.log_h) >= d:
            return
        with self._lock:
            for k in range(len(self.log_h) + 1, d + 1):
                value = _value(self.spec, k)
                lead, second = value(1), value(2)
                try:
                    log_lead = _log_leading(lead)
                except InvalidInputError as exc:
                    raise InvalidInputError(f"{exc} at k={k}") from None
                self._append(lead, log_lead, second,
                             -(log_lead - math.log(second)) if second > 0.0 else -math.inf)

    def bound(self, k, d):
        """A bound on ``ln h`` of every row k .. d - 1, 0-based, of a
        unit-lead table, after reading row k: ``h_bounds[k]``, as h_k is
        nonincreasing; -inf at k = d."""
        if k >= d:
            return -math.inf
        self.grow(k + 1)
        return self.h_bounds[k]

    def factor(self, k: int) -> FactorSpectrum:
        """The factor of dimension k, built the first time its parameters
        are asked for."""
        fac = self.factors.get(k)
        if fac is not None:
            return fac
        params = _parameters(self.spec, k)
        key = struct.pack(f"{len(params)}d", *params)
        fac = self._by_parameters.get(key)
        if fac is None:
            try:
                fac = FactorSpectrum(_RECORDS[self.spec.family].value(self.spec, params))
            except InvalidInputError as exc:
                raise InvalidInputError(f"{exc} at k={k}") from None
        with self._lock:
            return self.factors.setdefault(k, self._by_parameters.setdefault(key, fac))

    def head(self, k):
        """The ``ratio_head`` pair of factor k, after extending
        ``ratio_heads`` through it, building the factors not built yet."""
        heads = self.ratio_heads
        if len(heads) < k:
            with self._lock:
                for j in range(len(heads) + 1, k + 1):
                    heads.append(self.factor(j).ratio_head)
        return heads[k - 1]


@lru_cache(maxsize=16)
def _factor(spec: FamilySpec) -> DimensionTable:
    """The dimension table of spec: the one cache of its factors."""
    return DimensionTable(spec)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def gaussian_omega(gamma_sq: float) -> float:
    """Geometric ratio of the gaussian factor spectrum; increasing in gamma^2."""
    if gamma_sq <= 0:
        raise InvalidInputError(f"gamma^2 must be positive, got {gamma_sq}")
    return 2.0 * gamma_sq / (1.0 + 2.0 * gamma_sq + math.sqrt(1.0 + 4.0 * gamma_sq))


# ---------------------------------------------------------------------------
# limits the records and :mod:`tractal.limits` read
# ---------------------------------------------------------------------------


def _quiet(fn):
    try:
        return fn()
    except UndecidableError:
        return None


def _growth_rate(r: SequenceDescriptor) -> float:
    """liminf ln(1+r_k)/ln k; zero whenever r is bounded."""
    lim = _quiet(r.limit)
    if lim is not None and math.isfinite(lim):
        return 0.0
    return r.liminf_log_over_log()
