"""Univariate factor spectra for the supported kernel families.

Each family describes, per dimension ``k``, a nonincreasing sequence of
operator eigenvalues ``lam(k, j)``.  This module evaluates those eigenvalues
in closed form, together with the derived quantities the rest of the package
is built on: the second ratio ``h_k = lam(k,2)/lam(k,1)``, the tail ratio sum
``H(k, tau) = sum_{j>=2} (lam(k,j)/lam(k,2))**tau`` and its divergence
threshold ``tau0``.

Family summary (``j >= 1``, ``m = floor(j/2)``):

* ``euler``            lam(k,j) = (pi*(j-1/2))**-(2*r_k+2)
* ``wiener``           leading-order term equals the euler formula; exact
                       values for r_k >= 1 have no closed form and are only
                       available numerically (see :mod:`tractal.nystrom`),
                       so ``factor_eigenvalue(require_exact=True)`` refuses
                       them
* ``korobov``          lam(k,1) = 1, lam(k,2m) = lam(k,2m+1) = g_k * m**(-2*r_k)
* ``gaussian``         lam(k,j) = (1-w_k) * w_k**(j-1), w_k = gaussian_omega(gamma_k^2)
* ``analytic_korobov`` lam(k,1) = 1, lam(k,2m) = lam(k,2m+1) = omega**(a_k * m**b_k)
* ``custom``           per-dimension tables with an optional tail model

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
lam(k, 1), its log, lam(k, 2) and ln h_k; the factors built so far, at any
k, one per distinct parameter tuple, so that dimensions with equal
parameters share one; and the head pairs of factors 1..K, the prefix the
count walk has read.  It is
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
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import (
    ApproximateOnlyError,
    DivergenceError,
    InvalidInputError,
    UndecidableError,
)
from .sequences import SequenceDescriptor, validate_sequence
from .special import scipy_special
from .xreal import INF, Interval

if TYPE_CHECKING:
    import numpy as np

_REL_TOL = 1e-12


class Family(str, enum.Enum):
    EULER = "euler"
    WIENER = "wiener"
    KOROBOV = "korobov"
    GAUSSIAN = "gaussian"
    ANALYTIC_KOROBOV = "analytic_korobov"
    CUSTOM = "custom"


ABS = "abs"
NOR = "nor"


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
            return frozenset((NOR,))
        return frozenset((ABS, NOR))

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

    def scaled(self, c: float) -> "FactorSpectrum":
        """Same spectrum with every eigenvalue multiplied by c > 0."""
        if c <= 0:
            raise InvalidInputError(f"scale constant must be positive, got {c}")
        value = self._value
        return FactorSpectrum(lambda j: c * value(j))


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


def _parameters(spec: FamilySpec, k: int) -> tuple:
    """The floats lam(k, j) depends on besides j (and a custom spec's tail):
    r_k; (r_k, g_k); omega_k; (omega, a_k, b_k); or table k's row."""
    if k < 1:
        raise InvalidInputError(f"dimension index must be >= 1, got {k}")
    fam = spec.family
    if fam in (Family.EULER, Family.WIENER):
        return (spec.r.value(k),)
    if fam is Family.KOROBOV:
        return spec.r.value(k), spec.g.value(k)
    if fam is Family.GAUSSIAN:
        return (gaussian_omega(spec.gamma_sq.value(k)),)
    if fam is Family.ANALYTIC_KOROBOV:
        return spec.omega, spec.a.value(k), spec.b.value(k)
    return spec.tables[min(k, len(spec.tables)) - 1]


def _value(spec: FamilySpec, k: int):
    """lam(k, j) as a scalar function of j, from the family closed form at
    the parameters of dimension k."""
    params = _parameters(spec, k)
    if spec.family is Family.CUSTOM:
        return _custom_value(params, spec.tail)
    return _CLOSED_FORMS[spec.family](*params)


_CLOSED_FORMS = {Family.EULER: _euler_value, Family.WIENER: _euler_value,
                 Family.KOROBOV: _korobov_value, Family.GAUSSIAN: _gaussian_value,
                 Family.ANALYTIC_KOROBOV: _analytic_korobov_value}


class DimensionTable:
    """The dimensions of one family, read only as far as they are asked for.

    Append-only.  Row k, for k = 1 .. ``len(leads)``, holds ``leads[k-1]``,
    lam(k, 1); ``log_leads[k-1]``, its ``math.log``; ``seconds[k-1]``,
    lam(k, 2); and ``log_h[k-1]``, ``ln h_k`` as minus factor k's first
    ``-ln`` ratio (-inf where lam(k, 2) is 0.0): the expressions
    :class:`FactorSpectrum` evaluates, so the bits are the same.  :meth:`grow`
    reads rows in order, two eigenvalues each; a trace reads lam(k, 1) and
    lam(k, 2) from the rows, so it builds no factor.
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

    __slots__ = ("spec", "leads", "log_leads", "seconds", "log_h", "factors", "ratio_heads",
                 "_by_parameters", "_lock")

    def __init__(self, spec):
        self.spec = spec
        self._lock = threading.RLock()  # head builds factors under it
        self.leads, self.log_leads, self.seconds, self.log_h = [], [], [], []
        self.factors = {}
        self._by_parameters = {}
        self.ratio_heads = []

    @classmethod
    def of(cls, factors):
        """The table whose rows are the given factors, all built."""
        self = cls(None)
        self.factors = dict(enumerate(factors, 1))
        self.leads = [f.leading for f in factors]
        self.log_leads = [f.log_leading for f in factors]
        self.seconds = [f.head[1] for f in factors]
        self.ratio_heads = [f.ratio_head for f in factors]
        self.log_h = [-nl[0] for nl, _ in self.ratio_heads]
        return self

    def grow(self, d):
        """Read the rows up to dimension d; a leading eigenvalue that is not
        a positive double raises the error building factor k would."""
        with self._lock:
            for k in range(len(self.leads) + 1, d + 1):
                value = _value(self.spec, k)
                lead, second = value(1), value(2)
                try:
                    log_lead = _log_leading(lead)
                except InvalidInputError as exc:
                    raise InvalidInputError(f"{exc} at k={k}") from None
                self.leads.append(lead)
                self.log_leads.append(log_lead)
                self.seconds.append(second)
                self.log_h.append(-(log_lead - math.log(second)) if second > 0.0 else -math.inf)

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
                fac = FactorSpectrum(_value(self.spec, k))
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


def factor_eigenvalue(spec: FamilySpec, k: int, j: int, require_exact: bool = False) -> float:
    """Evaluate lam(k, j).

    For the wiener family with ``r_k >= 1`` only the leading-order term is
    returned; pass ``require_exact=True`` to turn that into an
    :class:`ApproximateOnlyError` instead.  Numerical estimates live in
    :mod:`tractal.nystrom`.
    """
    fac = spec.factor(k)
    if require_exact and spec.family is Family.WIENER and spec.r.value(k) >= 1:
        raise ApproximateOnlyError(
            f"wiener eigenvalues with r_k={spec.r.value(k):g} >= 1 are approximate-only"
        )
    return fac.eigenvalue(j)


def second_ratio(spec: FamilySpec, k: int) -> float:
    """h_k = lam(k,2)/lam(k,1), from the family closed form.

    For the wiener family that is the ratio of the values its factors hold,
    the euler formula (exact for r_k = 0, leading-order beyond), so traces
    read the same spectrum as counts.  Its verdicts use the decay envelope
    ``(1+r_k)**-2`` of the true ratios instead (see
    :func:`second_ratio_limits`).
    """
    param, h = _second_ratio_map(spec)
    return h(param.value(k))


class _Rows(NamedTuple):
    """A custom spec's tables as the parameter sequence of its closed forms:
    row k, and the last row for every k past the end."""

    tables: tuple

    def value(self, k):
        return self.tables[min(k, len(self.tables)) - 1]


def _second_ratio_map(spec: FamilySpec):
    """The parameter sequence h_k depends on, and h_k as a function of its
    k-th value; the function also maps the parameter's limit to lim h_k
    (except for custom tables, whose limit is declared)."""
    fam = spec.family
    if fam in (Family.EULER, Family.WIENER):
        return spec.r, lambda r: 3.0 ** (-(2.0 * r + 2.0))
    if fam is Family.KOROBOV:
        return spec.g, lambda g: g
    if fam is Family.GAUSSIAN:
        return spec.gamma_sq, lambda g2: 0.0 if g2 == 0 else gaussian_omega(g2)
    if fam is Family.ANALYTIC_KOROBOV:
        return spec.a, lambda a: spec.omega ** a
    return _Rows(spec.tables), lambda row: row[1] / row[0]


def tail_sum_H(spec: FamilySpec, k: int, tau: float) -> float:
    """H(k, tau) = sum_{j>=2} (lam(k,j)/lam(k,2))**tau, +oo if divergent.

    Finite values carry relative error below 1e-12.
    """
    values, H = _tail_map(spec, tau)
    return H(values(k))


def _tail_map(spec: FamilySpec, tau: float):
    """The parameter values H(k, tau) depends on, as a function of k, and H
    as a function of them: the one place each family's tail sum is written."""
    if tau <= 0:
        raise InvalidInputError(f"tau must be positive, got {tau}")
    fam = spec.family
    if fam in (Family.EULER, Family.WIENER):
        def euler_tail(r):
            x = tau * (2.0 * r + 2.0)
            # sum_{j>=2} (3/(2j-1))**x = 1.5**x zeta(x, 1.5) = 1 + sum_{n>=1} (1.5/(1.5+n))**x
            return INF if x <= 1.0 else 1.0 + _power_tail(x, 1.5)
        return spec.r.value, euler_tail
    if fam is Family.KOROBOV:
        def korobov_tail(r):
            x = 2.0 * r * tau
            return INF if x <= 1.0 else 2.0 * float(scipy_special().zeta(x))
        return spec.r.value, korobov_tail
    if fam is Family.GAUSSIAN:
        return spec.gamma_sq.value, lambda g2: 1.0 / (1.0 - gaussian_omega(g2) ** tau)
    if fam is Family.ANALYTIC_KOROBOV:
        a, b, omega = spec.a.value, spec.b.value, spec.omega
        return (lambda k: (a(k), b(k))), lambda ab: _analytic_korobov_tail_sum(omega, *ab, tau)
    return _Rows(spec.tables).value, lambda row: _custom_tail_sum(row, spec.tail, tau)


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


def tau_zero(spec: FamilySpec) -> Interval:
    """Infimum of exponents with uniformly bounded tail ratio sums.

    Point interval where a closed form exists; [0, 3/5] for the wiener
    family, whose exact threshold is unresolved; [0, +oo) with a warning for
    tabulated spectra with no declared value.
    """
    fam = spec.family
    if fam is Family.EULER:
        return Interval.point(1.0 / (2.0 * spec.r.value(1) + 2.0))
    if fam is Family.WIENER:
        return Interval(0.0, 0.6)
    if fam is Family.KOROBOV:
        return Interval.point(1.0 / (2.0 * spec.r.value(1)))
    if fam in (Family.GAUSSIAN, Family.ANALYTIC_KOROBOV):
        return Interval.point(0.0)
    if spec.declared_tau0 is not None:
        return Interval.point(spec.declared_tau0)
    warnings.warn("tabulated spectrum has no declared tau0; reporting the "
                  "uninformative interval [0, +oo)", stacklevel=2)
    return Interval(0.0, INF)


def log_trace_profile(spec: FamilySpec, tau: float, D: int, normalized: bool) -> np.ndarray:
    """Entry d-1 is ln sum_j lam_{d,j}**tau = sum_{k<=d} ln sum_j lam(k,j)**tau.

    Each factor's power sum is lam(k,1)**tau + lam(k,2)**tau * H(k,tau); the
    normalized trace divides every lam(k,j) by lam(k,1).  H and h_k come
    through :func:`_tail_map` and :func:`_second_ratio_map`, and the
    unnormalized lam(k,1) and lam(k,2) from the rows of the spec's
    :class:`DimensionTable`, so no factor is built.  A dimension whose
    parameter values (or rows) equal those of dimension k - 1 reuses its
    terms: a constant sequence, or custom rows past the last table, costs
    one tail sum per profile.  The logs are added in dimension order by a
    plain left fold, not by ``sum``, which compensates from Python 3.12 on,
    so the entries do not depend on the Python version.
    """
    import numpy as np

    tail_values, tail = _tail_map(spec, tau)
    if normalized:
        ratio_seq, ratio = _second_ratio_map(spec)
        ratio_values, lead = ratio_seq.value, 1.0
    else:
        table = _factor(spec)  # one lookup: hashing a spec of many tables costs O(tables)
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


# ---------------------------------------------------------------------------
# limits consumed by the tractability classifier
# ---------------------------------------------------------------------------


def _quiet(fn):
    try:
        return fn()
    except UndecidableError:
        return None


def second_ratio_limits(spec: FamilySpec) -> tuple[Optional[float], Optional[float]]:
    """(A, lim h_k) for the second ratios h_k, A = liminf ln(1/h_k)/ln k.

    Each is composed through the family map from the parameter's closed-form
    or declared asymptotics, and is None where those do not decide it.  For
    the wiener family A is the rate of the envelope ``(1+r_k)**-2``, and
    the limit, that of the held ratios, decides no verdict.
    """
    fam = spec.family
    if fam is Family.CUSTOM:
        B = spec.declared_b_limit
        return spec.declared_a_star, None if B is None else math.exp(-B)
    param, h = _second_ratio_map(spec)
    if fam in (Family.KOROBOV, Family.GAUSSIAN):
        rate = _quiet(param.liminf_log_ratio)
    elif fam is Family.EULER:
        rate = _quiet(lambda: 2.0 * math.log(3.0) * param.liminf_over_log())
    elif fam is Family.WIENER:
        rate = _quiet(lambda: 2.0 * _growth_rate(param))
    else:
        rate = _quiet(lambda: math.log(1.0 / spec.omega) * param.liminf_over_log())
    limit = _quiet(param.limit)
    return rate, None if limit is None else h(limit)


def _growth_rate(r: SequenceDescriptor) -> float:
    """liminf ln(1+r_k)/ln k; zero whenever r is bounded."""
    lim = _quiet(r.limit)
    if lim is not None and math.isfinite(lim):
        return 0.0
    return r.liminf_log_over_log()


def korobov_exp_weights(r: SequenceDescriptor) -> SequenceDescriptor:
    """Weights g_k = (2*pi)**(-2*r_k) tied to the smoothness sequence."""
    ln2pi = math.log(2.0 * math.pi)
    rate = _quiet(lambda: 2.0 * ln2pi * r.liminf_over_log())
    rbar = _quiet(r.limit)
    return SequenceDescriptor.explicit(
        (), evaluator=lambda k: (2.0 * math.pi) ** (-2.0 * r.value(k)),
        liminf_log_ratio=rate, limit=None if rbar is None else (2.0 * math.pi) ** (-2.0 * rbar))
