"""Tractability classification with exact exponents.

The classifier maps a family's second-ratio asymptotics to verdicts for
strong polynomial (SPT), polynomial (PT), quasi-polynomial (QPT), uniformly
weak (UWT), (s,t)-weak, and weak tractability (WT), plus the curse of
dimensionality, together with the exponents

    p* = max(2/A, 2*tau0)   with  A = liminf_k ln(1/h_k) / ln k,
    t* = max(2/B, 2*tau0)   with  B = lim_k    ln(1/h_k),

under the extended-real conventions of :mod:`tractal.xreal`.  Verdicts come
only from declared or closed-form limits; finite windows of a sequence never
produce one.  Exponents are intervals so an unresolved tau0 (the wiener
family) is carried honestly instead of being collapsed to a point.

The facts read of one family's record are defined here too: tau0, the
second ratios h_k and their limits A and lim h_k, one eigenvalue with its
exactness check, and the exponential Korobov weights.  No count runs them;
:mod:`tractal.spectra` gives their names as its own (``spectra.tau_zero``
and the others) and loads this module on their first use.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple, Optional

from .errors import ApproximateOnlyError, InvalidInputError, UnsupportedCriterionError
from .sequences import SequenceDescriptor
from .special import g_function, g_root, riemann_zeta  # noqa: F401  (public surface)
from .xreal import INF, Interval, jsonable_float, two_over
from .spectra import _RECORDS, ABS, NOR, Family, FamilySpec, _quiet

_UNDECIDABLE = "undecidable from finite data"


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
    seq, h = _RECORDS[spec.family].ratio(spec)
    return h(seq.value(k))


def tau_zero(spec: FamilySpec) -> Interval:
    """Infimum of exponents with uniformly bounded tail ratio sums.

    Point interval where a closed form exists; [0, 3/5] for the wiener
    family, whose exact threshold is unresolved; [0, +oo) with a warning for
    tabulated spectra with no declared value.
    """
    return _RECORDS[spec.family].tau0(spec)


def second_ratio_limits(spec: FamilySpec) -> tuple[Optional[float], Optional[float]]:
    """(A, lim h_k) for the second ratios h_k, A = liminf ln(1/h_k)/ln k.

    Each is read from the asymptotics of the family record's ratio
    sequence, closed-form or declared: A through the record's ``rate``, and
    lim h_k as h of the sequence's limit.  Each is None where those do not
    decide it.  For the wiener family A is the rate of the envelope
    ``(1+r_k)**-2``, and the limit, that of the held ratios, decides no
    verdict; for custom tables both are the declared ones.
    """
    rec = _RECORDS[spec.family]
    seq, h = rec.ratio(spec)
    limit = _quiet(seq.limit)
    return _quiet(lambda: rec.rate(spec, seq)), None if limit is None else h(limit)


def korobov_exp_weights(r: SequenceDescriptor) -> SequenceDescriptor:
    """Weights g_k = (2*pi)**(-2*r_k) tied to the smoothness sequence."""
    ln2pi = math.log(2.0 * math.pi)
    rate = _quiet(lambda: 2.0 * ln2pi * r.liminf_over_log())
    rbar = _quiet(r.limit)
    return SequenceDescriptor.explicit(
        (), evaluator=lambda k: (2.0 * math.pi) ** (-2.0 * r.value(k)),
        liminf_log_ratio=rate, limit=None if rbar is None else (2.0 * math.pi) ** (-2.0 * rbar))


def spt_exponent(a_star: float, tau0: Interval) -> Interval:
    """p* interval max(2/A, 2*tau0) over the tau0 interval."""
    if a_star == 0:
        raise InvalidInputError("not SPT: the decay-rate limit A is zero")
    base = two_over(a_star)
    return Interval(max(base, 2.0 * tau0.lo), max(base, 2.0 * tau0.hi))


def qpt_exponent(b: float, tau0: Interval) -> Interval:
    """t* interval max(2/B, 2*tau0) over the tau0 interval."""
    if b == 0:
        raise InvalidInputError("not QPT: the second-ratio log limit B is zero")
    base = two_over(b)
    return Interval(max(base, 2.0 * tau0.lo), max(base, 2.0 * tau0.hi))


def euler_abs_spt_exponent(r: SequenceDescriptor) -> float:
    """Absolute-criterion SPT exponent for the euler family:
    max(x0/(rbar+1), 1/(r1+1)) where x0 is the root of G(x) = 1."""
    x0 = g_root()
    r1 = r.value(1)
    rbar = r.limit()
    first = 0.0 if math.isinf(rbar) else x0 / (rbar + 1.0)
    return max(first, 1.0 / (r1 + 1.0))


def korobov_exp_weight_spt_exponent(r: SequenceDescriptor) -> Optional[float]:
    """SPT exponent for the korobov subfamily with weights (2*pi)**(-2*r_k),
    computed from the smoothness sequence alone:
    max(1/r1, R/ln(2*pi)) with R = limsup ln k / r_k; None when not SPT."""
    rate = r.liminf_over_log()  # liminf r_k / ln k; R is its reciprocal
    if rate == 0:
        return None
    R = 0.0 if math.isinf(rate) else 1.0 / rate
    return max(1.0 / r.value(1), R / math.log(2.0 * math.pi))


class TractabilityReport(NamedTuple):
    """Flags and exponents; None marks a question the theory leaves open.

    PT is equivalent to SPT, and UWT, WT and the absence of the curse to
    QPT, so those four are read from ``spt`` and ``qpt``.  ``provenance``
    defaults to an empty read-only mapping, so no two reports share a dict.
    """

    criterion: str
    spt: Optional[bool]
    qpt: Optional[bool]
    p_star: Optional[Interval]
    t_star: Optional[Interval]
    a_star: Optional[float]
    b: Optional[float]
    tau0: Interval
    provenance: Mapping = MappingProxyType({})

    @property
    def pt(self) -> Optional[bool]:
        return self.spt

    @property
    def uwt(self) -> Optional[bool]:
        return self.qpt

    @property
    def wt(self) -> Optional[bool]:
        return self.qpt

    @property
    def curse(self) -> Optional[bool]:
        return None if self.qpt is None else not self.qpt

    def st_weakly_tractable(self, s: float, t: float) -> Optional[bool]:
        """(s,t)-weak tractability: always true for t > 1; equal to QPT for
        t in (0, 1]."""
        if not (s > 0 and t > 0):
            raise InvalidInputError(f"s and t must be positive, got {s} and {t}")
        if t > 1.0:
            return True
        return self.qpt

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "spt": self.spt,
            "pt": self.pt,
            "qpt": self.qpt,
            "uwt": self.uwt,
            "wt": self.wt,
            "curse": self.curse,
            "p_star": self.p_star.to_json_dict() if self.p_star else None,
            "t_star": self.t_star.to_json_dict() if self.t_star else None,
            "a_star": jsonable_float(self.a_star),
            "b": jsonable_float(self.b),
            "tau0": self.tau0.to_json_dict(),
            "provenance": dict(self.provenance),
        }


def classify(spec: FamilySpec, criterion: str = NOR) -> TractabilityReport:
    """Classify a family under the given error criterion.

    Verdicts follow the closed-form limit maps of each family; fields the
    available results do not determine are reported as None with an "open"
    provenance entry rather than guessed.  Second ratios are nonincreasing
    for every family but wiener, whose ratios are known only through a
    two-sided envelope: there SPT is decided and QPT only where SPT implies
    it.  Under the absolute criterion euler and gaussian are SPT for every
    parameter sequence, with their own exponent formulas.
    """
    if criterion not in (ABS, NOR):
        raise InvalidInputError(f"criterion must be 'abs' or 'nor', got {criterion!r}")
    if criterion not in spec.criterion_support:
        raise UnsupportedCriterionError(
            f"criterion {criterion!r} is not supported for the {spec.family.value} family")

    fam = spec.family
    tau0 = tau_zero(spec)
    a_star, lim = second_ratio_limits(spec)
    if lim is not None and (lim < 0 or lim > 1):
        raise InvalidInputError(f"second ratios must stay in (0,1], limit {lim}")
    b = None if lim is None else INF if lim == 0 else -math.log(lim)
    # Reproduces the earlier h.kind rule: only a non-explicit korobov g is
    # labelled closed-form, and family closed-form maps are labelled
    # declared; ROADMAP item 7 will mend this.
    source = ("closed-form" if fam is Family.KOROBOV and spec.g.kind != "explicit"
              else "declared")
    prov = {"tau0": "family closed form" if fam is not Family.CUSTOM
            else ("declared" if spec.declared_tau0 is not None else "unknown"),
            "a_star": source if a_star is not None else _UNDECIDABLE,
            "b": source if b is not None else _UNDECIDABLE}
    spt = None if a_star is None else a_star > 0
    qpt = None if b is None else b > 0
    absolute = criterion == ABS and fam in (Family.EULER, Family.GAUSSIAN)

    if fam is Family.WIENER:
        prov["a_star"] += " (decay envelope of the second ratios)"
        prov["spt"] = ("envelope decay-rate limit is positive" if spt
                       else "envelope decay-rate limit is zero" if spt is not None
                       else "open: envelope decay rate undeclared")
        qpt = True if spt else None
        prov["qpt"] = ("implied by strong polynomial tractability" if spt
                       else "open: not determined for this family")
        prov["b"] = "open: second-ratio constants are not determined"
        b = None
    elif absolute:
        spt = qpt = True
        prov["spt"] = ("absolute criterion: holds for every admissible smoothness sequence"
                       if fam is Family.EULER
                       else "absolute criterion: holds for all shape parameters")
        prov["qpt"] = "implied by strong polynomial tractability"
    else:
        prov["spt"] = ("second-ratio decay-rate limit is positive" if spt
                       else "second-ratio decay-rate limit is zero" if spt is not None
                       else "open: decay-rate limit undeclared")
        prov["qpt"] = ("open: second-ratio log limit undeclared" if qpt is None
                       else "second-ratio log limit" + (" is positive" if qpt else " is zero"))
    if b is not None:
        prov["curse"] = "holds exactly when the second ratios are identically one"

    if absolute and fam is Family.EULER and lim is None:
        # lim h_k is undecided exactly when the smoothness limit is
        p_star = None
        prov["p_star"] = "open: smoothness limit undeclared"
    elif absolute and fam is Family.EULER:
        p_star = Interval.point(euler_abs_spt_exponent(spec.r))
        prov["p_star"] = "root of the eigenvalue power series combined with the smoothness limits"
    elif absolute and a_star is None:
        p_star = None
        prov["p_star"] = "open: shape-parameter decay rate undeclared"
    elif absolute:
        p_star = Interval.point(min(2.0, two_over(a_star)))
        prov["p_star"] = "absolute criterion: min(2, 2/decay rate)"
    else:
        p_star = spt_exponent(a_star, tau0) if spt else None
        prov["p_star"] = _exponent_source(spt)

    t_star = None
    if absolute:
        prov["t_star"] = "open: no absolute-criterion QPT exponent is available"
    elif fam is not Family.WIENER:
        t_star = qpt_exponent(b, tau0) if qpt else None
        prov["t_star"] = _exponent_source(qpt)

    return TractabilityReport(
        criterion=criterion, spt=spt, qpt=qpt, p_star=p_star, t_star=t_star,
        a_star=a_star, b=b, tau0=tau0, provenance=prov)


def _exponent_source(flag):
    if flag:
        return "exponent formula over the tau0 interval"
    if flag is False:
        return "undefined: the problem is not tractable at this level"
    return "open: the deciding limit is undeclared"
