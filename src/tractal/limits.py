"""What the tractability classifier and the checks read of one family.

Each function reads the family's record (:data:`tractal.spectra._RECORDS`):
the exponent threshold tau0, the second ratios h_k and their limits A and
lim h_k, one eigenvalue with its exactness check, and the exponential
Korobov weights.  No counting command runs this code, so it is a module of
its own, loaded on first use through the names :mod:`tractal.spectra`
gives it (``spectra.tau_zero`` and the others below).
"""
from __future__ import annotations

import math
from typing import Optional

from .errors import ApproximateOnlyError
from .sequences import SequenceDescriptor
from .spectra import _RECORDS, Family, FamilySpec, _quiet
from .xreal import Interval


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
