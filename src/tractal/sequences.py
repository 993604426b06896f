"""Parameter sequences with declared asymptotics.

A :class:`SequenceDescriptor` is a total map ``k -> s_k`` (k >= 1) together
with enough declared asymptotic information to evaluate the limits that the
tractability classifier needs.  Four kinds are supported:

* ``constant(c)``          -- s_k = c
* ``power(c, alpha)``      -- s_k = c * k**alpha
* ``log_growth(theta)``    -- s_k = ceil(theta * ln(k+1))
* ``explicit(values)``     -- a finite head, continued at the last value
                              unless an ``evaluator`` is supplied

The four asymptotic quantities the classifier reads (``liminf_log_ratio``,
``limit``, ``liminf_over_log`` and ``liminf_log_over_log``) are decided
together, in one switch over the kinds.  For the structured kinds each has a
closed form.  An explicit descriptor without an evaluator is eventually
constant, so its limits are decidable too, and a declaration may only repeat
them; with an evaluator the declared fields are the only source of truth,
and a quantity they do not decide raises :class:`UndecidableError`.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional

from .errors import InvalidInputError, UndecidableError
from .xreal import INF

_VALIDATION_WINDOW = 10**4
_ADVISORY_SLACK = 0.1
# A positive sequence evaluated in doubles may underflow to 0.0; a zero is
# taken for that only right after a positive value below this (or a zero).
_UNDERFLOW_TINY = 1e-300


class SequenceDescriptor(NamedTuple):
    kind: str
    c: float = 1.0
    alpha: float = 0.0
    theta: float = 1.0
    values: tuple = ()
    # evaluators compare by identity so distinct callables never alias in
    # caches keyed on the descriptor
    evaluator: Optional[Callable[[int], float]] = None
    declared_liminf_log_ratio: Optional[float] = None
    declared_limit: Optional[float] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "SequenceDescriptor":
        return cls(kind="constant", c=float(c))

    @classmethod
    def power(cls, c: float, alpha: float) -> "SequenceDescriptor":
        return cls(kind="power", c=float(c), alpha=float(alpha))

    @classmethod
    def log_growth(cls, theta: float) -> "SequenceDescriptor":
        if not 0 < theta < INF:
            raise InvalidInputError(f"log_growth rate must be positive and finite, got {theta}")
        return cls(kind="log_growth", theta=float(theta))

    @classmethod
    def explicit(cls, values, evaluator=None, liminf_log_ratio=None, limit=None):
        values = tuple(float(v) for v in values)
        if not values and evaluator is None:
            raise InvalidInputError("explicit sequence needs values or an evaluator")
        return cls(
            kind="explicit",
            values=values,
            evaluator=evaluator,
            declared_liminf_log_ratio=liminf_log_ratio,
            declared_limit=limit,
        )

    # -- evaluation ---------------------------------------------------

    def value(self, k: int) -> float:
        if k < 1:
            raise InvalidInputError(f"sequence index must be >= 1, got {k}")
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            try:
                return self.c * float(k) ** self.alpha
            except OverflowError:  # k**alpha beyond the double range
                return self.c * INF
        if self.kind == "log_growth":
            x = self.theta * math.log(k + 1)
            return x if x == INF else float(math.ceil(x))
        if k <= len(self.values):
            return self.values[k - 1]
        if self.evaluator is not None:
            return float(self.evaluator(k))
        return self.values[-1]

    # -- declared / closed-form asymptotics ---------------------------

    @property
    def _open_ended(self) -> bool:
        return self.kind == "explicit" and self.evaluator is not None

    @property
    def monotone_by_kind(self) -> bool:
        """Whether :func:`validate_sequence`'s direction check covers every
        k: a structured kind by its form, an explicit one without an
        evaluator by its values, all checked below the window, and the
        constant run past them.  An evaluator is checked on the window only."""
        return not self._open_ended and len(self.values) < _VALIDATION_WINDOW

    def _asymptotics(self) -> tuple:
        """(liminf ln(1/s_k)/ln k, lim s_k, liminf s_k/ln k, liminf ln(s_k)/ln k),
        each None where the description does not decide it."""
        if self.kind == "constant":
            return 0.0, self.c, 0.0, 0.0
        if self.kind == "power":
            a = self.alpha
            return -a, (0.0 if a < 0 else self.c if a == 0 else INF), (INF if a > 0 else 0.0), a
        if self.kind == "log_growth":
            return 0.0, INF, self.theta, 0.0
        if not self._open_ended:
            last = self.values[-1]
            return 0.0 if last > 0 else INF, last, 0.0, 0.0
        rate, lim = self.declared_liminf_log_ratio, self.declared_limit
        return (rate, lim,
                None if rate is None or rate == 0 else INF if rate < 0 else 0.0,
                0.0 if lim is not None and math.isfinite(lim) else None)

    def _decided(self, i: int, message: str) -> float:
        value = self._asymptotics()[i]
        if value is None:
            raise UndecidableError(message)
        return value

    def liminf_log_ratio(self) -> float:
        """liminf_k ln(1/s_k) / ln k."""
        return self._decided(0, "liminf ln(1/s_k)/ln k undeclared for explicit sequence")

    def limit(self) -> float:
        """lim_k s_k, assuming the sequence is monotone."""
        return self._decided(1, "limit undeclared for explicit sequence")

    def liminf_over_log(self) -> float:
        """liminf_k s_k / ln k."""
        return self._decided(2, "liminf s_k/ln k undecidable for explicit sequence")

    def liminf_log_over_log(self) -> float:
        """liminf_k ln(s_k) / ln k."""
        return self._decided(3, "liminf ln(s_k)/ln k undecidable for explicit sequence")


def validate_sequence(seq, name, direction=None, positive=True, integer=False,
                      max_value=None):
    """Check range, integrality and monotonicity of a parameter sequence.

    Structured kinds are checked analytically; explicit kinds are checked on
    the window k <= 10^4 (without an evaluator, up to the first repeat of the
    last value).  A positive sequence may underflow to 0.0 right after a
    value below 1e-300.  Declarations on an explicit sequence without an
    evaluator must equal its limits.  On one with an evaluator, a declared
    liminf that disagrees with the empirical log-ratio at the window edge by
    more than 0.1 only warns, since no finite window can decide a liminf.
    """
    if seq.kind == "constant":
        _check_value(seq.c, name, positive, integer, max_value)
        return
    if seq.kind == "power":
        _check_value(seq.c, name, positive, integer=False, max_value=None)
        if direction == "nondecreasing" and seq.alpha < 0:
            raise InvalidInputError(f"{name} must be nondecreasing (alpha={seq.alpha})")
        if direction == "nonincreasing" and seq.alpha > 0:
            raise InvalidInputError(f"{name} must be nonincreasing (alpha={seq.alpha})")
        probes = range(1, _VALIDATION_WINDOW + 1) if integer else (1, 2, _VALIDATION_WINDOW)
        for probe in probes:
            _check_value(seq.value(probe), name, positive, integer, max_value)
        return
    if seq.kind == "log_growth":
        if direction == "nonincreasing":
            raise InvalidInputError(f"{name} must be nonincreasing, log_growth grows")
        return
    window = (_VALIDATION_WINDOW if seq._open_ended
              else min(_VALIDATION_WINDOW, len(seq.values) + 1))
    prev = None
    for k in range(1, window + 1):
        v = seq.value(k)
        if not (positive and v == 0.0 and prev is not None and prev < _UNDERFLOW_TINY):
            _check_value(v, name, positive, integer, max_value)
        if prev is not None:
            if direction == "nondecreasing" and v < prev:
                raise InvalidInputError(f"{name} not nondecreasing at k={k}")
            if direction == "nonincreasing" and v > prev:
                raise InvalidInputError(f"{name} not nonincreasing at k={k}")
        prev = v
    # s_k <= s_1 keeps ln(1/s_k)/ln k at or above ln(1/s_1)/ln k -> 0
    rate = seq.declared_liminf_log_ratio
    if direction == "nonincreasing" and rate is not None and rate < 0:
        raise InvalidInputError(
            f"{name} is nonincreasing, so its declared liminf_log_ratio must be "
            f"nonnegative, got {rate}")
    _check_declared_limit(seq.declared_limit, prev, name, direction, max_value)
    if seq._open_ended:
        _advisory_limit_check(seq, name)
    else:
        _check_constant_tail_declarations(seq, name)


def _check_value(v, name, positive, integer, max_value):
    if not math.isfinite(v):
        raise InvalidInputError(f"{name} must be finite, got {v}")
    if positive and v <= 0:
        raise InvalidInputError(f"{name} must be positive, got {v}")
    if not positive and v < 0:
        raise InvalidInputError(f"{name} must be nonnegative, got {v}")
    if integer and v != int(v):
        raise InvalidInputError(f"{name} must be integer-valued, got {v}")
    if max_value is not None and v > max_value:
        raise InvalidInputError(f"{name} must be <= {max_value}, got {v}")


def _check_declared_limit(lim, last, name, direction, max_value):
    """A declared limit lies where the checked head can still go: at or
    above 0, within max_value, and past the last checked value in the
    sequence's direction (so +oo only where the sequence may grow)."""
    if lim is None:
        return
    if not lim >= 0:
        raise InvalidInputError(f"{name}: declared limit must be nonnegative, got {lim}")
    if max_value is not None and lim > max_value:
        raise InvalidInputError(f"{name}: declared limit must be <= {max_value}, got {lim}")
    if ((direction == "nondecreasing" and lim < last)
            or (direction == "nonincreasing" and lim > last)):
        raise InvalidInputError(
            f"{name} is {direction}, so its declared limit cannot be {lim} after "
            f"the value {last}")


def _check_constant_tail_declarations(seq, name):
    """Without an evaluator the sequence stays at its last value, so its
    limit and liminf log-ratio are known; a declaration must repeat them."""
    rate, last = seq._asymptotics()[:2]
    for field, declared, truth in (("limit", seq.declared_limit, last),
                                   ("liminf_log_ratio", seq.declared_liminf_log_ratio, rate)):
        if declared is not None and declared != truth:
            raise InvalidInputError(
                f"{name} is eventually constant at {last}, so its {field} is {truth}, "
                f"but the declared {field} is {declared}")


def _advisory_limit_check(seq, name):
    declared = seq.declared_liminf_log_ratio
    if declared is None or not math.isfinite(declared):
        return
    # Sample log-spaced indices; a liminf is approached from above along a
    # subsequence, so compare against the windowed minimum, and stay silent
    # while the gap is still shrinking (slow convergence, not disagreement).
    ks = sorted({int(round(10 ** (2 + 2 * i / 63))) for i in range(64)})
    gaps = []
    for k in ks:
        v = seq.value(k)
        if v <= 0:
            return
        gaps.append(abs(math.log(1.0 / v) / math.log(k) - declared))
    shrinking = gaps[-1] < 0.75 * gaps[0]
    if min(gaps) > _ADVISORY_SLACK and not shrinking:
        warnings.warn(
            f"{name}: declared liminf log-ratio {declared:g} differs from the "
            f"empirical window values (closest gap {min(gaps):g} up to "
            f"k={_VALIDATION_WINDOW}); declared value is authoritative "
            "(liminf is not decidable from a finite window)",
            stacklevel=3,
        )
