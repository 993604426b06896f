"""Extended-real conventions and closed intervals.

Extended reals are plain IEEE doubles where ``math.inf`` stands for +oo.
The arithmetic conventions used by the exponent formulas are fixed here:
``two_over(inf) == 0``, ``two_over(0) == inf``, and ``max`` with +oo is +oo
(native float semantics).
"""
from __future__ import annotations

import math
from typing import NamedTuple

INF = math.inf


def two_over(x: float) -> float:
    """2/x under the conventions 2/+oo = 0 and 2/0+ = +oo."""
    if x < 0:
        raise ValueError(f"expected a nonnegative extended real, got {x}")
    if x == 0:
        return INF
    if math.isinf(x):
        return 0.0
    return 2.0 / x


def ceil_exp(log_value: float) -> int:
    """Smallest integer >= exp(log_value), exact past the float range.

    For large arguments the result is assembled from a 54-bit mantissa and a
    power of two, which over-approximates by at most one ulp; that keeps the
    value a valid upper bound.
    """
    if log_value < 700.0:
        return max(1, math.ceil(math.exp(log_value)))
    t = log_value / math.log(2.0)
    shift = math.floor(t) - 53
    mantissa = math.ceil(2.0 ** (t - shift))
    return mantissa << shift


# A NamedTuple body may not define __new__, so a record that checks its
# fields (as CountResult, ComplexityQuery and TailModel also do) does so in
# a subclass of its private field tuple.
class _Interval(NamedTuple):
    lo: float
    hi: float


class Interval(_Interval):
    """Closed interval [lo, hi] of extended reals with lo <= hi."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")
        return self

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def to_json_dict(self) -> dict:
        return {"lo": jsonable_float(self.lo), "hi": jsonable_float(self.hi)}


def jsonable_float(x: float):
    """Map +oo to the string "inf" so reports stay valid JSON."""
    if x is None:
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x
