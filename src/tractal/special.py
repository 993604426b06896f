"""Zeta-type special functions used by the closed-form spectra.

Zeta values come from ``scipy.special.zeta``, as do the Hurwitz tails and
the incomplete gamma in :mod:`tractal.spectra`; nothing is summed by hand.
scipy is imported on first use, through :func:`scipy_special`, so a count or
a classification that needs no zeta or gamma never loads it."""
from __future__ import annotations

import math
from functools import cache

from .errors import InvalidInputError


@cache
def scipy_special():
    """The ``scipy.special`` module, imported on the first call.

    Importing scipy is most of a command's start-up, and most commands
    evaluate no zeta or gamma.  Once cached a call costs ~0.1 us, where an
    import statement in each tail sum would cost ~0.8 us per call, and a
    trace sum makes one tail-sum call per dimension.
    """
    import scipy.special

    return scipy.special


def riemann_zeta(s: float) -> float:
    """zeta(s) for s > 1, from ``scipy.special.zeta`` (relative error ~1e-16)."""
    s = float(s)
    if s <= 1.0:
        raise InvalidInputError(f"zeta is evaluated only for s > 1, got {s}")
    return float(scipy_special().zeta(s))


def g_function(x: float) -> float:
    """G(x) = sum_{j>=1} (pi*(j-1/2))**-x for x > 1; strictly decreasing.

    Evaluated through the reduction G(x) = (2/pi)**x * (1 - 2**-x) * zeta(x).
    """
    if x <= 1.0:
        raise InvalidInputError(f"the series diverges for x <= 1, got {x}")
    return (2.0 / math.pi) ** x * (1.0 - 2.0 ** -x) * riemann_zeta(x)


def g_root() -> float:
    """The unique x in (1, 2) with G(x) = 1, by bisection to 1e-10.

    The bracket is guaranteed: G blows up at 1+ and G(2) = 1/2 < 1.  The
    lower end starts at 1 + 1e-6 to stay clear of the pole.  The 34 steps
    take well under a millisecond, so the root is not cached.
    """
    lo, hi = 1.0 + 1e-6, 2.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g_function(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
