import math
import warnings

import pytest

from tractal import spectra
from tractal.errors import InvalidInputError, UndecidableError
from tractal.sequences import SequenceDescriptor as S, validate_sequence
from tractal.xreal import INF


def test_kind_values():
    assert S.constant(2.5).value(7) == 2.5
    assert S.power(2.0, -1.0).value(4) == 0.5
    assert S.log_growth(1.0).value(1) == 1.0  # ceil(ln 2)
    assert S.log_growth(1.0).value(10) == 3.0  # ceil(ln 11)
    e = S.explicit([3.0, 1.0, 0.5])
    assert e.value(2) == 1.0
    assert e.value(50) == 0.5  # continues at the last value


def test_explicit_with_evaluator():
    e = S.explicit([5.0], evaluator=lambda k: 5.0 / k, liminf_log_ratio=1.0, limit=0.0)
    assert e.value(1) == 5.0
    assert e.value(10) == 0.5
    assert e.liminf_log_ratio() == 1.0
    assert e.limit() == 0.0


def test_declared_limits_per_kind():
    assert S.constant(3.0).limit() == 3.0
    assert S.power(1.0, -2.0).limit() == 0.0
    assert math.isinf(S.power(1.0, 0.5).limit())
    assert math.isinf(S.log_growth(2.0).limit())
    assert S.power(1.0, -2.0).liminf_log_ratio() == 2.0
    assert S.constant(0.25).liminf_log_ratio() == 0.0
    assert S.log_growth(3.0).liminf_over_log() == 3.0
    assert math.isinf(S.power(1.0, 1.0).liminf_over_log())
    assert S.power(2.0, 1.5).liminf_log_over_log() == 1.5


def test_undeclared_open_ended_raises():
    e = S.explicit([1.0], evaluator=lambda k: 1.0 / k)
    with pytest.raises(UndecidableError):
        e.liminf_log_ratio()
    with pytest.raises(UndecidableError):
        e.limit()


@pytest.mark.parametrize("method, message", [
    ("liminf_log_ratio", "liminf ln(1/s_k)/ln k undeclared for explicit sequence"),
    ("limit", "limit undeclared for explicit sequence"),
    ("liminf_over_log", "liminf s_k/ln k undecidable for explicit sequence"),
    ("liminf_log_over_log", "liminf ln(s_k)/ln k undecidable for explicit sequence"),
])
def test_each_undecided_asymptotic_names_itself(method, message):
    e = S.explicit([1.0], evaluator=lambda k: 1.0 / k)
    with pytest.raises(UndecidableError) as info:
        getattr(e, method)()
    assert str(info.value) == message


def test_log_growth_beyond_the_double_range_is_infinite():
    s = S.log_growth(1e308)
    assert s.value(5) == math.ceil(1e308 * math.log(6))  # finite up to k = 5
    assert s.value(6) == INF  # 1e308 * ln 7 overflows
    assert s.value(10**6) == INF


def test_index_domain():
    with pytest.raises(InvalidInputError):
        S.constant(1.0).value(0)


def test_monotonicity_validation():
    validate_sequence(S.explicit([1, 1, 2, 5]), "r", direction="nondecreasing",
                      positive=False, integer=True)
    with pytest.raises(InvalidInputError):
        validate_sequence(S.explicit([1.0, 0.5, 0.7]), "g", direction="nonincreasing")
    with pytest.raises(InvalidInputError):
        validate_sequence(S.power(1.0, -1.0), "r", direction="nondecreasing")
    with pytest.raises(InvalidInputError):
        validate_sequence(S.explicit([1.0, 0.5]), "r", positive=False, integer=True)
    with pytest.raises(InvalidInputError):
        validate_sequence(S.constant(-1.0), "a", positive=True)


NONINCREASING_G = dict(direction="nonincreasing", positive=True, max_value=1.0)
NONDECREASING_R = dict(direction="nondecreasing", positive=False, integer=True)


@pytest.mark.parametrize("seq, checks, match", [
    (S.explicit([1, 2], limit=-5.0), NONDECREASING_R, "nonnegative"),
    (S.explicit([0.5], limit=2.0), NONINCREASING_G, "<= 1.0"),
    (S.explicit([0.5], limit=INF), NONINCREASING_G, "<= 1.0"),
    (S.explicit([1.0, 0.25], limit=0.5), NONINCREASING_G, "after the value 0.25"),
    (S.explicit([1.0, 0.5], limit=INF), dict(direction="nonincreasing"), "after the value 0.5"),
    (S.explicit([1, 2, 3], limit=2.0), NONDECREASING_R, "after the value 3.0"),
    (S.explicit([], evaluator=lambda k: float(k), limit=0.0), NONDECREASING_R, "after"),
    (S.explicit([1.0], limit=float("nan")), {}, "nonnegative"),
])
def test_declared_limit_is_checked(seq, checks, match):
    with pytest.raises(InvalidInputError, match=match):
        validate_sequence(seq, "s", **checks)


def test_declared_limit_on_the_right_side_passes():
    validate_sequence(S.explicit([1.0], evaluator=lambda k: 1.0 / k, limit=0.0), "g",
                      **NONINCREASING_G)
    validate_sequence(S.explicit([1.0, 0.25], limit=0.25), "g", **NONINCREASING_G)
    validate_sequence(S.explicit([1], evaluator=lambda k: float(k), limit=INF), "r",
                      **NONDECREASING_R)
    validate_sequence(S.explicit([1, 2], limit=2.0), "r", **NONDECREASING_R)
    # no direction to respect: a growing b may tend to +oo
    validate_sequence(S.explicit([1.0, 0.5], evaluator=lambda k: float(k), limit=INF), "b")


@pytest.mark.parametrize("seq", [
    S.explicit([1.0, 0.25], limit=0.0),
    S.explicit([1, 2], limit=INF),
    S.explicit([1.0, 0.5], limit=INF),
    S.explicit([1.0, 0.5], liminf_log_ratio=2.0),
    S.explicit([1.0, 0.5], liminf_log_ratio=INF),
    S.explicit([1.0, 0.0], liminf_log_ratio=0.0),
])
def test_declarations_must_match_an_eventually_constant_sequence(seq):
    # without an evaluator the values stay at the last one, so its limit and
    # liminf_log_ratio are decided; a declaration may not override them
    with pytest.raises(InvalidInputError, match="eventually constant"):
        validate_sequence(seq, "s", positive=False)


def test_matching_declarations_of_an_eventually_constant_sequence_pass():
    seq = S.explicit([1.0, 0.5], liminf_log_ratio=0.0, limit=0.5)
    validate_sequence(seq, "g", **NONINCREASING_G)
    assert (seq.liminf_log_ratio(), seq.limit()) == (0.0, 0.5)
    validate_sequence(S.explicit([1.0, 0.0], liminf_log_ratio=INF, limit=0.0), "s",
                      direction="nonincreasing", positive=False)


@pytest.mark.parametrize("seq, checks", [
    (S.explicit((), evaluator=lambda k: float(k), limit=INF), dict(direction="nonincreasing")),
    (S.explicit((), evaluator=lambda k: float(k)), NONINCREASING_G),
    (S.explicit((), evaluator=lambda k: 0.5 if k < 5000 else 0.75), NONINCREASING_G),
    (S.explicit([1.0], evaluator=lambda k: 1.0 / k if k < 9999 else -1.0), {}),
    (S.explicit((), evaluator=lambda k: 0.5 if k < 3 else 0.0), NONINCREASING_G),
])
def test_evaluator_is_checked_on_the_whole_window(seq, checks):
    with pytest.raises(InvalidInputError):
        validate_sequence(seq, "s", **checks)


def test_positive_sequence_may_underflow_to_zero():
    # (2 pi)**(-2k) is subnormal from k = 188 and 0.0 from k = 203
    r = S.power(1.0, 1.0)
    g = spectra.korobov_exp_weights(r)
    assert g.value(202) > 0.0 == g.value(203)
    spec = spectra.korobov(r, g)
    assert spec.factor(203).eigenvalue(2) == 0.0


def test_advisory_check_warns_only_on_disagreement():
    shrinking = S.explicit([1.0], evaluator=lambda k: 2.0 / k**2,
                           liminf_log_ratio=2.0, limit=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_sequence(shrinking, "g", direction="nonincreasing")
    wrong = S.explicit([1.0], evaluator=lambda k: 1.0 / k**2,
                       liminf_log_ratio=5.0, limit=0.0)
    with pytest.warns(UserWarning, match="declared value is authoritative"):
        validate_sequence(wrong, "g", direction="nonincreasing")
