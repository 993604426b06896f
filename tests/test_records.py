"""The package's value records are immutable named tuples: equal fields give
equal records with equal hashes, no field can be assigned, and the four
validating records raise the same errors, with the same messages, as
before."""
import math

import numpy as np
import pytest

from tractal import complexity, nystrom, products, spectra, tractability, verify
from tractal.errors import InvalidInputError
from tractal.sequences import SequenceDescriptor as S
from tractal.xreal import Interval

ARRAY = np.array([1.0, 0.5])


def _measure():
    return 0.0


# (make, field, repr of make()) for each record; make builds a fresh record
RECORDS = {
    "CountResult": (lambda: products.CountResult(5, False, 10), "count",
                    "CountResult(count=5, saturated=False, cap=10)"),
    "ComplexityQuery": (lambda: complexity.ComplexityQuery(0.5, 3), "criterion",
                        "ComplexityQuery(epsilon=0.5, d=3, criterion='nor')"),
    "ComplexityResult": (lambda: complexity.ComplexityResult(n=4, threshold=0.25, saturated=False),
                         "n", "ComplexityResult(n=4, threshold=0.25, saturated=False)"),
    "Interval": (lambda: Interval(1.0, math.inf), "hi", "Interval(lo=1.0, hi=inf)"),
    "TailModel": (lambda: spectra.TailModel("geometric", ratio=0.5), "ratio",
                  "TailModel(kind='geometric', ratio=0.5, exponent=0.0)"),
    "SequenceDescriptor": (lambda: S.power(2.0, -1.0), "alpha",
                           "SequenceDescriptor(kind='power', c=2.0, alpha=-1.0, theta=1.0, "
                           "values=(), evaluator=None, declared_liminf_log_ratio=None, "
                           "declared_limit=None)"),
    "FamilySpec": (lambda: spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)), "g", None),
    "TractabilityReport": (lambda: tractability.TractabilityReport(
        "nor", True, True, Interval(1.0, 1.0), None, 2.0, math.inf, Interval(0.0, 0.5),
        {"tau0": "family closed form"}), "spt", None),
    "KernelSpec": (lambda: nystrom.euler_iterated(1), "r",
                   "KernelSpec(kind='euler_iterated', r=1, alpha=0.0, beta=0.0, "
                   "series_cutoff=0, gamma_sq=0.0)"),
    "SpectrumEstimate": (lambda: nystrom.SpectrumEstimate(ARRAY, 40, ARRAY), "node_count", None),
    "DeviationReport": (lambda: nystrom.DeviationReport(ARRAY, ARRAY, ARRAY, 0.0, 40),
                        "max_deviation", None),
    "Check": (lambda: verify.Check("g-at-2", "g-function", 7, 1e-10, _measure), "threshold",
              "Check(name='g-at-2', suite='g-function', criterion=7, threshold=1e-10, "
              f"measure={_measure!r})"),
}
# records holding a dict or arrays have no hash, as before
UNHASHABLE = {"TractabilityReport", "SpectrumEstimate", "DeviationReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_record_value_semantics(name):
    make, field, text = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    if text is not None:
        assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_records_with_other_fields_differ():
    assert products.CountResult(5, False, 10) != products.CountResult(6, False, 10)
    assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
    assert S.constant(1.0) != S.constant(2.0)
    assert spectra.euler(S.constant(0)) != spectra.wiener(S.constant(0))


def test_report_provenance_default_is_read_only():
    make = lambda: tractability.TractabilityReport(  # noqa: E731
        "nor", None, None, None, None, None, None, Interval(0.0, math.inf))
    a, b = make(), make()
    assert a.to_json_dict()["provenance"] == {} == dict(b.provenance)
    with pytest.raises(TypeError):
        a.provenance["spt"] = "written"


def test_factor_cache_keys_on_equal_specs():
    a = spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))
    b = spectra.korobov(S.constant(1.0), S.power(1.0, -2.0))
    assert a.factor(3) is b.factor(3)
    fn = lambda k: 0.5 ** k  # noqa: E731
    # evaluators compare by identity, so equal-looking descriptors stay apart
    assert S.explicit([1.0], evaluator=fn) != S.explicit([1.0], evaluator=lambda k: 0.5 ** k)


@pytest.mark.parametrize("make, error, message", [
    (lambda: products.CountResult(3, True, 10), ValueError, "saturated counts must equal the cap"),
    (lambda: products.CountResult(count=3, saturated=True, cap=10), ValueError,
     "saturated counts must equal the cap"),
    (lambda: complexity.ComplexityQuery(1.0, 1), InvalidInputError,
     "epsilon must lie in (0,1), got 1.0"),
    (lambda: complexity.ComplexityQuery(epsilon=0.5, d=0), InvalidInputError,
     "d must be >= 1, got 0"),
    (lambda: complexity.ComplexityQuery(0.5, 1, "rel"), InvalidInputError,
     "criterion must be 'abs' or 'nor', got 'rel'"),
    (lambda: Interval(2.0, 1.0), ValueError, "invalid interval [2.0, 1.0]"),
    (lambda: Interval(lo=math.nan, hi=1.0), ValueError, "invalid interval [nan, 1.0]"),
    (lambda: spectra.TailModel("geometric", ratio=1.0), InvalidInputError,
     "geometric tail ratio must be in (0,1), got 1.0"),
    (lambda: spectra.TailModel("power", exponent=math.inf), InvalidInputError,
     "tail: power exponent must be positive and finite, got inf"),
    (lambda: spectra.TailModel(kind="linear"), InvalidInputError,
     "unknown tail model kind 'linear'"),
])
def test_validating_records_raise_as_before(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_validating_records_keep_defaults_and_keywords():
    assert products.CountResult(cap=7, count=7, saturated=True).count == 7
    assert complexity.ComplexityQuery(0.25, 2).criterion == spectra.NOR
    assert spectra.TailModel("power", exponent=2.0) == spectra.TailModel("power", 0.0, 2.0)
    assert Interval.point(3.0) == Interval(3.0, 3.0) and 3.0 in Interval.point(3.0)
