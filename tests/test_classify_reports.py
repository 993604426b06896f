"""Whole classify reports, pinned as the exact text the CLI prints.

Each case covers a different way a limit is obtained: closed-form and
declared korobov weights, the family maps of euler, wiener, gaussian and
analytic korobov, custom tables with and without declared fields, and an
evaluator that declares nothing.  Provenance strings and key order are part
of the output, so a change to either shows here.
"""
import json
import warnings

import pytest

from tractal import spectra
from tractal.sequences import SequenceDescriptor as S
from tractal.tractability import classify

PINNED = [
    (spectra.korobov(S.constant(1.0), S.power(1.0, -2.0)),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 1.0,
    "hi": 1.0
  },
  "t_star": {
    "lo": 1.0,
    "hi": 1.0
  },
  "a_star": 2.0,
  "b": "inf",
  "tau0": {
    "lo": 0.5,
    "hi": 0.5
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "closed-form",
    "b": "closed-form",
    "spt": "second-ratio decay-rate limit is positive",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "exponent formula over the tau0 interval",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.korobov(S.constant(1.0), S.explicit([1.0, 0.5, 0.25])),
     "nor", """\
{
  "criterion": "nor",
  "spt": false,
  "pt": false,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": null,
  "t_star": {
    "lo": 1.4426950408889634,
    "hi": 1.4426950408889634
  },
  "a_star": 0.0,
  "b": 1.3862943611198906,
  "tau0": {
    "lo": 0.5,
    "hi": 0.5
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is zero",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "undefined: the problem is not tractable at this level",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.korobov(S.constant(2.0), S.constant(1.0)),
     "abs", """\
{
  "criterion": "abs",
  "spt": false,
  "pt": false,
  "qpt": false,
  "uwt": false,
  "wt": false,
  "curse": true,
  "p_star": null,
  "t_star": null,
  "a_star": 0.0,
  "b": -0.0,
  "tau0": {
    "lo": 0.25,
    "hi": 0.25
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "closed-form",
    "b": "closed-form",
    "spt": "second-ratio decay-rate limit is zero",
    "qpt": "second-ratio log limit is zero",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "undefined: the problem is not tractable at this level",
    "t_star": "undefined: the problem is not tractable at this level"
  }
}"""),
    (spectra.korobov(S.log_growth(1.0),
                     spectra.korobov_exp_weights(S.log_growth(1.0))),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 1.0,
    "hi": 1.0
  },
  "t_star": {
    "lo": 1.0,
    "hi": 1.0
  },
  "a_star": 3.6757541328186907,
  "b": "inf",
  "tau0": {
    "lo": 0.5,
    "hi": 0.5
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is positive",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "exponent formula over the tau0 interval",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.korobov(S.constant(1.0), S.explicit([0.5], evaluator=lambda k: 0.5 / k)),
     "nor", """\
{
  "criterion": "nor",
  "spt": null,
  "pt": null,
  "qpt": null,
  "uwt": null,
  "wt": null,
  "curse": null,
  "p_star": null,
  "t_star": null,
  "a_star": null,
  "b": null,
  "tau0": {
    "lo": 0.5,
    "hi": 0.5
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "undecidable from finite data",
    "b": "undecidable from finite data",
    "spt": "open: decay-rate limit undeclared",
    "qpt": "open: second-ratio log limit undeclared",
    "p_star": "open: the deciding limit is undeclared",
    "t_star": "open: the deciding limit is undeclared"
  }
}"""),
    (spectra.euler(S.constant(1)),
     "nor", """\
{
  "criterion": "nor",
  "spt": false,
  "pt": false,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": null,
  "t_star": {
    "lo": 0.5,
    "hi": 0.5
  },
  "a_star": 0.0,
  "b": 4.394449154672439,
  "tau0": {
    "lo": 0.25,
    "hi": 0.25
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is zero",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "undefined: the problem is not tractable at this level",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.euler(S.log_growth(1.0)),
     "abs", """\
{
  "criterion": "abs",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 0.5,
    "hi": 0.5
  },
  "t_star": null,
  "a_star": 2.1972245773362196,
  "b": "inf",
  "tau0": {
    "lo": 0.25,
    "hi": 0.25
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "absolute criterion: holds for every admissible smoothness sequence",
    "qpt": "implied by strong polynomial tractability",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "root of the eigenvalue power series combined with the smoothness limits",
    "t_star": "open: no absolute-criterion QPT exponent is available"
  }
}"""),
    (spectra.wiener(S.power(1.0, 1.0)),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 1.0,
    "hi": 1.2
  },
  "t_star": null,
  "a_star": 2.0,
  "b": null,
  "tau0": {
    "lo": 0.0,
    "hi": 0.6
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared (decay envelope of the second ratios)",
    "b": "open: second-ratio constants are not determined",
    "spt": "envelope decay-rate limit is positive",
    "qpt": "implied by strong polynomial tractability",
    "p_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.wiener(S.constant(2)),
     "nor", """\
{
  "criterion": "nor",
  "spt": false,
  "pt": false,
  "qpt": null,
  "uwt": null,
  "wt": null,
  "curse": null,
  "p_star": null,
  "t_star": null,
  "a_star": 0.0,
  "b": null,
  "tau0": {
    "lo": 0.0,
    "hi": 0.6
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared (decay envelope of the second ratios)",
    "b": "open: second-ratio constants are not determined",
    "spt": "envelope decay-rate limit is zero",
    "qpt": "open: not determined for this family",
    "p_star": "undefined: the problem is not tractable at this level"
  }
}"""),
    (spectra.gaussian(S.constant(1.0)),
     "abs", """\
{
  "criterion": "abs",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 2.0,
    "hi": 2.0
  },
  "t_star": null,
  "a_star": 0.0,
  "b": 0.9624236501192069,
  "tau0": {
    "lo": 0.0,
    "hi": 0.0
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "absolute criterion: holds for all shape parameters",
    "qpt": "implied by strong polynomial tractability",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "absolute criterion: min(2, 2/decay rate)",
    "t_star": "open: no absolute-criterion QPT exponent is available"
  }
}"""),
    (spectra.gaussian(S.power(1.0, -2.0)),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 1.0,
    "hi": 1.0
  },
  "t_star": {
    "lo": 0.0,
    "hi": 0.0
  },
  "a_star": 2.0,
  "b": "inf",
  "tau0": {
    "lo": 0.0,
    "hi": 0.0
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is positive",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "exponent formula over the tau0 interval",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.analytic_korobov(0.5, S.power(1.0, 1.0), S.constant(1.0)),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 0.0,
    "hi": 0.0
  },
  "t_star": {
    "lo": 0.0,
    "hi": 0.0
  },
  "a_star": "inf",
  "b": "inf",
  "tau0": {
    "lo": 0.0,
    "hi": 0.0
  },
  "provenance": {
    "tau0": "family closed form",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is positive",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "exponent formula over the tau0 interval",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.custom_tabulated([[1.0, 0.5, 0.25], [1.0, 0.25]], tau0=0.5,
                              a_star=1.0, b_limit=1.0,
                              tail=spectra.TailModel("power", exponent=3.0)),
     "nor", """\
{
  "criterion": "nor",
  "spt": true,
  "pt": true,
  "qpt": true,
  "uwt": true,
  "wt": true,
  "curse": false,
  "p_star": {
    "lo": 2.0,
    "hi": 2.0
  },
  "t_star": {
    "lo": 2.0,
    "hi": 2.0
  },
  "a_star": 1.0,
  "b": 1.0,
  "tau0": {
    "lo": 0.5,
    "hi": 0.5
  },
  "provenance": {
    "tau0": "declared",
    "a_star": "declared",
    "b": "declared",
    "spt": "second-ratio decay-rate limit is positive",
    "qpt": "second-ratio log limit is positive",
    "curse": "holds exactly when the second ratios are identically one",
    "p_star": "exponent formula over the tau0 interval",
    "t_star": "exponent formula over the tau0 interval"
  }
}"""),
    (spectra.custom_tabulated([[1.0, 0.5], [1.0, 0.25]], tau0=0.0),
     "nor", """\
{
  "criterion": "nor",
  "spt": null,
  "pt": null,
  "qpt": null,
  "uwt": null,
  "wt": null,
  "curse": null,
  "p_star": null,
  "t_star": null,
  "a_star": null,
  "b": null,
  "tau0": {
    "lo": 0.0,
    "hi": 0.0
  },
  "provenance": {
    "tau0": "declared",
    "a_star": "undecidable from finite data",
    "b": "undecidable from finite data",
    "spt": "open: decay-rate limit undeclared",
    "qpt": "open: second-ratio log limit undeclared",
    "p_star": "open: the deciding limit is undeclared",
    "t_star": "open: the deciding limit is undeclared"
  }
}"""),
]


@pytest.mark.parametrize("spec, criterion, text", PINNED, ids=[
    f"{spec.family.value}-{criterion}-{i}" for i, (spec, criterion, _) in enumerate(PINNED)])
def test_classify_report_text(spec, criterion, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a custom table without a declared tau0 warns
        report = classify(spec, criterion)
    assert json.dumps(report.to_json_dict(), indent=2) == text
