"""Every refusal of an invalid input: ``InvalidInputError`` from the library,
exit 3 from the command line, each with a message that names the fault.
NaN and infinite numbers are refused where they are read, before they can
reach an eigen-solve, ``math.ceil`` or ``int`` and fail there without
naming the fault."""
import math

import pytest

from tractal import cli, complexity, nystrom, products, spectra, tractability
from tractal.errors import InvalidInputError
from tractal.sequences import SequenceDescriptor as S

NAN, INF = math.nan, math.inf
GAUSS = spectra.gaussian(S.constant(1.0))


def _problem():
    return products.ProductProblem.from_family(GAUSS, 3)


def _classify_directory(tmp_path):
    return cli.main(["classify", "--family", str(tmp_path)])


REFUSALS = [
    pytest.param(_classify_directory, "cannot read family file", id="family-is-a-directory"),
    pytest.param(lambda _: products.ProductProblem([]), "needs at least one factor",
                 id="problem-without-factors"),
    pytest.param(lambda _: spectra.custom_tabulated([[1.0, 0.0]]),
                 "leading two eigenvalues must be positive", id="custom-zero-second"),
    pytest.param(lambda _: spectra.custom_tabulated([[1.0, 0.5, 0.75]]),
                 "table 1 is not nonincreasing", id="custom-rising"),
    pytest.param(lambda _: spectra.custom_tabulated([]), "needs at least one eigenvalue table",
                 id="custom-no-tables"),
    pytest.param(lambda _: S.explicit([]), "needs values or an evaluator",
                 id="explicit-empty"),
    pytest.param(lambda _: spectra.korobov(S.constant(1.0), S.log_growth(1.0)),
                 "g must be nonincreasing", id="korobov-growing-g"),
    pytest.param(lambda _: spectra.euler(S.constant(-1)), "r must be nonnegative",
                 id="euler-negative-r"),
    pytest.param(lambda _: spectra.FactorSpectrum(lambda j: -1.0),
                 "leading eigenvalue must be positive", id="factor-negative-lead"),
    pytest.param(lambda _: products.box_products(_problem(), 0), "J must be >= 1",
                 id="box-of-zero"),
    pytest.param(lambda _: tractability.classify(GAUSS, "xyz"), "criterion must be",
                 id="classify-criterion"),
    pytest.param(lambda _: tractability.classify(GAUSS).st_weakly_tractable(NAN, 0.5),
                 "s and t must be positive", id="st-weak-nan"),
    pytest.param(lambda _: complexity.lemma_bound(_problem(), 1.5, 1.0),
                 "epsilon must lie in (0,1)", id="lemma-epsilon"),
    pytest.param(lambda _: complexity.pt_functional(GAUSS, 1.0, 1.0, 0), "D must be >= 1",
                 id="pt-no-dimension"),
    pytest.param(lambda _: complexity.qpt_functional(GAUSS, 1.0, 0), "D must be >= 1",
                 id="qpt-no-dimension"),
    pytest.param(lambda _: complexity.qpt_functional(GAUSS, NAN, 0), "D must be >= 1",
                 id="qpt-no-dimension-first"),
    pytest.param(lambda _: nystrom.wiener_integral(-1), "r must be an integer >= 0",
                 id="wiener-negative-r"),
    pytest.param(lambda _: nystrom.korobov_series(1, 1, 0),
                 "series cutoff must be an integer >= 1", id="korobov-zero-cutoff"),
    pytest.param(lambda _: nystrom.quadrature_rule(nystrom.UNIT_INTERVAL, 0),
                 "need at least 1 node", id="quadrature-no-nodes"),
    pytest.param(lambda _: nystrom.quadrature_rule("sphere", 4), "unknown domain",
                 id="quadrature-domain"),
    # NaN and infinite trace exponents and parameters
    *[pytest.param(call, "tau must be positive and finite", id=f"{name}-tau-{tau}")
      for tau in (NAN, INF, 0.0) for name, call in (
          ("tail", lambda _, tau=tau: spectra.tail_sum_H(GAUSS, 1, tau)),
          ("trace", lambda _, tau=tau: products.trace_sum(_problem(), tau)),
          ("lemma", lambda _, tau=tau: complexity.lemma_bound(_problem(), 0.1, tau)),
          ("pt", lambda _, tau=tau: complexity.pt_functional(GAUSS, tau, 1.0, 3)),
          ("qpt", lambda _, tau=tau: complexity.qpt_functional(GAUSS, tau, 3)))],
    pytest.param(lambda _: complexity.pt_functional(GAUSS, 1.0, NAN, 3), "q must be finite",
                 id="pt-q-nan"),
    pytest.param(lambda _: nystrom.euler_iterated(NAN), "r must be an integer >= 0",
                 id="euler-kernel-r-nan"),
    pytest.param(lambda _: nystrom.wiener_integral(INF), "r must be an integer >= 0",
                 id="wiener-kernel-r-inf"),
    pytest.param(lambda _: nystrom.korobov_series(1, 1, NAN),
                 "series cutoff must be an integer >= 1", id="korobov-cutoff-nan"),
    pytest.param(lambda _: nystrom.korobov_series(1, 1, 2.5),
                 "series cutoff must be an integer >= 1", id="korobov-cutoff-fraction"),
    pytest.param(lambda _: nystrom.korobov_series(NAN, 1), "alpha must be finite",
                 id="korobov-alpha-nan"),
    pytest.param(lambda _: nystrom.gaussian_weighted(NAN), "gamma^2 must be positive and finite",
                 id="gaussian-kernel-nan"),
]


@pytest.mark.parametrize("call, fragment", REFUSALS)
def test_invalid_input_is_refused_by_name(tmp_path, capsys, call, fragment):
    try:
        code = call(tmp_path)
    except InvalidInputError as exc:
        assert fragment in str(exc)
    else:
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: ") and fragment in err
