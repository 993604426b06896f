"""Worst-case information complexity and tractability for non-homogeneous
tensor-product approximation problems, driven by univariate eigenvalue
spectra."""

from .sequences import SequenceDescriptor
from .spectra import (
    ABS,
    NOR,
    FactorSpectrum,
    Family,
    FamilySpec,
    TailModel,
    analytic_korobov,
    custom_tabulated,
    euler,
    factor_eigenvalue,
    gaussian,
    gaussian_omega,
    korobov,
    korobov_exp_weights,
    second_ratio,
    second_ratio_limits,
    tail_sum_H,
    tau_zero,
    wiener,
)
from .products import (
    CountResult,
    ProductProblem,
    brute_force_oracle,
    count_products_above,
    log_trace_sum,
    product_eigenvalues_top,
    trace_sum,
)
from .complexity import (
    ComplexityQuery,
    ComplexityResult,
    info_complexity,
    lemma_bound,
    minimal_error,
    pt_functional,
    qpt_functional,
)
from .tractability import (
    TractabilityReport,
    classify,
    euler_abs_spt_exponent,
    g_function,
    g_root,
    korobov_exp_weight_spt_exponent,
    qpt_exponent,
    riemann_zeta,
    spt_exponent,
)
from .xreal import Interval, two_over

__version__ = "0.1.0"
