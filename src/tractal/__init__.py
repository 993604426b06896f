"""Worst-case information complexity and tractability for non-homogeneous
tensor-product approximation problems, driven by univariate eigenvalue
spectra.

The names below are loaded on first use (PEP 562), so ``import tractal``
loads no submodule, and a command loads only the modules it runs: counting
never loads :mod:`tractal.tractability`.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "sequences": ("SequenceDescriptor",),
    "spectra": ("ABS", "NOR", "FactorSpectrum", "Family", "FamilySpec", "TailModel",
                "analytic_korobov", "custom_tabulated", "euler", "factor_eigenvalue",
                "gaussian", "gaussian_omega", "korobov", "korobov_exp_weights",
                "second_ratio", "second_ratio_limits", "tail_sum_H", "tau_zero", "wiener"),
    "products": ("CountResult", "ProductProblem", "brute_force_oracle", "count_products_above",
                 "log_trace_sum", "product_eigenvalues_top", "trace_sum"),
    "complexity": ("ComplexityQuery", "ComplexityResult", "info_complexity", "lemma_bound",
                   "minimal_error", "pt_functional", "qpt_functional"),
    "tractability": ("TractabilityReport", "classify", "euler_abs_spt_exponent",
                     "korobov_exp_weight_spt_exponent", "qpt_exponent", "spt_exponent"),
    "special": ("g_function", "g_root", "riemann_zeta"),
    "xreal": ("Interval", "two_over"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
