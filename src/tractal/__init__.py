"""Worst-case information complexity and tractability for non-homogeneous
tensor-product approximation problems, driven by univariate eigenvalue
spectra.

The names below are loaded on first use (PEP 562), so ``import tractal``
loads no submodule, and a command loads only the modules it runs: counting
never loads :mod:`tractal.tractability`.  ``products``, ``spectra`` and
``complexity`` give the names of the code no count runs the same way
(:func:`_lazy`), so a counting command neither loads nor compiles it.
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
__all__ = [name for names in _EXPORTS.values() for name in names]


def _lazy(namespace, exports):
    """A PEP 562 ``__getattr__`` for the module whose globals are namespace.

    ``exports`` maps a submodule to names it defines: each is imported from
    ``tractal.<submodule>`` on first use and cached in namespace, so later
    reads are plain lookups and find the same object.
    """
    module_of = {name: module for module, names in exports.items() for name in names}
    owner = namespace["__name__"]

    def __getattr__(name):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        return value

    return __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})
