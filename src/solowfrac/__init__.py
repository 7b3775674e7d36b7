"""Solver library for the classical and Caputo-fractional Solow-Swan
capital-accumulation equation: truncated decomposition series, independent
numerical oracles, equilibrium analysis and parameter-sweep grids.

Pure Python with no runtime dependency.  The exports load their submodule
on first access (PEP 562), so a series solve never imports transforms.
"""

__version__ = "0.1.0"

# Submodule -> the names it exports, in `__all__` order.
_MODULE_EXPORTS = {
    "model": ("ModelParams", "REFERENCE_PARAMS"),
    "special": ("ln_gamma",),
    "series": ("SeriesSolution", "build_series", "eval_series"),
    "oracles": ("exact_classical_value", "solve_abm_fractional"),
    "equilibrium": ("EquilibriumReport", "find_equilibria"),
    "transforms": ("mittag_leffler", "sumudu_numeric", "sumudu_monomial",
                   "verify_ml_identities", "verify_derivative_rule", "verify_convolution"),
    "sweep": ("SweepConfig", "SweepGrid", "PRESETS", "run_solve", "run_sweep"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a fromlist returns the submodule itself; no importlib to load
    value = getattr(__import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name]), name)
    globals()[name] = value
    return value
