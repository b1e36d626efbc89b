"""Morse-theoretic solution counting for prescribed scalar curvature on spheres.

Exact blow-up index tables and multiplicity bounds from co-index parities, plus
a numerical lab for the variational side: analytic curvature candidates, bubble
energies, reduced gradient flows, and Morse indices (from exact chart
derivatives for one bubble on S^3, finite differences elsewhere).

Exports load on first access (PEP 562), so the exact side runs without
importing numpy.
"""
import importlib

#: defining module of every export
_EXPORTS = {
    "bubbles": (
        "Bubble", "BubbleSum", "FlowReport", "JEvaluation",
        "MorseIndexEstimate", "QuadratureNoiseWarning", "I_from_J", "canonical_bubble",
        "constant_one", "equilibrium_scale", "flow_to_critical", "functional_J",
        "functional_J_detailed", "norm_squared", "reduced_morse_index",
        "sobolev_constant", "weighted_power_integral",
    ),
    "indexcount": (
        "ConsistencyError", "H3Warning", "IndexTable", "LevelBound", "ParityConfig",
        "SolutionBoundReport", "admissible_epsilon", "all_parity_patterns",
        "classify_case", "euler_poincare_check", "index_K", "mu_closed_form",
        "mu_direct", "mu_recurrence", "solution_bounds",
    ),
    "kfunc": (
        "BumpTerm", "CriticalPoint", "H1ViolationError", "KFunction",
        "epsilon_membership", "eval_K", "euler_characteristic_diagnostic",
        "extract_K_infinity", "find_critical_points", "k_infinity_points", "k_range",
    ),
    "presets": ("available_presets", "load_preset"),
    "quadrature": ("QuadratureConvergenceError", "QuadratureScheme", "integrate_radial"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {"cli", "reports", "sphere", *_EXPORTS}

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
