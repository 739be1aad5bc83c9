"""Bubble profiles, moment integrals, and blow-up diagnostics for a
singular-potential critical elliptic model on radial geometry.

The package imports lazily (PEP 562): `import hsbubble` loads none of its
modules, and an exported name or a module name below loads its home module
on first access, so a caller pays only for the modules it uses.
"""

import importlib

# home module -> the names it exports
_EXPORTS = {
    "params": ("HSParams", "derive_constants", "yamabe_consistency",
               "sphere_area"),
    "errors": ("DomainError", "NumericalError"),
    "quadrature": ("RadialIntegrand", "integrate_radial"),
    "bubble": ("RadialGrid", "RadialProfile", "WDecomposition", "default_grid",
               "eval_profiles", "pde_residual"),
    "moments": ("IdentityReport", "bubble_moment", "moment_quadrature",
                "identity_report"),
    "linearized": ("ModeSolution", "hat_c", "nonlocal_term",
                   "kernel_diagnostics"),
    "geometry": ("CurvatureData", "PotentialJet", "LgBreakdown",
                 "curvature_preset", "density_coeffs", "kns", "assemble_w",
                 "lg_total"),
    "energy": ("RadialModel", "FitReport", "j_at_bubble", "predicted_coeffs",
               "fit_expansion", "remainder_norm_scaled", "remainder_alpha"),
    "reduction": ("ReducedFunctional", "CriticalPoint", "critical_t",
                  "predicted_delta", "FamilyLadder", "family_theorem2",
                  "Verdict", "verdict"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
