"""Bubble profiles, moment integrals, and blow-up diagnostics for a
singular-potential critical elliptic model on radial geometry."""

from .bubble import (RadialGrid, RadialProfile, default_grid, eval_profiles,
                     pde_residual)
from .energy import (FitReport, RadialModel, fit_expansion, j_at_bubble,
                     predicted_coeffs, remainder_alpha, remainder_norm_scaled)
from .errors import DomainError, NumericalError
from .geometry import (CurvatureData, LgBreakdown, PotentialJet, assemble_w,
                       curvature_preset, density_coeffs, kns, lg_total)
from .linearized import (ModeSolution, WDecomposition, hat_c,
                         kernel_diagnostics, nonlocal_term)
from .moments import (IdentityReport, bubble_moment, identity_report,
                      moment_quadrature)
from .params import (HSParams, derive_constants, sphere_area,
                     yamabe_consistency)
from .quadrature import RadialIntegrand, integrate_radial
from .reduction import (CriticalPoint, FamilyLadder, ReducedFunctional,
                        Verdict, critical_t, family_theorem2,
                        predicted_delta, verdict)

__all__ = [
    "HSParams", "derive_constants", "yamabe_consistency",
    "sphere_area",
    "DomainError", "NumericalError",
    "RadialIntegrand", "integrate_radial",
    "RadialGrid", "RadialProfile", "default_grid", "eval_profiles",
    "pde_residual",
    "IdentityReport", "bubble_moment", "moment_quadrature",
    "identity_report",
    "WDecomposition", "ModeSolution", "hat_c", "nonlocal_term",
    "kernel_diagnostics",
    "CurvatureData", "PotentialJet", "LgBreakdown", "curvature_preset",
    "density_coeffs", "kns", "assemble_w", "lg_total",
    "RadialModel", "FitReport", "j_at_bubble", "predicted_coeffs",
    "fit_expansion", "remainder_norm_scaled", "remainder_alpha",
    "ReducedFunctional", "CriticalPoint", "critical_t", "predicted_delta",
    "FamilyLadder", "family_theorem2", "Verdict", "verdict",
]
