"""Laplacian coflow of coclosed G2-structures on warped products N^6 x L^1.

Subpackages:
  profiles  scalar functions of r; derivatives are derivative() trees
            (symbolic, or stencil products on grids) and jets their values
  forms     calculus on the SU(3)-invariant form basis
  torsion   torsion forms and coclosedness diagnostics
  coflow    method-of-lines integrator for the evolution systems
  soliton   closed-form, special-family, and ODE-reduced soliton analysis
  verify    seeded randomized identity suite
  cli       command-line entry point and run manifests
"""

from .errors import G2CoflowError
from .forms import (
    G2Profile,
    InvariantForm,
    StructureKind,
    build_phi,
    build_psi,
    codifferential,
    d,
    hodge_laplacian_psi,
    interior_r,
    l2_inner,
    pointwise_inner,
    star7,
    wedge,
)
from .profiles import (
    Circle,
    Interval,
    Jet,
    Profile,
    Sampled,
    antiderivative,
    arctan,
    constant,
    coordinate,
    cos,
    exp,
    jet_at,
    sin,
)
from .soliton import (
    Family,
    ResidualReport,
    SolitonCandidate,
    compact_identity_check,
    cy_closed_form,
    eigenform_check,
    form_residual,
    integrate_reduced,
    nk_special,
    recover_theta_k,
    reduced_rhs,
    residuals_cy,
    residuals_nk,
    shoot,
)
from .torsion import TorsionReport, tau01_closed, tau01_first_principles, tau2_tau3

__version__ = "0.1.0"

__all__ = [
    "G2CoflowError", "G2Profile", "InvariantForm", "StructureKind",
    "build_phi", "build_psi", "codifferential", "d", "hodge_laplacian_psi", "interior_r",
    "l2_inner", "pointwise_inner", "star7", "wedge",
    "Circle", "Interval", "Jet", "Profile", "Sampled", "antiderivative",
    "arctan", "constant", "coordinate", "cos", "exp", "jet_at", "sin",
    "Family", "ResidualReport", "SolitonCandidate", "compact_identity_check",
    "cy_closed_form", "eigenform_check", "form_residual", "integrate_reduced",
    "nk_special", "recover_theta_k", "reduced_rhs", "residuals_cy",
    "residuals_nk", "shoot",
    "TorsionReport", "tau01_closed", "tau01_first_principles", "tau2_tau3",
    "__version__",
]
