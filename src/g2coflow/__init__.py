"""Laplacian coflow of coclosed G2-structures on warped products N^6 x L^1.

Import each name from its module (`from g2coflow import forms as fm,
profiles as pf`); the package itself defines only `__version__`.

Modules:
  profiles  scalar functions of r; derivatives are derivative() trees
            (symbolic, or stencil products on grids) and jets their values
  forms     calculus on the SU(3)-invariant form basis
  torsion   torsion forms and coclosedness diagnostics
  coflow    method-of-lines integrator for the evolution systems
  soliton   closed-form, special-family, and ODE-reduced soliton analysis
  verify    seeded randomized identity suite
  cli       command-line entry point and run manifests
  errors    the package's exception types
"""

__version__ = "0.1.0"
