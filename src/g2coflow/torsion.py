"""Torsion forms of the warped G2-structures, two ways.

The intrinsic torsion decomposes the derivatives of phi and psi as

    d phi = tau0 psi + 3 tau1 ^ phi + *tau3,
    d psi = 4 tau1 ^ psi + *tau2,

and for this ansatz tau2 vanishes identically for any (h, theta, G).
tau0 and tau1 are computed both from first principles (star/wedge recovery
formulas, entirely through the form algebra) and from their closed forms;
their agreement is one of the package's standing cross-checks. tau3 is only
produced numerically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import profiles as pf
from .forms import InvariantForm, StructureKind


@dataclass(frozen=True)
class TorsionReport:
    """Numeric torsion summary over a fixed sample set.

    `tau0` and `tau1_coeff` are the first-principles tau0 and dr-coefficient
    of tau1 at the sample points `rs`; `tau2_norm` and `tau3_sup` are the
    largest coefficient magnitudes of tau2 and tau3 there, and
    `coclosed_residual` is sup |tau1| = sup |tau1_coeff| / G.
    """

    rs: np.ndarray
    tau0: np.ndarray
    tau1_coeff: np.ndarray
    tau2_norm: float
    tau3_sup: float
    coclosed_residual: float
    samples: int


def tau01_first_principles(g):
    """tau0 = (1/7) *(phi ^ d phi), tau1 = (1/12) *(phi ^ *d phi).

    Returned as (scalar profile, coefficient of dr); computed entirely with
    wedge/star operations, no closed forms.
    """
    phi = fm.build_phi(g)
    dphi = fm.d(phi, g.structure)
    tau0_form = fm.star7(fm.wedge(phi, dphi), g)
    tau0 = pf.mul(pf.constant(1.0 / 7.0), tau0_form.coeff("one"))
    tau1_form = fm.star7(fm.wedge(phi, fm.star7(dphi, g)), g)
    tau1 = pf.mul(pf.constant(1.0 / 12.0), tau1_form.coeff("dr"))
    return tau0, tau1


def tau01_closed(g):
    """Closed forms: CY tau0 = 12 theta'/(7G), tau1 = (h'/h) dr;
    NK tau0 = (12/7)(theta'/G + 2 sin 3theta / h),
       tau1 = ((h' - G cos 3theta)/h) dr."""
    thp = g.theta.derivative()
    hp = g.h.derivative()
    if g.structure is StructureKind.CY:
        tau0 = pf.mul(pf.constant(12.0 / 7.0), pf.div(thp, g.G))
        tau1 = pf.div(hp, g.h)
        return tau0, tau1
    t3 = pf.mul(pf.constant(3.0), g.theta)
    tau0 = pf.mul(
        pf.constant(12.0 / 7.0),
        pf.add(pf.div(thp, g.G),
               pf.div(pf.mul(pf.constant(2.0), pf.sin(t3)), g.h)),
    )
    tau1 = pf.div(pf.sub(hp, pf.mul(g.G, pf.cos(t3))), g.h)
    return tau0, tau1


def tau2_tau3(g):
    """Solve the torsion decomposition for tau2 and tau3.

    tau2 = *(d psi) - 4 *(tau1 ^ psi);  tau3 = *(d phi) - tau0 phi - 3 *(tau1 ^ phi).
    tau2 must vanish identically for this ansatz.
    """
    phi, psi = fm.build_phi(g), fm.build_psi(g)
    tau0, tau1c = tau01_closed(g)
    tau1 = InvariantForm(1, {"dr": tau1c})
    tau2 = fm.star7(fm.d(psi, g.structure), g) - fm.star7(fm.wedge(tau1, psi), g).scale(4.0)
    tau3 = (
        fm.star7(fm.d(phi, g.structure), g)
        - phi.scale(tau0)
        - fm.star7(fm.wedge(tau1, phi), g).scale(3.0)
    )
    return tau2, tau3


@functools.cache
def _report_template(structure):
    """(number of tau2 coefficients, terms): the coefficients of tau2 and
    tau3, the first-principles tau0 and tau1, and G, on the leaves h, theta
    and G of one structure kind; interned."""
    g = fm.G2Profile.leaves(structure)
    tau2, tau3 = tau2_tau3(g)
    return len(tau2.coeffs), pf.intern([*tau2.coeffs.values(), *tau3.coeffs.values(),
                                        *tau01_first_principles(g), g.G])


def torsion_report(g, samples=200):
    """TorsionReport over `samples` interior points of the domain, from one
    `profiles.evaluate` call of the structure kind's template for the
    coefficients of tau2 and tau3, tau0, tau1 and G."""
    rs = g.sample_points(samples)
    n2, terms = _report_template(g.structure)
    *coeffs, tau0, tau1, G = pf.evaluate(rs, *terms,
                                         inputs={"h": g.h, "theta": g.theta, "G": g.G})
    sups = [float(np.max(np.abs(v))) for v in coeffs]
    return TorsionReport(
        rs=rs,
        tau0=tau0,
        tau1_coeff=tau1,
        tau2_norm=max(sups[:n2], default=0.0),
        tau3_sup=max(sups[n2:], default=0.0),
        # |tau1| = |coefficient| * |dr| = |coefficient| / G pointwise
        coclosed_residual=float(np.max(np.abs(tau1) / np.abs(G))),
        samples=samples,
    )
