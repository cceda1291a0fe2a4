"""Soliton solutions of the Laplacian coflow: construction and verification.

Solitons satisfy -Delta_d psi = d(grad(k) _| psi) + lambda psi with the
radial gauge G = 1. The Calabi-Yau case closes exactly (steady solitons
only); the nearly Kahler case has four special families (cone, anti-cone,
cylinder, sine-cone) and a general reduction to a third-order polynomial
ODE for h, from which theta and k' are recovered algebraically.

Residuals are always reported two independent ways: coordinate equations
(residuals_cy / residuals_nk) and the full form-level equation
(form_residual), which share no code path.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from . import forms as fm
from . import profiles as pf
from .errors import (
    DivergentIntegral,
    InvalidParams,
    SignAmbiguity,
    SingularLocus,
    StepFailure,
    StructureMismatch,
)
from .forms import G2Profile, StructureKind
from .profiles import Circle, Interval


class Family(enum.Enum):
    CONE = "cone"
    ANTICONE = "anticone"
    CYLINDER = "cylinder"
    SINECONE = "sinecone"
    CY_CLOSED_FORM = "cy_closed_form"
    ODE_TRAJECTORY = "ode_trajectory"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SolitonCandidate:
    """(h, theta, k') with soliton constant lambda, in the G = 1 gauge."""

    h: pf.Profile
    theta: pf.Profile
    kprime: pf.Profile
    lam: float
    structure: StructureKind
    family: Family
    domain: object

    @property
    def kind(self):
        if self.lam > 0:
            return "expanding"
        return "steady" if self.lam == 0 else "shrinking"

    def g2_profile(self):
        return G2Profile(h=self.h, theta=self.theta,
                         G=pf.constant(1.0, self.domain),
                         structure=self.structure, domain=self.domain)

    def sample_points(self, n=200):
        return pf.sample_points(self.domain, (self.h, self.theta, self.kprime), n)


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm residuals per equation over a fixed sample set."""

    residuals: dict
    samples: int
    tolerance: float

    @property
    def passed(self):
        return self.worst < self.tolerance

    @property
    def worst(self):
        return max(self.residuals.values())

    def to_json(self):
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "samples": self.samples,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
        }


def _sup(p, rs):
    return float(np.max(np.abs(np.asarray(p.value(rs)))))


# ---------------------------------------------------------------------------
# Calabi-Yau solitons (all steady)
# ---------------------------------------------------------------------------

def cy_closed_form(b, c, domain=None):
    """The general CY soliton: theta = (2/3) arctan(c e^{br}),
    k' = b (1 - c^2 e^{2br}) / (1 + c^2 e^{2br}), h = G = 1, lambda = 0."""
    dom = domain or Interval(-2.0, 2.0)
    r = pf.coordinate(dom)
    ebr = pf.exp(b * r)
    theta = (2.0 / 3.0) * pf.arctan(c * ebr)
    e2 = pf.exp((2.0 * b) * r)
    kprime = b * (1.0 - c ** 2 * e2) / (1.0 + c ** 2 * e2)
    return SolitonCandidate(
        h=pf.constant(1.0, dom), theta=theta, kprime=kprime, lam=0.0,
        structure=StructureKind.CY, family=Family.CY_CLOSED_FORM, domain=dom,
    )


def residuals_cy(cand, samples=200, tolerance=1e-8):
    """Residuals of the integrated CY soliton system.

    The complex constant -b = (e^{3 i theta})' - e^{3 i theta} k' is fitted
    as the sample mean; the report carries the two component equations
    3 theta' = b1 sin - b2 cos and k' = b1 cos + b2 sin, plus the sup of the
    r-derivative of the fitted expression (zero exactly on solitons).
    """
    if cand.structure is not StructureKind.CY:
        raise StructureMismatch("residuals_cy needs a CY candidate")
    rs = cand.sample_points(samples)
    t3 = pf.mul(pf.constant(3.0), cand.theta)
    e3 = pf.add(pf.cos(t3), pf.mul(pf.constant(1j), pf.sin(t3)))
    w = pf.sub(e3.derivative(), pf.mul(e3, cand.kprime))
    wv = np.asarray(w.value(rs))
    bconst = -np.mean(wv)
    b1, b2 = float(np.real(bconst)), float(np.imag(bconst))

    th1 = np.real(np.asarray(cand.theta.derivative().value(rs)))
    s3 = np.sin(3.0 * np.real(np.asarray(cand.theta.value(rs))))
    c3 = np.cos(3.0 * np.real(np.asarray(cand.theta.value(rs))))
    kp = np.real(np.asarray(cand.kprime.value(rs)))

    return ResidualReport(
        residuals={
            "theta_equation": float(np.max(np.abs(3.0 * th1 - b1 * s3 + b2 * c3))),
            "kprime_equation": float(np.max(np.abs(kp - b1 * c3 - b2 * s3))),
            "integration_constant_drift": _sup(w.derivative(), rs),
        },
        samples=samples,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# nearly Kahler special families
# ---------------------------------------------------------------------------

def nk_special(family, b=0.0, c=0.0, lam=None, domain=None):
    """One of the four explicit NK soliton families.

    cone:     3theta = 0,  h = r + b,  k' = -(lam/4)(r + b), any lam
    anticone: 3theta = pi, h = -r + b, k' = (lam/4)(-r + b), any lam
    cylinder: 3theta = pi/2, h = b > 0, k' = c, lam = -12/b^2
    sinecone: 3theta = r,  h = sin r,  k' = 0, lam = -16, on (0, pi)
    """
    try:
        family = Family(family)
    except ValueError:
        raise InvalidParams(f"unknown special family {family!r}",
                            param="family") from None
    if family is Family.CONE:
        lam = 0.0 if lam is None else float(lam)
        dom = domain or Interval(max(0.0, -b) + 0.1, max(0.0, -b) + 2.1)
        r = pf.coordinate(dom)
        h = r + b
        theta = pf.constant(0.0, dom)
        kprime = (-lam / 4.0) * (r + b)
    elif family is Family.ANTICONE:
        lam = 0.0 if lam is None else float(lam)
        dom = domain or Interval(b - 2.1, b - 0.1)
        r = pf.coordinate(dom)
        h = b - r
        theta = pf.constant(np.pi / 3.0, dom)
        kprime = (lam / 4.0) * (b - r)
    elif family is Family.CYLINDER:
        if b <= 0:
            raise InvalidParams("cylinder needs b > 0", param="b")
        want = -12.0 / b ** 2
        if lam is not None and abs(lam - want) > 1e-12:
            raise InvalidParams(f"cylinder forces lam = -12/b^2 = {want}",
                                param="lambda")
        lam = want
        dom = domain or Circle(2 * np.pi)
        h = pf.constant(b, dom)
        theta = pf.constant(np.pi / 6.0, dom)
        kprime = pf.constant(c, dom)
    elif family is Family.SINECONE:
        if lam is not None and lam != -16.0:
            raise InvalidParams("sine-cone forces lam = -16", param="lambda")
        lam = -16.0
        dom = domain or Interval(0.0, np.pi)
        if not (isinstance(dom, Interval) and dom.r0 >= 0.0 and dom.r1 <= np.pi):
            raise InvalidParams("sine-cone lives on (a sub-interval of) (0, pi)")
        r = pf.coordinate(dom)
        h = pf.sin(r)
        theta = r / 3.0
        kprime = pf.constant(0.0, dom)
    else:
        raise InvalidParams(f"unknown special family {family!r}",
                            param="family")

    _check_positive(h, dom)
    return SolitonCandidate(h=h, theta=theta, kprime=kprime, lam=lam,
                            structure=StructureKind.NK, family=family, domain=dom)


def _check_positive(h, dom):
    rs = dom.sample_points(64, interior=True)
    if np.min(np.real(np.asarray(h.value(rs)))) <= 0:
        raise InvalidParams("h must stay positive on the domain")


def residuals_nk(cand, samples=200, tolerance=1e-8):
    """Sup-norm residuals of the NK soliton system (G = 1 gauge).

    (1) h' - cos 3theta
    (2) (h^3 sin 3theta)'' - 12 h sin 3theta - lam h^3 sin 3theta
        - (k' h^3 sin 3theta)'
    (3) (h^3 cos 3theta)' - 3 h^2 - (lam/4) h^4 - k' h^3 cos 3theta
    (redundant) ((h^3 cos 3theta)' - 3 h^2)' - lam h^3 cos 3theta
        - (k' h^3 cos 3theta)', which follows from (1) and (3).
    """
    if cand.structure is not StructureKind.NK:
        raise StructureMismatch("residuals_nk needs an NK candidate")
    rs = cand.sample_points(samples)
    h, kp, lam = cand.h, cand.kprime, cand.lam
    t3 = pf.mul(pf.constant(3.0), cand.theta)
    s3, c3 = pf.sin(t3), pf.cos(t3)
    h3 = pf.pow_int(h, 3)

    eq1 = pf.sub(h.derivative(), c3)
    hs = pf.mul(h3, s3)
    eq2 = (hs.derivative().derivative()
           - 12.0 * pf.mul(h, s3) - lam * hs - pf.mul(kp, hs).derivative())
    hc = pf.mul(h3, c3)
    eq3 = (hc.derivative() - 3.0 * pf.pow_int(h, 2)
           - (lam / 4.0) * pf.pow_int(h, 4) - pf.mul(kp, hc))
    redundant = ((hc.derivative() - 3.0 * pf.pow_int(h, 2)).derivative()
                 - lam * hc - pf.mul(kp, hc).derivative())

    return ResidualReport(
        residuals={
            "coclosed": _sup(eq1, rs),
            "imaginary_part": _sup(eq2, rs),
            "real_part_integrated": _sup(eq3, rs),
            "redundant": _sup(redundant, rs),
        },
        samples=samples,
        tolerance=tolerance,
    )


def coordinate_residuals(cand, samples=200, tolerance=1e-8):
    """Dispatch to residuals_cy or residuals_nk by structure kind."""
    if cand.structure is StructureKind.CY:
        return residuals_cy(cand, samples, tolerance)
    return residuals_nk(cand, samples, tolerance)


def form_residual(cand, samples=200, tolerance=1e-8, constraint_tol=1e-7):
    """Soliton equation checked entirely in the form algebra.

    Computes -Delta_d psi - d(grad k _| psi) - lambda psi and reports the
    sup of every basis coefficient; independent of the coordinate residuals.
    """
    g = cand.g2_profile()
    psi = fm.build_psi(g)
    lap = fm.hodge_laplacian_psi(g, tol=constraint_tol)  # checks coclosedness
    lie = fm.d(fm.interior_r(psi, cand.kprime), g.structure)
    resid = lap - lie - psi.scale(cand.lam)
    rs = cand.sample_points(samples)
    worst = {tag: float(np.max(np.abs(np.asarray(p.value(rs)))))
             for tag, p in resid.coeffs.items()}
    if not worst:
        worst = {"zero": 0.0}
    return ResidualReport(residuals=worst, samples=samples, tolerance=tolerance)


# ---------------------------------------------------------------------------
# the reduced third-order ODE
# ---------------------------------------------------------------------------

LOCUS_TOL = 1e-4        # stop distance from |h'| = 0 or 1
LEAD_FLOOR = 1e-10      # lower bound on the leading coefficient h^3 h'((h')^2-1)


def _reduced_terms(h, hp, hpp, lam):
    lead = h ** 3 * hp * (hp ** 2 - 1.0)
    rest = (
        -2.0 * h ** 3 * hp ** 2 * hpp ** 2
        + 3.0 * h ** 2 * hp ** 4 * hpp
        - 6.0 * h * hp ** 2
        + h ** 3 * hpp ** 2
        - 3.0 * h ** 2 * hpp
        + 12.0 * h * hp ** 4
        - 6.0 * h * hp ** 6
        + 0.25 * lam * h ** 4 * hp ** 2 * hpp
        - 0.25 * lam * h ** 4 * hpp
    )
    return lead, rest


def reduced_rhs(h, hp, hpp, lam):
    """h''' from the third-order polynomial soliton ODE for h.

    Requires 0 < |h'| < 1, h > 0, and the leading coefficient
    h^3 h'((h')^2 - 1) bounded away from zero.
    """
    if h <= 0:
        raise SingularLocus(f"h = {h} is not positive")
    if abs(hp) <= LOCUS_TOL or abs(abs(hp) - 1.0) <= LOCUS_TOL:
        raise SingularLocus(f"|h'| = {abs(hp)} is at the reduction's singular locus")
    return _reduced_rhs_raw(h, hp, hpp, lam)


def _reduced_rhs_raw(h, hp, hpp, lam):
    # locus-tolerant evaluation for integrator trial steps; the terminal
    # events stop the trajectory before the formula actually degenerates
    lead, rest = _reduced_terms(h, hp, hpp, lam)
    if abs(lead) < LEAD_FLOOR:
        raise SingularLocus(f"leading coefficient {lead:.3g} below {LEAD_FLOOR}")
    return -rest / lead


def reduced_residual(h, hp, hpp, hppp, lam):
    """Value of the polynomial ODE at the given jet (zero on solutions)."""
    lead, rest = _reduced_terms(h, hp, hpp, lam)
    return lead * hppp + rest


@dataclass(frozen=True)
class ReducedTrajectory:
    """Dense (h, h', h'') samples of the reduced ODE on a uniform grid."""

    rs: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    lam: float
    status: str             # "completed" | "singular_locus"
    nfev: int = 0           # right-hand-side evaluations spent by the integrator

    @property
    def span(self):
        return float(self.rs[0]), float(self.rs[-1])


def integrate_reduced(h0, dh0, ddh0, lam, span, rtol=1e-10, n_dense=801,
                      max_step=None):
    """Integrate the reduced ODE with DOP853, the Dormand-Prince 8(5,3) pair.

    Stops cleanly at the span end or on approach to the singular locus
    (|h'| within 1e-4 of 0 or 1, or h below 1e-6), reporting the status.
    The default step cap, 32 intervals of the returned n_dense-point grid,
    keeps the 7th-order dense output accurate enough for finite-difference
    residual checks on that grid; with n_dense=2 the cap exceeds the span,
    so a caller that needs only the end point gets free steps.
    """
    r0, r1 = float(span[0]), float(span[1])
    if max_step is None:
        max_step = 32.0 * (r1 - r0) / max(n_dense - 1, 1)
    reduced_rhs(h0, dh0, ddh0, lam)  # validate admissibility up front

    def rhs(_r, y):
        return (y[1], y[2], _reduced_rhs_raw(y[0], y[1], y[2], lam))

    # terminal events guarding the singular locus
    def near_flat(_r, y):
        return abs(y[1]) - LOCUS_TOL

    def near_unit(_r, y):
        return abs(abs(y[1]) - 1.0) - LOCUS_TOL

    def near_zero_h(_r, y):
        return y[0] - 1e-6

    for ev in (near_flat, near_unit, near_zero_h):
        ev.terminal = True

    sol = integrate.solve_ivp(
        rhs, (r0, r1), (float(h0), float(dh0), float(ddh0)),
        method="DOP853", rtol=rtol, atol=1e-12, dense_output=True,
        max_step=max_step, events=(near_flat, near_unit, near_zero_h),
    )
    if not sol.success and sol.status != 1:
        raise StepFailure(f"integrator failed: {sol.message}")

    r_stop = float(sol.t[-1])
    status = "completed" if sol.status == 0 else "singular_locus"
    rs = np.linspace(r0, r_stop, n_dense)
    y = sol.sol(rs)
    return ReducedTrajectory(rs=rs, h=y[0], hp=y[1], hpp=y[2], lam=lam,
                             status=status, nfev=int(sol.nfev))


def recover_theta_k(traj, lam, u_sign0=1.0):
    """Recover theta and k' from a reduced-ODE trajectory.

    u = sin 3theta = +-sqrt(1 - (h')^2) with the sign fixed at the start and
    constant along admissible trajectories (u can only vanish at the locus
    |h'| = 1, which the integrator avoids). theta comes from the branch of
    3theta = atan2(u, h') unwrapped along r; k' from the eliminated algebraic
    relation. The differential relation u u' = -h' h'' is cross-checked on
    the grid.
    """
    hp2 = traj.hp ** 2
    if np.min(1.0 - hp2) <= LOCUS_TOL ** 2:
        raise SignAmbiguity("sin 3theta reaches zero inside the span")
    sign = 1.0 if u_sign0 >= 0 else -1.0
    u = sign * np.sqrt(1.0 - hp2)

    # cross-check u u' = -h' h'' on interior nodes (np.gradient is 2nd order
    # there but only 1st order at the ends)
    du = np.gradient(u, traj.rs)
    mismatch = np.max(np.abs((u * du + traj.hp * traj.hpp)[1:-1]))
    dr = traj.rs[1] - traj.rs[0]
    scale = max(1.0, float(np.max(np.abs(traj.hp * traj.hpp))))
    if mismatch > max(1e-6, 50.0 * dr ** 2 * scale):
        raise StepFailure(f"u u' = -h' h'' violated by {mismatch:.3g}")

    angle3 = np.unwrap(np.arctan2(u, traj.hp))
    theta_vals = angle3 / 3.0
    h, hp, hpp = traj.h, traj.hp, traj.hpp
    kp_vals = (3.0 * h ** 2 * hp + h ** 3 * hpp / hp - 3.0 * h ** 2 / hp
               - lam * h ** 4 / (4.0 * hp)) / h ** 3

    dom = Interval(traj.rs[0], traj.rs[-1])
    theta = pf.Sampled(dom, theta_vals)
    kprime = pf.Sampled(dom, kp_vals)
    return theta, kprime


def candidate_from_trajectory(traj, u_sign0=1.0):
    """Package a reduced trajectory into a SolitonCandidate (NK, G = 1)."""
    theta, kprime = recover_theta_k(traj, traj.lam, u_sign0)
    dom = theta.domain
    h = pf.Sampled(dom, traj.h)
    return SolitonCandidate(h=h, theta=theta, kprime=kprime, lam=traj.lam,
                            structure=StructureKind.NK,
                            family=Family.ODE_TRAJECTORY, domain=dom)


# ---------------------------------------------------------------------------
# eigenform and compactness identities
# ---------------------------------------------------------------------------

def eigenform_check(g):
    """Least-squares fit of Delta_d psi = mu^2 psi over basis coefficients
    at 200 sample points.

    Returns (mu_squared, sup residual of Delta_d psi - mu^2 psi).
    """
    lap = fm.hodge_laplacian_psi(g)  # -Delta psi
    psi = fm.build_psi(g)
    rs = g.sample_points(200, interior=True)
    num = 0.0
    den = 0.0
    cols = {}
    for tag in sorted(set(psi.coeffs) | set(lap.coeffs)):  # set order follows str hashing
        pv = np.asarray(psi.coeff(tag).value(rs))
        lv = -np.asarray(lap.coeff(tag).value(rs))  # Delta psi coefficient
        cols[tag] = (pv, lv)
        num += float(np.sum(np.real(np.conjugate(pv) * lv)))
        den += float(np.sum(np.abs(pv) ** 2))
    mu2 = num / den
    resid = max(
        float(np.max(np.abs(lv - mu2 * pv))) for pv, lv in cols.values()
    )
    return mu2, resid


def compact_identity_check(cand):
    """Both sides of the compact-soliton obstruction identity.

    Returns (||d* psi||^2, -7 lambda Vol(M)); equal for exact solitons since
    the radial 4-form grad(k) _| psi is pointwise orthogonal to d* psi.
    """
    g = cand.g2_profile()
    dstar_psi = fm.star7(fm.d(fm.build_phi(g), g.structure), g)
    density = pf.mul(fm.pointwise_inner(dstar_psi, dstar_psi, g),
                     fm.volume_weight(g))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", integrate.IntegrationWarning)
            lhs = fm.integrate_profile(density, g.domain, 1e-9)
            vol = fm.integrate_profile(fm.volume_weight(g), g.domain, 1e-9)
    except (integrate.IntegrationWarning, ValueError) as exc:
        raise DivergentIntegral(str(exc)) from exc
    if not (np.isfinite(lhs) and np.isfinite(vol)):
        raise DivergentIntegral("non-finite integral")
    return lhs, -7.0 * cand.lam * vol


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShootReport:
    """Outcome of a shooting search over the soliton constant."""

    found: bool
    lam: float | None
    candidate: SolitonCandidate | None
    closing_values: tuple   # (lambda, closing functional) pairs examined
    reason: str


def shoot(h0, dh0, ddh0, span, target_dh_end, lam_range, u_sign0=1.0,
          rtol=1e-10, grid=13, residual_tol=1e-6):
    """Grid scan for a sign change, then brentq over lambda for a boundary target.

    The closing functional is h'(r_end; lambda) - target (evaluated at the
    early-stop point if the trajectory hits the singular locus). It needs
    only the trajectory's end, so closing integrations take free steps and
    keep two samples; only the final candidate is integrated densely.
    Returns a ShootReport; found=False carries the scanned bracket report.
    """
    memo = {}  # brentq re-evaluates the bracket ends the scan already has

    def closing(lam):
        if lam not in memo:
            traj = integrate_reduced(h0, dh0, ddh0, lam, span, rtol=rtol,
                                     n_dense=2)
            memo[lam] = float(traj.hp[-1]) - target_dh_end
        return memo[lam]

    lo, hi = float(min(lam_range)), float(max(lam_range))
    lams = np.linspace(lo, hi, grid)
    values = []
    for lam in lams:
        try:
            values.append((float(lam), closing(float(lam))))
        except (SingularLocus, StepFailure):
            values.append((float(lam), np.nan))

    bracket = None
    for (l1, f1), (l2, f2) in zip(values, values[1:]):
        if np.isfinite(f1) and np.isfinite(f2) and f1 * f2 <= 0.0:
            bracket = (l1, l2)
            break
    if bracket is None:
        return ShootReport(False, None, None, tuple(values), "NoBracket")
    lam = optimize.brentq(closing, *bracket, xtol=1e-9, rtol=1e-12)

    traj = integrate_reduced(h0, dh0, ddh0, lam, span, rtol=rtol)
    cand = candidate_from_trajectory(traj, u_sign0)
    report = residuals_nk(cand, tolerance=residual_tol)
    values.append((float(lam), float(traj.hp[-1]) - target_dh_end))
    if not report.passed:
        return ShootReport(False, float(lam), cand, tuple(values),
                           f"residuals {report.worst:.3g} above {residual_tol}")
    return ShootReport(True, float(lam), cand, tuple(values), "converged")
