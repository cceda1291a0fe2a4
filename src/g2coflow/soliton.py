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
import itertools
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import profiles as pf
from .errors import (
    DivergentIntegral,
    InvalidParams,
    QuadratureFailure,
    SignAmbiguity,
    SingularEval,
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


def _sup_norms(rs, **terms):
    """Sup norm over rs of each named profile, all evaluated in one call."""
    values = pf.evaluate(rs, *terms.values())
    return {name: float(np.max(np.abs(v))) for name, v in zip(terms, values)}


# ---------------------------------------------------------------------------
# Calabi-Yau solitons (all steady)
# ---------------------------------------------------------------------------

def cy_closed_form(b, c, domain=None):
    """The general CY soliton: theta = (2/3) arctan(c e^{br}),
    k' = b (1 - c^2 e^{2br}) / (1 + c^2 e^{2br}), h = G = 1, lambda = 0."""
    try:
        c2 = c ** 2
    except OverflowError:   # c^2 outside the float range
        raise InvalidParams(f"c^2 overflows for c = {c!r}", param="c") from None
    dom = domain or Interval(-2.0, 2.0)
    r = pf.coordinate(dom)
    ebr = pf.exp(b * r)
    theta = (2.0 / 3.0) * pf.arctan(c * ebr)
    e2 = pf.exp((2.0 * b) * r)
    kprime = b * (1.0 - c2 * e2) / (1.0 + c2 * e2)
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
    wv, th1, th, kp, dw = pf.evaluate(rs, w, cand.theta.derivative(), cand.theta,
                                      cand.kprime, w.derivative())
    bconst = -np.mean(wv)
    b1, b2 = float(np.real(bconst)), float(np.imag(bconst))

    th1, th, kp = map(np.real, (th1, th, kp))
    s3, c3 = np.sin(3.0 * th), np.cos(3.0 * th)

    return ResidualReport(
        residuals={
            "theta_equation": float(np.max(np.abs(3.0 * th1 - b1 * s3 + b2 * c3))),
            "kprime_equation": float(np.max(np.abs(kp - b1 * c3 - b2 * s3))),
            "integration_constant_drift": float(np.max(np.abs(dw))),
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
    for name, value in (("b", b), ("c", c), ("lambda", lam)):
        if value is not None and not np.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value!r}",
                                param=name)
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
        try:
            want = -12.0 / b ** 2
        except (OverflowError, ZeroDivisionError):  # b^2 outside the float range
            want = 0.0
        if not (b > 0 and -np.inf < want < 0):
            raise InvalidParams("cylinder needs b > 0 with -12/b^2 finite and "
                                "nonzero", param="b")
        if lam is not None and not abs(lam - want) <= 1e-12:
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
        residuals=_sup_norms(rs, coclosed=eq1, imaginary_part=eq2,
                             real_part_integrated=eq3, redundant=redundant),
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
    worst = _sup_norms(cand.sample_points(samples), **resid.coeffs) or {"zero": 0.0}
    return ResidualReport(residuals=worst, samples=samples, tolerance=tolerance)


# ---------------------------------------------------------------------------
# the reduced third-order ODE
# ---------------------------------------------------------------------------

LOCUS_TOL = 1e-4        # stop distance from |h'| = 0 or 1
LEAD_FLOOR = 1e-10      # lower bound on the leading coefficient h^3 h'((h')^2-1)
RATE_CAP = 1e100        # |h'''| beyond which the integrator's norms may overflow
DETACH = 0.01           # locus margin at which a batch member finishes alone
MAX_RHS_EVALS = 200_000  # work budget of one DOP853 solve, in RHS evaluations


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

    Requires a finite jet and lambda (InvalidParams otherwise), 0 < |h'| < 1,
    h > 0, and the leading coefficient h^3 h'((h')^2 - 1) bounded away from
    zero. Raises StepFailure when the terms overflow or |h'''| exceeds
    RATE_CAP.
    """
    for name, x in (("h", h), ("h'", hp), ("h''", hpp), ("lambda", lam)):
        if not np.isfinite(x):
            raise InvalidParams(f"{name} = {x} is not finite", param=name)
    if h <= 0:
        raise SingularLocus(f"h = {h} is not positive")
    if abs(hp) <= LOCUS_TOL or abs(abs(hp) - 1.0) <= LOCUS_TOL:
        raise SingularLocus(f"|h'| = {abs(hp)} is at the reduction's singular locus")
    return _reduced_rhs_raw(h, hp, hpp, lam)


def _reduced_rhs_raw(h, hp, hpp, lam):
    # locus-tolerant evaluation for integrator trial steps; the terminal
    # event stops the trajectory before the formula actually degenerates
    try:
        lead, rest = _reduced_terms(h, hp, hpp, lam)
    except OverflowError:   # a float power past the float range
        lead = rest = np.inf
    if abs(lead) < LEAD_FLOOR:
        raise SingularLocus(f"leading coefficient {lead:.3g} below {LEAD_FLOOR}")
    hppp = -rest / lead
    if not abs(hppp) <= RATE_CAP:  # nan fails too
        raise StepFailure(f"reduced ODE overflows past |h'''| = {RATE_CAP:.0e} "
                          f"at h = {h:.3g}, h' = {hp:.3g}, h'' = {hpp:.3g}")
    return hppp


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


def _locus_margin(h, hp, dh0):
    """Distance of (h, h') from the singular locus (|h'| within LOCUS_TOL of
    0 or 1, or h at 1e-6), signed by the sides of it that h' = dh0 starts
    on: negative past the locus, so a step that jumps across it still
    changes the sign."""
    return np.minimum(
        np.minimum(np.copysign(1.0, dh0) * hp - LOCUS_TOL,
                   np.copysign(1.0, 1.0 - abs(dh0)) * (1.0 - abs(hp)) - LOCUS_TOL),
        h - 1e-6)


def _locus(dh0, offset=0.0):
    """Terminal event where the member nearest the locus comes within
    `offset` of it; y holds the h of every member, then every h', then
    every h''."""
    def event(_r, y):
        h, hp, _hpp = y.reshape(3, -1)
        return _locus_margin(h, hp, dh0).min() - offset

    event.terminal = True
    return event


def _alone_rhs(lam):
    calls = itertools.count(1)

    def rhs(_r, y):
        if next(calls) > MAX_RHS_EVALS:
            raise StepFailure(f"reduced ODE past {MAX_RHS_EVALS} RHS evaluations")
        # Python floats: an overflow raises or gives inf, never a warning
        h, hp, hpp = y.tolist()
        return (hp, hpp, _reduced_rhs_raw(h, hp, hpp, lam))

    return rhs


def _dop853(rhs, r, r1, y, rtol, event, max_step=np.inf, dense=False):
    from scipy import integrate
    # a step of a huge span may overflow the stage sums: the error norm of that
    # trial state is not finite, so the step is rejected, and the right-hand
    # side fails (StepFailure) at a state it cannot evaluate
    with np.errstate(all="ignore"):
        return integrate.solve_ivp(rhs, (r, r1), y, method="DOP853", rtol=rtol,
                                   atol=1e-12, dense_output=dense,
                                   max_step=max_step, events=event)


def _alone(r, r1, y, lam, dh0, rtol, max_step=np.inf, dense=False):
    """DOP853 solution of one member from (r, y) toward r1, under the locus
    guard of a start at h' = dh0. Raises what reduced_rhs raises at (r, y),
    and StepFailure where the integrator fails."""
    reduced_rhs(*y.tolist(), lam)
    sol = _dop853(_alone_rhs(lam), r, r1, y, rtol, _locus(dh0), max_step, dense)
    if sol.status == -1:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol


def integrate_reduced(h0, dh0, ddh0, lam, span, rtol=1e-10, n_dense=801):
    """Integrate the reduced ODE with DOP853, the Dormand-Prince 8(5,3) pair.

    The span must increase and have a finite length (InvalidParams at
    "span"). Stops cleanly at the span end or on approach to the singular
    locus (|h'| within 1e-4 of 0 or 1, or h below 1e-6), reporting the status;
    the guard is signed, so a step that jumps across the locus stops there
    too. Steps are capped at 32 intervals of the returned n_dense-point grid,
    which keeps the 7th-order dense output accurate enough for
    finite-difference residual checks on that grid; with n_dense=2 the cap
    exceeds the span, so a caller that needs only the end point gets free
    steps. An integration that would pass MAX_RHS_EVALS right-hand-side
    evaluations raises StepFailure.

    A 1-D array of lambdas returns a tuple with one entry per lambda, in
    order, each what a scalar call with n_dense=2 gives that lambda up to
    the integrator's tolerance: a two-point trajectory holding the start
    and the stop point (n_dense is not used). The members are integrated as
    one 3m-dimensional DOP853 system with free steps (one step size and
    error norm for all), without dense output. The batch stops where its
    member nearest the locus comes within DETACH of it, at the start too:
    that member finishes alone from there, stopping at the locus with status
    "singular_locus" or at the span end, and the others continue from that
    point. A member whose right-hand side passes LEAD_FLOOR or RATE_CAP or
    overflows, which fails its start or its finish alone, or whose batch
    passes MAX_RHS_EVALS or fails a step, is integrated alone through this
    function from the start, so its entry is what a scalar call gives: a
    trajectory, or the SingularLocus or StepFailure that call raised; a
    non-finite jet or lambda raises InvalidParams. A member's nfev counts the
    batched evaluations it took part in and its own.
    """
    r0, r1 = float(span[0]), float(span[1])
    if not 0 < r1 - r0 < np.inf:   # NaN fails too
        raise InvalidParams(f"span {r0, r1} needs 0 < r1 - r0 < inf", param="span")
    if np.ndim(lam) == 1:
        return _integrate_members(h0, dh0, ddh0, np.asarray(lam, dtype=float),
                                  r0, r1, rtol)
    sol = _alone(r0, r1, np.array([h0, dh0, ddh0], dtype=float), lam, dh0, rtol,
                 32.0 * (r1 - r0) / max(n_dense - 1, 1), dense=True)
    rs = np.linspace(r0, float(sol.t[-1]), n_dense)
    h, hp, hpp = sol.sol(rs)
    return ReducedTrajectory(rs=rs, h=h, hp=hp, hpp=hpp, lam=lam, nfev=int(sol.nfev),
                             status="singular_locus" if sol.status else "completed")


class _MembersFailed(Exception):
    """Raised by a batched right-hand side with the mask `bad` of the members
    it cannot evaluate."""

    bad = property(lambda self: self.args[0])


def _members_rhs(lams):
    """Right-hand side of the batch of `lams`, its state laid out as in
    `_locus`; past MAX_RHS_EVALS it fails every member."""
    calls = itertools.count(1)

    def rhs(_r, y):
        if next(calls) > MAX_RHS_EVALS:
            raise _MembersFailed(np.ones(len(lams), dtype=bool))
        h, hp, hpp = y.reshape(3, -1)
        # under _dop853's errstate: a member that fails is dropped instead
        lead, rest = _reduced_terms(h, hp, hpp, lams)
        hppp = -rest / lead
        if np.abs(lead).min() >= LEAD_FLOOR and np.abs(hppp).max() <= RATE_CAP:
            return np.concatenate((hp, hpp, hppp))
        raise _MembersFailed((np.abs(lead) < LEAD_FLOOR) | ~(np.abs(hppp) <= RATE_CAP))

    return rhs


def _integrate_members(h0, dh0, ddh0, lams, r0, r1, rtol):
    """integrate_reduced over an array of lambdas (see there)."""
    m = len(lams)
    alone, live, r, stopped = [], np.arange(m), r0, False
    y0 = np.array([h0, dh0, ddh0], dtype=float)
    if not np.isfinite(y0).all():   # solve_ivp would reject it untyped
        reduced_rhs(*y0.tolist(), 0.0)   # InvalidParams at the first such entry
    y = np.repeat(y0[:, None], m, axis=1)
    stop, nfev, at_locus = np.full(m, r1), np.zeros(m, dtype=int), np.zeros(m, bool)
    while live.size:
        margin = _locus_margin(y[0, live], y[1, live], dh0)
        near = margin <= DETACH + 1e-12
        # the member that stopped the batch finishes alone even where its margin
        # stays above DETACH: when the event's r rounds to the start of the step
        near[margin.argmin()] |= stopped
        for i in live[near]:   # finish alone from here
            try:
                sol = _alone(r, r1, y[:, i], float(lams[i]), dh0, rtol)
            except (SingularLocus, StepFailure):
                alone.append(i)
                continue
            nfev[i] += sol.nfev
            stop[i], at_locus[i], y[:, i] = sol.t[-1], sol.status == 1, sol.y[:, -1]
        live = live[~near]
        if not live.size:
            break
        try:
            sol = _dop853(_members_rhs(lams[live]), r, r1, y[:, live].ravel(),
                          rtol, _locus(dh0, DETACH))
        except _MembersFailed as exc:
            alone += live[exc.bad].tolist()
            live, stopped = live[~exc.bad], False
            continue
        if sol.status == -1:   # which member made the step fail is unknown
            alone += live.tolist()
            break
        nfev[live] += sol.nfev
        y[:, live] = sol.y[:, -1].reshape(3, -1)
        if sol.status == 0:
            break
        r, stopped = float(sol.t[-1]), True

    out = []
    for i, lam in enumerate(lams.tolist()):
        if i in alone:
            try:
                out.append(integrate_reduced(h0, dh0, ddh0, lam, (r0, r1), rtol=rtol,
                                             n_dense=2))
            except (SingularLocus, StepFailure) as exc:
                out.append(exc)
            continue
        h, hp, hpp = np.stack((y0, y[:, i]), axis=1)
        status = "singular_locus" if at_locus[i] else "completed"
        out.append(ReducedTrajectory(rs=np.array([r0, stop[i]]), h=h, hp=hp, hpp=hpp,
                                     lam=lam, status=status, nfev=int(nfev[i])))
    return tuple(out)


def recover_theta_k(traj, lam, u_sign0=1.0):
    """Recover theta and k' from a reduced-ODE trajectory.

    u = sin 3theta = +-sqrt(1 - (h')^2) with the sign fixed at the start and
    constant along admissible trajectories (u can only vanish at the locus
    |h'| = 1, which the integrator avoids). theta comes from the branch of
    3theta = atan2(u, h') unwrapped along r; k' from the eliminated algebraic
    relation. The differential relation u u' = -h' h'' is cross-checked on
    the grid; a grid on which that derivative is not finite (a trajectory
    that stops within rounding of its start, or one too short for its grid)
    raises SingularLocus.
    """
    hp2 = traj.hp ** 2
    if np.min(1.0 - hp2) <= LOCUS_TOL ** 2:
        raise SignAmbiguity("sin 3theta reaches zero inside the span")
    sign = 1.0 if u_sign0 >= 0 else -1.0
    u = sign * np.sqrt(1.0 - hp2)

    # cross-check u u' = -h' h'' on interior nodes (np.gradient is 2nd order
    # there but only 1st order at the ends)
    with np.errstate(all="ignore"):   # repeated grid nodes, or steps so short
        du = np.gradient(u, traj.rs)  # that their products underflow to 0
    if not np.isfinite(du).all():
        raise SingularLocus(f"the trajectory on [{traj.rs[0]:.6g}, {traj.rs[-1]:.6g}] "
                            f"is too short for its {len(traj.rs)}-node grid")
    mismatch = np.max(np.abs((u * du + traj.hp * traj.hpp)[1:-1]))
    dr = traj.rs[1] - traj.rs[0]
    scale = max(1.0, float(np.max(np.abs(traj.hp * traj.hpp))))
    # truncation error of the stencil, plus its round-off: a difference of
    # values rounded to eps |u|, divided by dr
    roundoff = np.finfo(float).eps * float(np.max(np.abs(u))) / dr
    if mismatch > max(1e-6, 50.0 * dr ** 2 * scale) + roundoff:
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
    tags = sorted(set(psi.coeffs) | set(lap.coeffs))  # set order follows str hashing
    values = pf.evaluate(g.sample_points(200),
                         *(form.coeff(tag) for tag in tags for form in (psi, lap)))
    num = den = 0.0
    cols = []
    for pv, minus_lv in zip(values[::2], values[1::2]):
        lv = -minus_lv  # Delta psi coefficient
        cols.append((pv, lv))
        num += float(np.sum(np.real(np.conjugate(pv) * lv)))
        den += float(np.sum(np.abs(pv) ** 2))
    mu2 = num / den
    resid = max(float(np.max(np.abs(lv - mu2 * pv))) for pv, lv in cols)
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
        lhs = fm.integrate_profile(density, g.domain, 1e-9)
        vol = fm.integrate_profile(fm.volume_weight(g), g.domain, 1e-9)
    except (QuadratureFailure, SingularEval) as exc:
        raise DivergentIntegral(str(exc)) from exc
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
    keep two samples. The scan is one batched integrate_reduced call over
    the grid of lambdas, also with free steps, each member's value what a
    scalar call gives it (NaN where that call raises SingularLocus, or
    StepFailure, a solve past MAX_RHS_EVALS included); brentq
    starts from the scan's values and integrates each further lambda alone,
    and only the final candidate is integrated densely.
    Returns a ShootReport; found=False carries the scanned bracket report.
    """
    from scipy import optimize
    memo = {}  # brentq re-evaluates the bracket ends the scan already has

    def closing(lam):
        if lam not in memo:
            traj = integrate_reduced(h0, dh0, ddh0, lam, span, rtol=rtol,
                                     n_dense=2)
            memo[lam] = float(traj.hp[-1]) - target_dh_end
        return memo[lam]

    lo, hi = float(min(lam_range)), float(max(lam_range))
    lams = np.linspace(lo, hi, grid)
    scan = integrate_reduced(h0, dh0, ddh0, lams, span, rtol=rtol, n_dense=2)
    values = []
    for lam, traj in zip(lams.tolist(), scan):
        if isinstance(traj, ReducedTrajectory):
            memo[lam] = float(traj.hp[-1]) - target_dh_end
        values.append((lam, memo.get(lam, np.nan)))

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
