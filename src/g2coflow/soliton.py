"""Soliton solutions of the Laplacian coflow: construction and verification.

Solitons satisfy -Delta_d psi = d(grad(k) _| psi) + lambda psi with the
radial gauge G = 1. A SolitonCandidate builds its G = 1 G2Profile once,
at construction, which is the one place its h > 0 is checked. The
Calabi-Yau case closes exactly (steady solitons
only); the nearly Kahler case has four special families (cone, anti-cone,
cylinder, sine-cone) and a general reduction to a third-order polynomial
ODE for h, from which theta and k' are recovered algebraically. One DOP853
stepper on Python floats integrates that ODE for every caller: the
shooting scan, its closings and the dense trajectories.

Residuals are always reported two independent ways: coordinate equations
(residuals_cy / residuals_nk) and the full form-level equation
(form_residual), which share no code path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import forms as fm
from . import profiles as pf
from .errors import (
    DivergentIntegral,
    InvalidGeometry,
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
    """(h, theta, k') with soliton constant lambda, in the G = 1 gauge.

    Construction builds the candidate's G2Profile, which checks that h is
    positive on the domain (InvalidParams otherwise), and keeps it:
    `g2_profile` returns that one structure on every call.
    """

    h: pf.Profile
    theta: pf.Profile
    kprime: pf.Profile
    lam: float
    structure: StructureKind
    family: Family
    domain: object

    def __post_init__(self):
        try:
            g = G2Profile(self.h, self.theta, pf.constant(1.0, self.domain),
                          self.structure, self.domain)
        except InvalidGeometry:
            raise InvalidParams("h must stay positive on the domain") from None
        object.__setattr__(self, "_g2", g)   # not a field: no part in == or repr

    @property
    def kind(self):
        if self.lam > 0:
            return "expanding"
        return "steady" if self.lam == 0 else "shrinking"

    def g2_profile(self):
        return self._g2

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

    return SolitonCandidate(h=h, theta=theta, kprime=kprime, lam=lam,
                            structure=StructureKind.NK, family=family, domain=dom)


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
    # locus-tolerant evaluation for integrator trial steps; the locus guard
    # stops the trajectory before the formula actually degenerates
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
    # right-hand-side evaluations of the solve: the checked one at the start,
    # the initial-step probe, 12 per step tried and 3 per interpolated step
    nfev: int = 0


def _locus_margin(h, hp, dh0):
    """Distance of (h, h') from the singular locus (|h'| within LOCUS_TOL of
    0 or 1, or h at 1e-6), signed by the sides of it that h' = dh0 starts
    on: negative past the locus, so a step that jumps across it still
    changes the sign."""
    return min(math.copysign(1.0, dh0) * hp - LOCUS_TOL,
               math.copysign(1.0, 1.0 - abs(dh0)) * (1.0 - abs(hp)) - LOCUS_TOL,
               h - 1e-6)


# The Dormand-Prince 8(5,3) pair and its 7th-order dense output (Hairer,
# Norsett & Wanner, Solving Ordinary Differential Equations I, 2nd ed.,
# Sec. II.5-II.6, and their code DOP853) as the doubles of scipy's
# integrate/_ivp/dop853_coefficients.py: the nonzero entries of each row as
# (stage, coefficient) pairs. The reduced ODE is autonomous, so the nodes
# c_i are not needed.
_A = (   # stages 1-12; row 12 weighs the 8th-order solution, where stage 12 is f
    ((0, 0.05260015195876773),),
    ((0, 0.0197250569845379), (1, 0.0591751709536137)),
    ((0, 0.02958758547680685), (2, 0.08876275643042054)),
    ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
    ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
    ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596),
     (5, -0.017578125)),
    ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
     (5, -0.015319437748624402), (6, 0.008273789163814023)),
    ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
     (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
    ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
     (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
     (8, -0.020331201708508627)),
    ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
     (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
     (8, 2.4936055526796523), (9, -3.0467644718982196)),
    ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
     (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
     (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
    ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),
     (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
     (10, 0.20136540080403034), (11, 0.04471061572777259)),
)
# the 5th-order error weights
_E5 = ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),
       (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
       (10, 0.08192320648511571), (11, -0.022355307863886294))
_A_DENSE = (   # stages 13-15 of the dense output
    ((0, 0.056167502283047954), (6, 0.25350021021662483), (7, -0.2462390374708025),
     (8, -0.12419142326381637), (9, 0.15329179827876568), (10, 0.00820105229563469),
     (11, 0.007567897660545699), (12, -0.008298)),
    ((0, 0.03183464816350214), (5, 0.028300909672366776), (6, 0.053541988307438566),
     (7, -0.05492374857139099), (10, -0.00010834732869724932),
     (11, 0.0003825710908356584), (12, -0.00034046500868740456),
     (13, 0.1413124436746325)),
    ((0, -0.42889630158379194), (5, -4.697621415361164), (6, 7.683421196062599),
     (7, 4.06898981839711), (8, 0.3567271874552811), (12, -0.0013990241651590145),
     (13, 2.9475147891527724), (14, -9.15095847217987)),
)
_D = (   # the interpolant's coefficients 4-7
    ((0, -8.428938276109013), (5, 0.5667149535193777), (6, -3.0689499459498917),
     (7, 2.38466765651207), (8, 2.117034582445028), (9, -0.871391583777973),
     (10, 2.2404374302607883), (11, 0.6315787787694688), (12, -0.08899033645133331),
     (13, 18.148505520854727), (14, -9.194632392478356), (15, -4.436036387594894)),
    ((0, 10.427508642579134), (5, 242.28349177525817), (6, 165.20045171727028),
     (7, -374.5467547226902), (8, -22.113666853125306), (9, 7.733432668472264),
     (10, -30.674084731089398), (11, -9.332130526430229), (12, 15.697238121770845),
     (13, -31.139403219565178), (14, -9.35292435884448), (15, 35.81684148639408)),
    ((0, 19.985053242002433), (5, -387.0373087493518), (6, -189.17813819516758),
     (7, 527.8081592054236), (8, -11.57390253995963), (9, 6.8812326946963),
     (10, -1.0006050966910838), (11, 0.7777137798053443), (12, -2.778205752353508),
     (13, -60.19669523126412), (14, 84.32040550667716), (15, 11.99229113618279)),
    ((0, -25.69393346270375), (5, -154.18974869023643), (6, -231.5293791760455),
     (7, 357.6391179106141), (8, 93.40532418362432), (9, -37.45832313645163),
     (10, 104.0996495089623), (11, 29.8402934266605), (12, -43.53345659001114),
     (13, 96.32455395918828), (14, -39.17726167561544), (15, -149.72683625798564)),
)
# the 3rd-order error weights: B less the 3rd-order solution's weights
_E3 = tuple((j, b - {0: 0.2440944881889764, 8: 0.7338466882816118,
                     11: 0.022058823529411766}.get(j, 0.0)) for j, b in _A[-1])


def _combine(row, ks):
    """Sum of coefficient times stage over the nonzero entries of a tableau
    row, one float per component."""
    s0 = s1 = s2 = 0.0
    for j, a in row:
        k0, k1, k2 = ks[j]
        s0 += a * k0
        s1 += a * k1
        s2 += a * k2
    return s0, s1, s2


def _stages(rows, ks, y, step, rhs):
    """Append to ks the stage of each tableau row: f at y plus step times the
    row's sum over the earlier stages. Returns the last row's state."""
    for row in rows:
        s0, s1, s2 = _combine(row, ks)
        state = (y[0] + s0 * step, y[1] + s1 * step, y[2] + s2 * step)
        ks.append(rhs(state))
    return state


def _sum_sq(v, scale):
    a, b, c = (x / s for x, s in zip(v, scale))
    return a * a + b * b + c * c   # products overflow to inf, powers would raise


def _horner(coeffs, x):
    """The interpolant's offset from the step's start at x = (r - start) /
    step: Horner's rule in x and 1 - x in turn, from the last coefficient,
    as scipy's Dop853DenseOutput sums it. Floats or broadcasting arrays."""
    v = 0.0
    for i, c in enumerate(coeffs[::-1]):
        v = (v + c) * (x if i % 2 == 0 else 1.0 - x)
    return v


def _dense_value(piece, r):
    start, length, y, coeffs = piece
    x = (r - start) / length
    return tuple(v + _horner(c, x) for v, c in zip(y, coeffs))


def _dop853(y, lam, r, r1, rtol, max_step, dense):
    """DOP853 solution of the reduced ODE from (r, y) toward r1, stepped as
    scipy's DOP853 (integrate/_ivp/rk.py) steps it at this rtol, atol 1e-12
    and max_step: its error norm (the err5/err3 blend), step-size rule
    (safety 0.9, factors 0.2 to 10, no growth after a rejected step) and
    initial step. Stops where the locus margin of the start changes sign
    over a step, at the margin's root on that step's interpolant (brentq
    with xtol = rtol = 4 eps, as scipy locates a terminal event).

    Returns (stop point, state there, whether the locus stopped it, RHS
    evaluations, pieces), where pieces holds (start, length, state at start,
    interpolant coefficients per component) of every accepted step when
    `dense`. Raises what reduced_rhs raises at (r, y), what the right-hand
    side raises at a trial state, and StepFailure past MAX_RHS_EVALS
    evaluations or where a step would fall below 10 float spacings at r.
    """
    nfev, dh0 = 1, y[1]
    f = (y[1], y[2], reduced_rhs(*y, lam))   # also checks the start
    rtol = max(rtol, 100 * np.finfo(float).eps)   # scipy's floor

    def rhs(state):
        nonlocal nfev
        nfev += 1
        if nfev > MAX_RHS_EVALS:
            raise StepFailure(f"reduced ODE past {MAX_RHS_EVALS} RHS evaluations")
        return state[1], state[2], _reduced_rhs_raw(*state, lam)

    scale = [1e-12 + abs(v) * rtol for v in y]
    d0, d1 = (math.sqrt(_sum_sq(v, scale) / 3) for v in (y, f))
    h_abs = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, r1 - r)
    f1 = rhs(tuple(v + h_abs * k for v, k in zip(y, f)))
    d2 = math.sqrt(_sum_sq([a - b for a, b in zip(f1, f)], scale) / 3) / h_abs
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h_abs * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h_abs, h1, r1 - r, max_step)

    pieces, margin = [], _locus_margin(y[0], y[1], dh0)
    while True:
        min_step = 10 * (math.nextafter(r, math.inf) - r)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepFailure("integrator failed: Required step size is less "
                                  "than spacing between numbers.")
            r_new = min(r + h_abs, r1)
            step = r_new - r
            ks = [f]
            y_new = _stages(_A, ks, y, step, rhs)
            scale = [1e-12 + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)]
            e5 = _sum_sq(_combine(_E5, ks), scale)
            e3 = _sum_sq(_combine(_E3, ks), scale)
            error = step * e5 / math.sqrt((e5 + 0.01 * e3) * 3) if e5 else 0.0
            if error < 1:
                factor = 10.0 if error == 0 else min(10.0, 0.9 * error ** -0.125)
                h_abs = step * (min(1.0, factor) if rejected else factor)
                break
            h_abs, rejected = step * max(0.2, 0.9 * error ** -0.125), True

        new_margin = _locus_margin(y_new[0], y_new[1], dh0)
        crossed = margin <= 0 <= new_margin or margin >= 0 >= new_margin
        if dense or crossed:
            _stages(_A_DENSE, ks, y, step, rhs)
            dy = [b - a for a, b in zip(y, y_new)]
            rows = [dy, [step * k - d for k, d in zip(ks[0], dy)],
                    [2 * d - step * (k1 + k0) for d, k0, k1 in zip(dy, ks[0], ks[12])],
                    *([step * s for s in _combine(row, ks)] for row in _D)]
            pieces.append((r, step, y, tuple(zip(*rows))))
        if crossed:
            from scipy.optimize import brentq
            piece, tol = pieces[-1], 4 * np.finfo(float).eps
            stop = brentq(lambda x: _locus_margin(*_dense_value(piece, x)[:2], dh0),
                          r, r_new, xtol=tol, rtol=tol)
            return stop, _dense_value(piece, stop), True, nfev, pieces
        if r_new >= r1:
            return r_new, y_new, False, nfev, pieces
        r, y, f, margin = r_new, y_new, ks[12], new_margin


def _sample(pieces, rs):
    """(h, h', h'') at the increasing points rs, each from the interpolant of
    the step it falls in (the earlier step at a step boundary, as scipy's
    OdeSolution picks)."""
    starts = np.array([p[0] for p in pieces])
    i = np.clip(np.searchsorted(starts, rs) - 1, 0, len(pieces) - 1)
    x = (rs - starts[i]) / np.array([p[1] for p in pieces])[i]
    coeffs = np.moveaxis(np.array([p[3] for p in pieces])[i], 2, 0)
    return (np.array([p[2] for p in pieces])[i] + _horner(coeffs, x[:, None])).T


def integrate_reduced(h0, dh0, ddh0, lam, span, rtol=1e-10, n_dense=801):
    """Integrate the reduced ODE at one lambda with DOP853, the Dormand-Prince
    8(5,3) pair.

    The span must increase and have a finite length (InvalidParams at
    "span"). Stops cleanly at the span end or on approach to the singular
    locus (|h'| within 1e-4 of 0 or 1, or h below 1e-6), reporting the status;
    the guard is signed, so a step that jumps across the locus stops there
    too. Steps are capped at 32 intervals of the returned n_dense-point grid,
    which keeps the 7th-order dense output accurate enough for
    finite-difference residual checks on that grid. With n_dense=2 the cap
    exceeds the span, so a caller that needs only the end point gets free
    steps, and the trajectory holds the start and the stop point: dense
    output is computed only on a step the locus stops. An integration that
    would pass MAX_RHS_EVALS right-hand-side evaluations raises StepFailure.
    A non-finite jet or lambda raises InvalidParams.

    The stepper runs on Python floats and steps as scipy's DOP853 would (see
    _dop853); the last bits differ, because its sums run in another order.
    """
    r0, r1 = float(span[0]), float(span[1])
    if not 0 < r1 - r0 < np.inf:   # NaN fails too
        raise InvalidParams(f"span {r0, r1} needs 0 < r1 - r0 < inf", param="span")
    y0, lam = (float(h0), float(dh0), float(ddh0)), float(lam)
    dense = n_dense > 2
    r, y, at_locus, nfev, pieces = _dop853(y0, lam, r0, r1, rtol,
                                           32.0 * (r1 - r0) / max(n_dense - 1, 1),
                                           dense)
    if dense:
        rs = np.linspace(r0, r, n_dense)
        h, hp, hpp = _sample(pieces, rs)
    else:
        rs = np.array([r0, r])
        h, hp, hpp = np.array([y0, y]).T
    return ReducedTrajectory(rs=rs, h=h, hp=hp, hpp=hpp, lam=lam, nfev=nfev,
                             status="singular_locus" if at_locus else "completed")


def recover_theta_k(traj, u_sign0=1.0):
    """Recover theta and k' from a reduced-ODE trajectory, at its lambda.

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
               - traj.lam * h ** 4 / (4.0 * hp)) / h ** 3

    dom = Interval(traj.rs[0], traj.rs[-1])
    theta = pf.Sampled(dom, theta_vals)
    kprime = pf.Sampled(dom, kp_vals)
    return theta, kprime


def candidate_from_trajectory(traj, u_sign0=1.0):
    """Package a reduced trajectory into a SolitonCandidate (NK, G = 1)."""
    theta, kprime = recover_theta_k(traj, u_sign0)
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
    keep two samples. The scan calls it at each lambda of the grid in turn
    (NaN where that integration raises SingularLocus, or StepFailure, a
    solve past MAX_RHS_EVALS included); brentq starts from the scan's values
    and integrates each further lambda, and only the final candidate is
    integrated densely.
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

    values = []
    lo, hi = float(min(lam_range)), float(max(lam_range))
    for lam in np.linspace(lo, hi, grid).tolist():
        try:
            values.append((lam, closing(lam)))
        except (SingularLocus, StepFailure):
            values.append((lam, np.nan))

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
