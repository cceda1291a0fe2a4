"""Method-of-lines integrator for the Laplacian coflow evolution systems.

The Calabi-Yau system evolves (theta, G) with h frozen at a constant; the
nearly Kahler system evolves (h, theta, G) independently while the coclosed
constraint h' = G cos(3 theta) is monitored, not imposed. Flow states live
on a `profiles.Mesh`, the grid `profiles.Sampled` uses too. Spatial
derivatives are 4th order (periodic wrap on a circle, shifted stencils near
interval ends), applied as the mesh's cached sparse matrices
(`Mesh.deriv_matrix`). Each structure has one right-hand side, built
from its pointwise rates (`cy_rates`, `nk_rates`) and shared by `rhs_cy`,
`rhs_nk` and `run_flow`; one classical RK4 step advances either structure's
fields under the diffusive step restriction dt <= cfl * min(G^2) * dr^2.

On an interval the boundary is Dirichlet: endpoint values are frozen (their
time derivative is zeroed). The constraint diagnostic uses a 2nd-order
centered stencil so its discrete residual converges at a clean second order
under simultaneous mesh/time refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityDetected, StructureMismatch
from .forms import StructureKind
from .profiles import Mesh

FLOOR = 1e-6            # positivity floor for h and G
CONSTRAINT_BLOWUP = 1e-2
INIT_CONSTRAINT_TOL = 1e-4  # largest sup |c| accepted in initial NK data


def d1(mesh, f):
    """First derivative, 4th order."""
    return mesh.deriv_matrix(1) @ f


def d2(mesh, f):
    """Second derivative, 4th order."""
    return mesh.deriv_matrix(2) @ f


def d1_low_order(mesh, f):
    """2nd-order first derivative, used only for the constraint diagnostic."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2 * mesh.dr)
    if mesh.periodic:
        out[0] = (f[1] - f[-1]) / (2 * mesh.dr)
        out[-1] = (f[0] - f[-2]) / (2 * mesh.dr)
    else:
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * mesh.dr)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * mesh.dr)
    return out


def _constraint_residual(mesh, structure, h, theta, G):
    """c(r) = h' - G cos 3 theta (NK) or h' (CY), 2nd-order diagnostic."""
    hp = d1_low_order(mesh, h)
    if structure is StructureKind.CY:
        return hp
    return hp - G * np.cos(3.0 * theta)


def _tau0(D1, structure, h, theta, G):
    """Pointwise tau0 = 12 theta'/(7G), plus 24 sin(3 theta)/(7h) for NK;
    D1 is the mesh's first-derivative matrix."""
    base = 12.0 / 7.0 * (D1 @ theta) / G
    if structure is StructureKind.CY:
        return base
    return base + 24.0 / 7.0 * np.sin(3.0 * theta) / h


@dataclass(frozen=True)
class FlowState:
    """Discretized (h, theta, G) at one time."""

    mesh: Mesh
    h: np.ndarray
    theta: np.ndarray
    G: np.ndarray
    t: float
    structure: StructureKind

    def __post_init__(self):
        for name in ("h", "theta", "G"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.min(self.h) <= 0 or np.min(self.G) <= 0:
            raise SingularityDetected(
                f"h or G not positive at t={self.t} "
                f"(min h {np.min(self.h):.3g}, min G {np.min(self.G):.3g})")

    def constraint_residual(self):
        """c(r) = h' - G cos 3 theta (NK) or h' (CY), 2nd-order diagnostic."""
        return _constraint_residual(self.mesh, self.structure, self.h,
                                    self.theta, self.G)

    def tau0(self):
        return _tau0(self.mesh.deriv_matrix(1), self.structure, self.h,
                     self.theta, self.G)


@dataclass(frozen=True)
class FlowRun:
    """Snapshots at requested output times plus per-step diagnostics."""

    snapshots: tuple
    diagnostics: tuple   # records: (t, dt, sup|c|, sup tau0, min h, min G)
    status: str          # "Completed" | "SingularityDetected" | "ConstraintBlowup"


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def scalar_laplacian(f, state):
    """Rough Laplacian of a radial function on the warped metric:
    f''/G^2 + 6 h' f'/(h G^2) - f' G'/G^3."""
    m = state.mesh
    fp, fpp = d1(m, f), d2(m, f)
    hp, Gp = d1(m, state.h), d1(m, state.G)
    return fpp / state.G ** 2 + 6.0 * hp * fp / (state.h * state.G ** 2) \
        - fp * Gp / state.G ** 3


def cy_rates(theta1, theta2, G, G1):
    """Pointwise CY coflow rates from the field derivatives.

    dtheta/dt = theta''/G^2 - G' theta'/G^3,  dG/dt = -9 (theta')^2 / G.
    """
    invG = 1.0 / G
    dtheta = (theta2 - G1 * theta1 * invG) * invG * invG
    dG = -9.0 * theta1 * theta1 * invG
    return dtheta, dG


def nk_rates(h, h1, h2, theta, theta1, theta2, G, G1):
    """Pointwise NK coflow rates from the field derivatives.

    dh/dt     = h''/G^2 + 3 (h')^2/(h G^2) - h' G'/G^3 - 3/h
    dG/dt     = -3 G sin^2(3 theta)/h^2 - 9 (theta')^2/G
    dtheta/dt = theta''/G^2 + 6 theta' cos(3 theta)/(h G) - theta' G'/G^3
                - 2 sin(3 theta) cos(3 theta)/h^2
    """
    s3, c3 = np.sin(3.0 * theta), np.cos(3.0 * theta)
    dh = h2 / G ** 2 + 3.0 * h1 ** 2 / (h * G ** 2) - h1 * G1 / G ** 3 - 3.0 / h
    dG = -3.0 * G * s3 ** 2 / h ** 2 - 9.0 * theta1 ** 2 / G
    dtheta = theta2 / G ** 2 + 6.0 * theta1 * c3 / (h * G) - theta1 * G1 / G ** 3 \
        - 2.0 * s3 * c3 / h ** 2
    return dh, dtheta, dG


def require_constant_h(h):
    """Raise StructureMismatch unless h is constant in r, as the CY system
    assumes."""
    if np.max(np.abs(h - h[0])) > 1e-12:
        raise StructureMismatch("the CY system assumes h is constant in r")


def _rhs(mesh, structure):
    """The right-hand side of one structure's flow: a function from the
    evolved fields ([theta, G] for CY, [h, theta, G] for NK) to their rates.

    Each call raises SingularityDetected when h or G is not positive and, on
    an interval, zeroes the endpoint rates.
    """
    D1, D2 = mesh.deriv_matrix(1), mesh.deriv_matrix(2)
    if structure is StructureKind.CY:
        positive = (1,)

        def rates(theta, G):
            return cy_rates(D1 @ theta, D2 @ theta, G, D1 @ G)
    else:
        positive = (0, 2)

        def rates(h, theta, G):
            return nk_rates(h, D1 @ h, D2 @ h, theta, D1 @ theta, D2 @ theta,
                            G, D1 @ G)

    def rhs(fields):
        for i in positive:
            if fields[i].min() <= 0:
                raise SingularityDetected("h or G lost positivity inside a step")
        out = rates(*fields)
        if not mesh.periodic:
            for rate in out:
                rate[0] = rate[-1] = 0.0  # Dirichlet: endpoint values frozen
        return out

    return rhs


def rhs_cy(state):
    """(dtheta/dt, dG/dt) for the CY system; h must be constant."""
    if state.structure is not StructureKind.CY:
        raise StructureMismatch("rhs_cy needs a CY state")
    require_constant_h(state.h)
    return _rhs(state.mesh, state.structure)([state.theta, state.G])


def rhs_nk(state):
    """(dh/dt, dtheta/dt, dG/dt) for the NK system."""
    if state.structure is not StructureKind.NK:
        raise StructureMismatch("rhs_nk needs an NK state")
    return _rhs(state.mesh, state.structure)([state.h, state.theta, state.G])


def _rk4(rhs, fields, dt):
    """One classical RK4 step of d(fields)/dt = rhs(fields)."""
    half = 0.5 * dt
    k1 = rhs(fields)
    k2 = rhs([f + half * k for f, k in zip(fields, k1)])
    k3 = rhs([f + half * k for f, k in zip(fields, k2)])
    k4 = rhs([f + dt * k for f, k in zip(fields, k3)])
    sixth = dt / 6.0
    return [f + sixth * (a + 2.0 * (b + c) + d)
            for f, a, b, c, d in zip(fields, k1, k2, k3, k4)]


def run_flow(initial, t_end, output_times=(), cfl=0.2):
    """Integrate to t_end, snapshotting at the requested output times.

    Initial NK data whose constraint residual exceeds INIT_CONSTRAINT_TOL
    raises SingularityDetected. Halts early with status "SingularityDetected"
    when min h or min G falls below the positivity floor, or
    "ConstraintBlowup" when the NK constraint residual exceeds 1e-2; the last
    valid state is appended as a terminal snapshot either way.
    """
    mesh, structure = initial.mesh, initial.structure
    nk = structure is StructureKind.NK
    if nk:
        c0 = float(np.max(np.abs(initial.constraint_residual())))
        if c0 > INIT_CONSTRAINT_TOL:
            raise SingularityDetected(
                f"initial NK data violates the coclosed constraint "
                f"(sup |c| = {c0:.3g} > {INIT_CONSTRAINT_TOL:.3g})")
    else:
        require_constant_h(initial.h)

    rhs = _rhs(mesh, structure)
    D1 = mesh.deriv_matrix(1)
    dr2 = mesh.dr ** 2

    marks = sorted({float(t) for t in output_times if initial.t < t <= t_end})
    marks.append(float(t_end))
    h, theta, G = (initial.h.copy(), initial.theta.copy(), initial.G.copy())
    t = initial.t
    snapshots = [initial] if (output_times and initial.t in output_times) else []
    diagnostics = []
    status = "Completed"

    def pack():
        return FlowState(mesh=mesh, h=h.copy(), theta=theta.copy(),
                         G=G.copy(), t=t, structure=structure)

    for mark in marks:
        while t < mark - 1e-14:
            dt = min(cfl * float(G.min() ** 2) * dr2, mark - t)
            try:
                if nk:
                    h, theta, G = _rk4(rhs, [h, theta, G], dt)
                else:
                    theta, G = _rk4(rhs, [theta, G], dt)
            except SingularityDetected:
                status = "SingularityDetected"
                break
            t += dt
            tau0 = _tau0(D1, structure, h, theta, G)
            if nk:
                c = float(np.max(np.abs(
                    _constraint_residual(mesh, structure, h, theta, G))))
                min_h = float(h.min())
            else:
                c = 0.0  # h is constant along the CY flow
                min_h = float(h[0])
            min_G = float(G.min())
            diagnostics.append((t, dt, c, float(np.max(np.abs(tau0))),
                                min_h, min_G))
            if min_h < FLOOR or min_G < FLOOR:
                status = "SingularityDetected"
                break
            if nk and c > CONSTRAINT_BLOWUP:
                status = "ConstraintBlowup"
                break
        if status != "Completed":
            snapshots.append(pack())  # terminal state of a halted run
            break
        snapshots.append(pack())

    return FlowRun(tuple(snapshots), tuple(diagnostics), status)
