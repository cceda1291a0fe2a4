"""Method-of-lines integrator for the Laplacian coflow evolution systems.

The Calabi-Yau system evolves (theta, G) with h frozen at a constant; the
nearly Kahler system evolves (h, theta, G) independently while the coclosed
constraint h' = G cos(3 theta) is monitored, not imposed. Flow states live
on a `profiles.Mesh`, the grid `profiles.Sampled` uses too. Spatial
derivatives are 4th order (periodic wrap on a circle, shifted stencils near
interval ends), from the mesh's cached sparse matrices (`Mesh.deriv_matrix`).
`FlowState` owns the flat layout: its vector `y` holds the evolved fields in
`FIELDS` order ([theta, G] for CY, [h, theta, G] for NK), and `advanced`
builds the next state from such a vector, as views. One right-hand side per
structure, shared by `rhs(state)` and `run_flow`, takes one vector or a
batch of up to four, makes one block-diagonal stencil product for the
derivatives the rates use, then applies `cy_rates`/`nk_rates`.

Time steps are explicit and stabilized, so their size follows accuracy, not
the diffusive limit dt ~ min(G^2) dr^2 of a classical Runge-Kutta step. A base
step is s first-order damped Chebyshev stages (Verwer, Hundsdorfer &
Sommeijer 1990), whose coefficients come from the Chebyshev three-term
recurrence; s is the fewest stages whose stability interval covers 1/0.9 of
the step's spectral-radius bound rho dt. One macro step of size dt runs the
base step k times at dt/k for k = 1..4 and extrapolates the four results to
4th order (Richardson; the extrapolated stabilized Runge-Kutta idea of
Martin-Vaquero & Kleefeld 2016). The four sequences are independent until
then, so they run in lockstep as the rows of one batch (the parallel form of
extrapolation, Deuflhard 1985): 4 s right-hand-side calls evaluate the macro
step's 10 s - 3 states, each row bitwise as if it ran alone. The 3rd-order
extrapolation of the last three gives a local error estimate; a step is
accepted when its RMS, relative to TOL (1 + |y|), is at most 1, and the next
step grows or shrinks by the usual fourth-root rule.

On an interval the boundary is Dirichlet: endpoint values are frozen (their
time derivative is zeroed). The constraint diagnostic uses the mesh's
2nd-order first-derivative matrix (centered, (-3, 4, -1)/(2 dr) at interval
ends) so its discrete residual converges at a clean second order under
simultaneous mesh/time refinement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularityDetected, StructureMismatch
from .forms import StructureKind
from .profiles import Mesh

FLOOR = 1e-6            # positivity floor for h and G
CONSTRAINT_BLOWUP = 1e-2
INIT_CONSTRAINT_TOL = 1e-4  # largest sup |c| accepted in initial NK data
TOL = 1e-11             # local error tolerance of one macro step
MAX_STAGES = 400        # stages per base step; a step that needs more is shortened
MAX_RHS_EVALS = 1_000_000  # work budget of one run, in RHS state evaluations
# the evolved fields of each structure, in the order of the flat vector
FIELDS = {StructureKind.CY: ("theta", "G"), StructureKind.NK: ("h", "theta", "G")}


@dataclass(frozen=True)
class FlowState:
    """Discretized (h, theta, G) at one time. Construction raises
    SingularityDetected unless h and G are positive, and StructureMismatch
    for a CY state whose h is not constant in r, as the CY system assumes."""

    mesh: Mesh
    h: np.ndarray
    theta: np.ndarray
    G: np.ndarray
    t: float
    structure: StructureKind

    def __post_init__(self):
        for name in ("h", "theta", "G"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (np.min(self.h) > 0 and np.min(self.G) > 0):  # NaN fails too
            raise SingularityDetected(
                f"h or G not positive at t={self.t} "
                f"(min h {np.min(self.h):.3g}, min G {np.min(self.G):.3g})")
        if (self.structure is StructureKind.CY
                and np.max(np.abs(self.h - self.h[0])) > 1e-12):
            raise StructureMismatch("the CY system assumes h is constant in r")

    @property
    def y(self):
        """The flat vector of the evolved fields, in FIELDS order."""
        return np.concatenate([getattr(self, name) for name in FIELDS[self.structure]])

    def advanced(self, y, t):
        """The state at time t whose evolved fields are views of the flat
        vector y's rows; a CY state keeps its h."""
        return replace(self, t=t, **dict(zip(FIELDS[self.structure],
                                             y.reshape(-1, self.mesh.n))))

    def constraint_residual(self):
        """c(r) = h' - G cos 3 theta (NK) or h' (CY), 2nd-order diagnostic."""
        hp = self.mesh.deriv_matrix(1, order=2) @ self.h
        if self.structure is StructureKind.CY:
            return hp
        return hp - self.G * np.cos(3.0 * self.theta)

    def tau0(self):
        """Pointwise tau0 = 12 theta'/(7G), plus 24 sin(3 theta)/(7h) for NK."""
        base = 12.0 / 7.0 * (self.mesh.deriv_matrix(1) @ self.theta) / self.G
        if self.structure is StructureKind.CY:
            return base
        return base + 24.0 / 7.0 * np.sin(3.0 * self.theta) / self.h


@dataclass(frozen=True)
class FlowRun:
    """Snapshots at requested output times, one diagnostics record per
    accepted step, and the run's work: rejected steps and the states the
    right-hand side evaluated, 10 s per attempted step of s stages."""

    snapshots: tuple
    diagnostics: tuple   # records: (t, dt, sup|c|, sup tau0, min h, min G)
    status: str          # "Completed" | "SingularityDetected" | "ConstraintBlowup"
                         # | "StepSizeUnderflow" | "WorkBudgetExceeded"
    rejected: int        # steps that failed the error test and were retried
    rhs_evals: int       # F(y), shared by 4 first stages, counts 4 times

    @property
    def steps(self):
        """Accepted steps."""
        return len(self.diagnostics)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

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
    G_sq, G_cu, h_sq = G ** 2, G ** 3, h ** 2
    dh = h2 / G_sq + 3.0 * h1 ** 2 / (h * G_sq) - h1 * G1 / G_cu - 3.0 / h
    dG = -3.0 * G * s3 ** 2 / h_sq - 9.0 * theta1 ** 2 / G
    dtheta = theta2 / G_sq + 6.0 * theta1 * c3 / (h * G) - theta1 * G1 / G_cu \
        - 2.0 * s3 * c3 / h_sq
    return dh, dtheta, dG


def _rhs(mesh, structure):
    """The right-hand side of one structure's flow: a function from the flat
    vector of the evolved fields (`FlowState.y`), or from a batch of up to 4
    such vectors as the rows of an (m, N) array, to the rates in the same
    shape. Each row is bitwise the rates of that row alone. Each call raises
    SingularityDetected when h or G is not positive in any row and, on an
    interval, zeroes the endpoint rates.
    """
    from scipy import sparse
    n, nk = mesh.n, structure is StructureKind.NK
    k = len(FIELDS[structure])
    positive = slice(k - 1, None, -2)  # the G and h rows, as a view: theta is between
    # (D1 f, D2 f) of every field but G, then D1 G; stacking keeps each row's
    # column order, so every sum runs as in D @ f
    D1 = mesh.deriv_matrix(1)
    D12 = sparse.vstack([D1, mesh.deriv_matrix(2)], "csr")
    M = sparse.block_diag([D12] * (k - 1) + [D1], format="csr")
    # M four times down the diagonal; the operator of an m-row batch is its
    # first m row blocks, sharing the arrays (m = 1 is M itself)
    R, N, nnz = M.shape[0], k * n, M.nnz
    data = np.tile(M.data, 4)
    indices = np.concatenate([M.indices + i * N for i in range(4)])
    indptr = np.concatenate([M.indptr[:-1] + i * nnz for i in range(4)]
                            + [M.indptr[-1:] + 3 * nnz])
    ops = [M] + [sparse.csr_matrix((data, indices, indptr[:m * R + 1]),
                                   shape=(m * R, m * N)) for m in (2, 3, 4)]

    def rhs(y):
        f = y.reshape(-1, k, n)
        if f[:, positive].min() <= 0:
            raise SingularityDetected("h or G lost positivity inside a step")
        # d[:, i]: D1 h, D2 h (NK only), D1 theta, D2 theta, D1 G
        d = (ops[len(f) - 1] @ y.ravel()).reshape(len(f), -1, n)
        out = np.concatenate(
            nk_rates(f[:, 0], d[:, 0], d[:, 1], f[:, 1], d[:, 2], d[:, 3],
                     f[:, 2], d[:, 4])
            if nk else cy_rates(d[:, 0], d[:, 1], f[:, 1], d[:, 2]), axis=-1)
        if not mesh.periodic:
            out[:, 0::n] = out[:, n - 1::n] = 0.0  # Dirichlet: endpoints frozen
        return out.reshape(y.shape)

    return rhs


def rhs(state):
    """The rates of the state's evolved fields, in FIELDS order: (dtheta/dt,
    dG/dt) for a CY state, whose h is constant (checked when the state was
    built), and (dh/dt, dtheta/dt, dG/dt) for an NK state."""
    return tuple(_rhs(state.mesh, state.structure)(state.y).reshape(-1, state.mesh.n))


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

@functools.cache
def chebyshev_coefficients(s):
    """(w0, w1, b) of the s-stage damped Chebyshev step: w0 = 1 + 2/s^2,
    w1 = T_s(w0)/T_s'(w0) and b[j] = 1/T_j(w0), by the three-term recurrence.

    On y' = lambda y the step multiplies y by T_s(w0 + w1 h lambda)/T_s(w0),
    at most 1 in size for h lambda in [-beta(s), 0], beta(s) = (1 + w0)/w1,
    and 0.964 s^2 <= beta(s) <= 2 s^2. The damping 2 in w0 keeps the
    extrapolated step stable too; at 0.5 it is not.
    """
    w0 = 1.0 + 2.0 / s ** 2
    T, dT = [1.0, w0], [0.0, 1.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
    return w0, T[s] / dT[s], tuple(1.0 / v for v in T)


def stages(rho_dt):
    """The fewest stages s with 0.9 beta(s) >= rho_dt."""
    s = max(1, math.isqrt(int(rho_dt / 2.0)))  # fewer fail: beta(s) <= 2 s^2
    while True:
        w0, w1, _ = chebyshev_coefficients(s)
        if 0.9 * (1.0 + w0) / w1 >= rho_dt:
            return s
        s += 1


def _extrapolated_step(rhs, y, dt, s):
    """k first-order steps of size h = dt/k for k = 1..4, extrapolated: the
    4th-order result and the 3rd-order one from k = 2..4. A step is s damped
    Chebyshev stages Y_j = 2 w0 (b_j/b_{j-1}) Y_{j-1} - (b_j/b_{j-2}) Y_{j-2}
    + 2 w1 (b_j/b_{j-1}) h F(Y_{j-1}), from Y_0 = y, Y_1 = y + (w1/w0) h F(y).

    The sequences run in lockstep as the rows k = 4, 3, 2, 1 of one batch, so
    the m still running are its first m rows: 4 s calls of rhs, the first
    F(y) shared by the four first stages, evaluate 10 s - 3 states.
    """
    w0, w1, b = chebyshev_coefficients(s)
    h = dt / np.array([[4.0], [3.0], [2.0], [1.0]])  # one row per sequence
    done, Y = [], y  # done: the results of k = 1, 2, 3, 4
    for m in (4, 3, 2, 1):
        prev, cur = Y, Y + (w1 / w0 * h[:m]) * rhs(Y)
        for j in range(2, s + 1):
            mu = b[j] / b[j - 1]
            new = (2.0 * w0 * mu) * cur
            new -= (b[j] / b[j - 2]) * prev
            new += (2.0 * w1 * mu * h[:m]) * rhs(cur)
            prev, cur = cur, new
        done.append(cur[-1])
        Y = cur[:-1]
    y1, y2, y3, y4 = done
    return (-1.0 / 6.0 * y1 + 4.0 * y2 - 13.5 * y3 + 32.0 / 3.0 * y4,
            2.0 * y2 - 9.0 * y3 + 8.0 * y4)


def run_flow(initial, t_end, output_times=(), cfl=0.2):
    """Integrate to t_end, snapshotting at the requested output times.

    An output time within 1e-14 below a later one, t_end included, is
    dropped: the later one is snapshotted in its place.

    Steps are extrapolated damped-Chebyshev macro steps (module docstring)
    under the local error tolerance TOL. The first trial step is
    cfl min(G)^2 dr^2; later ones follow the error estimate, and a step cut
    short at an output time leaves the next trial step as it was. A step
    whose result is not finite, or which has h or G not positive in a stage
    or its result, is rejected like an inaccurate one. Initial NK data whose
    constraint residual exceeds INIT_CONSTRAINT_TOL, or initial h or G below
    the positivity floor FLOOR, raises SingularityDetected. Halts early with
    status "SingularityDetected" when an accepted state's min h or min G is
    below FLOOR, "ConstraintBlowup" when the NK constraint residual exceeds
    1e-2, "StepSizeUnderflow" when a trial step no longer advances t (so
    also when no shorter trial keeps h and G positive), or
    "WorkBudgetExceeded" when the next step would pass MAX_RHS_EVALS; the
    last state is appended as a terminal snapshot either way. A step needing
    more than MAX_STAGES stages is shortened to what MAX_STAGES cover, as in
    RKC (Sommeijer, Shampine & Verwer 1998).
    """
    mesh, structure = initial.mesh, initial.structure
    nk = structure is StructureKind.NK
    if nk:
        c0 = float(np.max(np.abs(initial.constraint_residual())))
        if c0 > INIT_CONSTRAINT_TOL:
            raise SingularityDetected(
                f"initial NK data violates the coclosed constraint "
                f"(sup |c| = {c0:.3g} > {INIT_CONSTRAINT_TOL:.3g})")
    min_h, min_G = float(initial.h.min()), float(initial.G.min())
    if min(min_h, min_G) < FLOOR:
        raise SingularityDetected(
            f"initial h or G below the positivity floor {FLOOR:.3g}")

    rhs = _rhs(mesh, structure)
    dr2 = mesh.dr ** 2
    rejected = rhs_evals = 0
    w0, w1, _ = chebyshev_coefficients(MAX_STAGES)
    rho_dt_max = 0.9 * (1.0 + w0) / w1  # the interval stages() covers with MAX_STAGES

    marks = sorted({float(t) for t in output_times if initial.t < t <= t_end}
                   | {float(t_end)})
    # a mark within 1e-14 below the next is reached by the next one's steps
    marks = [m for m, after in zip(marks, marks[1:] + [np.inf]) if m < after - 1e-14]
    state = initial
    snapshots = [initial] if (output_times and initial.t in output_times) else []
    diagnostics = []
    status = "Completed"
    dt = cfl * (min_G * min_G) * dr2  # a product, not a power: no OverflowError

    # an overflow makes a trial state non-finite, and such a trial is rejected
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for mark in marks:
            while state.t < mark - 1e-14:
                t, y = state.t, state.y
                step = min(dt, mark - t)
                rho = 16.0 / 3.0 / (min_G * min_G * dr2)  # spectral-radius bound
                if nk:
                    rho += 12.0 / (min_h * min_h) + 10.0 / (min_h * min_G * mesh.dr)
                rho_dt = rho * step
                if rho_dt > rho_dt_max:
                    step, rho_dt = rho_dt_max / rho, rho_dt_max
                if t + step == t:
                    status = "StepSizeUnderflow"
                    break
                s = stages(rho_dt)
                if rhs_evals + 10 * s > MAX_RHS_EVALS:
                    status = "WorkBudgetExceeded"
                    break
                rhs_evals += 10 * s
                try:
                    new, low = _extrapolated_step(rhs, y, step, s)
                    trial = state.advanced(new, t + step)
                    err = float(np.sqrt(np.mean(np.square(
                        (new - low) / (TOL * (1.0 + np.abs(y)))))))
                except SingularityDetected:  # h or G not positive in a stage
                    err = np.inf             # or the result: retry shorter
                if np.isnan(err):  # a non-finite trial state: retry shorter
                    err = np.inf
                grow = min(4.0, max(0.2, 0.9 * err ** -0.25)) if err > 0 else 4.0
                if err > 1.0:
                    rejected += 1
                    dt = grow * step
                    continue
                if step == dt:  # not cut short at an output time
                    dt = grow * step
                state = trial
                c = float(np.max(np.abs(state.constraint_residual()))) if nk else 0.0
                min_h = float(state.h.min() if nk else state.h[0])  # CY: h constant
                min_G = float(state.G.min())
                diagnostics.append((state.t, step, c,
                                    float(np.max(np.abs(state.tau0()))), min_h, min_G))
                if min_h < FLOOR or min_G < FLOOR:
                    status = "SingularityDetected"
                    break
                if nk and c > CONSTRAINT_BLOWUP:
                    status = "ConstraintBlowup"
                    break
            snapshots.append(state)  # the last at a halt: its terminal state
            if status != "Completed":
                break

    return FlowRun(tuple(snapshots), tuple(diagnostics), status, rejected,
                   rhs_evals)
