import dataclasses
import functools
import math

import numpy as np
import pytest

from g2coflow import coflow as cf
from g2coflow import forms as fm
from g2coflow import profiles as pf
from g2coflow.coflow import FlowState, Mesh
from g2coflow.errors import SingularityDetected, StructureMismatch
from g2coflow.forms import StructureKind
from g2coflow.verify import random_g2_profile

CY, NK = StructureKind.CY, StructureKind.NK


def circle_state(n=128, structure=CY, h=None, theta=None, G=None, period=2 * np.pi):
    mesh = Mesh.from_domain(pf.Circle(period), n)
    r = mesh.nodes
    return FlowState(
        mesh=mesh,
        h=np.ones(n) if h is None else h(r),
        theta=np.zeros(n) if theta is None else theta(r),
        G=np.ones(n) if G is None else G(r),
        t=0.0,
        structure=structure,
    )


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_periodic_derivatives_fourth_order():
    errs = []
    for n in (64, 128):
        mesh = Mesh.from_domain(pf.Circle(2 * np.pi), n)
        f = np.sin(mesh.nodes)
        errs.append(max(
            np.max(np.abs(mesh.deriv_matrix(1) @ f - np.cos(mesh.nodes))),
            np.max(np.abs(mesh.deriv_matrix(2) @ f + np.sin(mesh.nodes))),
        ))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_interval_derivatives_fourth_order_at_edges():
    for n in (41, 81):
        mesh = Mesh.from_domain(pf.Interval(0.0, 1.0), n)
        f = np.exp(mesh.nodes)
        assert np.max(np.abs(mesh.deriv_matrix(1) @ f - f)) < 50 * mesh.dr ** 4
        assert np.max(np.abs(mesh.deriv_matrix(2) @ f - f)) < 500 * mesh.dr ** 4


@pytest.mark.parametrize("domain", [pf.Circle(2 * np.pi), pf.Interval(0.0, 1.0)])
def test_deriv_matrix_is_the_shared_stencil_operator(domain):
    mesh = Mesh.from_domain(domain, 33)
    for m in (1, 2):
        op = pf.stencil_operator(mesh.n, mesh.dr, mesh.periodic, m, 4)
        mat = mesh.deriv_matrix(m)
        assert mat.shape == op.shape
        assert np.array_equal(mat.indptr, op.indptr)
        assert np.array_equal(mat.indices, op.indices)
        assert np.array_equal(mat.data, op.data)


@pytest.mark.parametrize("domain", [pf.Circle(2 * np.pi), pf.Interval(0.0, 2.0)])
def test_constraint_residual_is_the_order_2_stencil_and_the_hand_written_one(domain):
    mesh = Mesh.from_domain(domain, 64)
    h = np.exp(np.sin(mesh.nodes))
    # an NK state with G = 1 and theta = 0: c = h' - 1, as a CY h is constant
    state = FlowState(mesh=mesh, h=h, theta=np.zeros(64), G=np.ones(64), t=0.0,
                      structure=NK)
    c = mesh.deriv_matrix(1, order=2) @ h
    assert np.array_equal(state.constraint_residual(), c - 1.0)
    op = pf.stencil_operator(mesh.n, mesh.dr, mesh.periodic, 1, 2)
    assert np.array_equal(c, op @ h)
    # rolled centred differences; (-3, 4, -1)/(2 dr) at interval ends
    terms = np.stack([np.roll(h, -1), -np.roll(h, 1)])
    if not mesh.periodic:
        terms = np.pad(terms, ((0, 1), (0, 0)))
        terms[:, 0] = -3 * h[0], 4 * h[1], -h[2]
        terms[:, -1] = 3 * h[-1], -4 * h[-2], h[-3]
    ref = terms.sum(axis=0) / (2 * mesh.dr)
    ulps = np.abs(terms).sum(axis=0) / (2 * mesh.dr) * np.finfo(float).eps
    assert np.all(np.abs(c - ref) <= 4 * ulps)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_cy_stationary_for_constant_theta():
    s = circle_state(theta=lambda r: 0.4 * np.ones_like(r))
    dtheta, dG = cf.rhs(s)
    assert np.max(np.abs(dtheta)) < 1e-12
    assert np.max(np.abs(dG)) < 1e-12


def test_rhs_cy_linearized_values():
    eps = 0.01
    s = circle_state(n=256, theta=lambda r: eps * np.sin(r))
    dtheta, dG = cf.rhs(s)
    i0 = 0                       # r = 0
    iq = 64                      # r = pi/2
    assert abs(dtheta[i0]) < 1e-9
    assert abs(dtheta[iq] + eps) < 1e-9
    assert abs(dG[i0] + 9 * eps ** 2) < 1e-9


def test_a_cy_state_with_varying_h_is_rejected_at_construction():
    with pytest.raises(StructureMismatch):
        circle_state(h=lambda r: 2 + np.sin(r))


def test_rhs_nk_cone_is_fixed_point():
    mesh = Mesh.from_domain(pf.Interval(0.5, 3.0), 201)
    r = mesh.nodes
    s = FlowState(mesh=mesh, h=r.copy(), theta=np.zeros_like(r),
                  G=np.ones_like(r), t=0.0, structure=NK)
    for rate in cf.rhs(s):
        assert np.max(np.abs(rate)) < 1e-9


def test_rhs_nk_cylinder_values():
    s = circle_state(structure=NK, theta=lambda r: np.pi / 6 * np.ones_like(r))
    dh, dtheta, dG = cf.rhs(s)
    assert np.max(np.abs(dh + 3.0)) < 1e-12
    assert np.max(np.abs(dtheta)) < 1e-12
    assert np.max(np.abs(dG + 3.0)) < 1e-12


def test_G_rate_never_positive():
    rng = np.random.default_rng(31)
    for structure in (CY, NK):
        for _ in range(5):
            n = 96
            s = circle_state(
                n=n, structure=structure,
                h=(None if structure is CY
                   else (lambda r: 1.5 + 0.3 * np.sin(r))),
                theta=lambda r: rng.uniform(-1, 1) + 0.5 * np.cos(r),
                G=lambda r: 1.0 + 0.4 * np.sin(r + rng.uniform(0, 6)),
            )
            dG = cf.rhs(s)[-1]
            assert np.max(dG) <= 1e-14


# ---------------------------------------------------------------------------
# RHS against the form-algebra oracle
# ---------------------------------------------------------------------------

def extract_rates_from_laplacian(g, rs):
    """Coefficient-matched time derivatives from -Delta_d psi.

    psi = (i G F^3/2) dr^Omega - c.c. - h^4 omega^2/2, so equating the
    coefficient evolution to the Laplacian gives dt(-h^4) = B and
    dt(i G F^3 / 2) = A.
    """
    lap = fm.hodge_laplacian_psi(g, tol=1e-7)
    A = np.asarray(lap.coeff("dr_Omega").value(rs))
    B = np.real(np.asarray(lap.coeff("omega2_half").value(rs)))
    h = np.real(np.asarray(g.h.value(rs)))
    G = np.real(np.asarray(g.G.value(rs)))
    F3 = np.asarray(g.F_cubed().value(rs))
    h_t = -B / (4.0 * h ** 3)
    w = -2.0j * A / F3 - 3.0 * G * h_t / h
    return h_t, np.imag(w) / (3.0 * G), np.real(w)


def test_rhs_matches_laplacian_oracle():
    rng = np.random.default_rng(32)
    dom = pf.Circle(2 * np.pi)
    rs = dom.sample_points(40, interior=True)
    for structure in (CY, NK):
        for _ in range(5):
            g = random_g2_profile(rng, structure, dom, coclosed=True)
            jh, jth, jG = g.h.jet(rs), g.theta.jet(rs), g.G.jet(rs)
            h, h1, h2 = (np.real(np.asarray(c)) for c in jh.c[:3])
            th, th1, th2 = (np.real(np.asarray(c)) for c in jth.c[:3])
            G, G1 = (np.real(np.asarray(c)) for c in jG.c[:2])
            if structure is CY:
                dtheta, dG = cf.cy_rates(th1, th2, G, G1)
                dh = np.zeros_like(h)
            else:
                dh, dtheta, dG = cf.nk_rates(h, h1, h2, th, th1, th2, G, G1)
            oh, otheta, oG = extract_rates_from_laplacian(g, rs)
            assert np.max(np.abs(dh - oh)) < 1e-8
            assert np.max(np.abs(dtheta - otheta)) < 1e-8
            assert np.max(np.abs(dG - oG)) < 1e-8


# ---------------------------------------------------------------------------
# stepping and full runs
# ---------------------------------------------------------------------------

def test_cy_heat_decay_short():
    eps = 0.01
    s = circle_state(n=128, theta=lambda r: eps * np.sin(r))
    run = cf.run_flow(s, t_end=0.5)
    assert run.status == "Completed"
    final = run.snapshots[-1]
    assert abs(np.max(np.abs(final.theta)) - eps * np.exp(-0.5)) < 2e-5
    assert np.max(np.abs(final.G - 1.0)) < 5e-4
    # G never increases along the run
    mins = [np.min(d[5]) for d in run.diagnostics]
    assert all(b <= a + 1e-14 for a, b in zip(mins, mins[1:]))


def test_nk_cone_data_is_stationary():
    mesh = Mesh.from_domain(pf.Interval(0.5, 3.0), 101)
    r = mesh.nodes
    s = FlowState(mesh=mesh, h=r.copy(), theta=np.zeros_like(r),
                  G=np.ones_like(r), t=0.0, structure=NK)
    run = cf.run_flow(s, t_end=0.1)
    assert run.status == "Completed"
    final = run.snapshots[-1]
    assert np.max(np.abs(final.h - r)) < 1e-10
    assert np.max(np.abs(final.theta)) < 1e-10
    assert np.max(np.abs(final.G - 1.0)) < 1e-10


def near_cylinder_state(n, eps=1e-3):
    """Constraint-satisfying NK data close to the cylinder soliton."""
    dom = pf.Circle(2 * np.pi)
    theta = np.pi / 6 + eps * pf.cos(pf.coordinate(dom))
    G = pf.constant(1.0, dom)
    h = pf.antiderivative(G * pf.cos(3 * theta), 0.0, 1.0)
    mesh = Mesh.from_domain(dom, n)
    r = mesh.nodes
    return FlowState(mesh=mesh, h=np.real(h.value(r)),
                     theta=np.real(theta.value(r)), G=np.ones(n),
                     t=0.0, structure=NK)


def test_nk_near_cylinder_runs_and_constraint_small():
    s = near_cylinder_state(128)
    run = cf.run_flow(s, t_end=0.05)
    assert run.status == "Completed"
    drift = max(d[2] for d in run.diagnostics)
    assert drift < 1e-4


def test_constraint_drift_second_order():
    drifts = []
    for n in (64, 128, 256):
        run = cf.run_flow(near_cylinder_state(n), t_end=0.02)
        assert run.status == "Completed"
        drifts.append(max(d[2] for d in run.diagnostics))
    r1 = drifts[0] / drifts[1]
    r2 = drifts[1] / drifts[2]
    assert 2.5 < r1 < 6.5
    assert 2.5 < r2 < 6.5


def test_nk_cylinder_collapse_matches_exact_solution():
    # cylinder data is spatially uniform, so the PDE reduces to the exact
    # self-similar collapse h(t) = G(t) = sqrt(1 - 6t), theta = pi/6
    s = circle_state(n=64, structure=NK,
                     theta=lambda r: np.pi / 6 * np.ones_like(r))
    run = cf.run_flow(s, t_end=0.1, output_times=(0.05,))
    assert run.status == "Completed"
    for snap in run.snapshots:
        exact = np.sqrt(1.0 - 6.0 * snap.t)
        assert np.max(np.abs(snap.h - exact)) < 1e-10
        assert np.max(np.abs(snap.G - exact)) < 1e-10
        assert np.max(np.abs(snap.theta - np.pi / 6)) < 1e-12


def test_cylinder_singularity_time_is_one_sixth():
    s = circle_state(n=64, structure=NK,
                     theta=lambda r: np.pi / 6 * np.ones_like(r))
    run = cf.run_flow(s, t_end=1.0)
    assert run.status == "SingularityDetected"
    # h^2 = 1 - 6t reaches the positivity floor at t = 1/6 up to floor^2/6
    assert abs(run.diagnostics[-1][0] - 1.0 / 6.0) < 1e-4


def test_nk_sine_cone_flows_self_similarly_in_the_interior():
    # the sine-cone is a shrinker with no diffeomorphism part (k' = 0), so
    # under the flow it only rescales. The 4-form scale c solves
    # c' = lambda sqrt(c), so the metric factor is sqrt(1 - 8t):
    # h -> sqrt(1-8t) sin r, G -> sqrt(1-8t), theta frozen. Frozen Dirichlet
    # endpoints cannot follow the rescaling, so a boundary layer forms and
    # trips the constraint monitor; until then the interior must track the
    # exact solution.
    n = 256
    mesh = Mesh.from_domain(pf.Interval(0.2, np.pi - 0.2), n)
    r = mesh.nodes
    s = FlowState(mesh=mesh, h=np.sin(r), theta=r / 3, G=np.ones(n),
                  t=0.0, structure=NK)
    run = cf.run_flow(s, t_end=0.002)
    assert run.status == "ConstraintBlowup"   # boundary layer, by design
    final = run.snapshots[-1]
    assert final.t > 0
    mid = slice(n // 4, 3 * n // 4)
    scale = np.sqrt(1.0 - 8.0 * final.t)
    assert np.max(np.abs(final.h[mid] - scale * np.sin(r[mid]))) < 1e-10
    assert np.max(np.abs(final.G[mid] - scale)) < 1e-10
    assert np.max(np.abs(final.theta[mid] - r[mid] / 3)) < 1e-12


def test_run_flow_rejects_constraint_violating_nk_data():
    s = circle_state(structure=NK, h=lambda r: 1.5 + 0.5 * np.sin(r),
                     theta=lambda r: np.zeros_like(r))
    with pytest.raises(SingularityDetected):
        cf.run_flow(s, t_end=0.01)


def one_step_states():
    interval = Mesh.from_domain(pf.Interval(0.0, 2 * np.pi), 97)
    r = interval.nodes
    cy_interval = FlowState(mesh=interval, h=1.5 * np.ones_like(r),
                            theta=0.3 * np.sin(r / 2), G=1 + 0.1 * np.sin(r),
                            t=0.0, structure=CY)
    cone = Mesh.from_domain(pf.Interval(0.2, np.pi - 0.2), 256)
    r = cone.nodes
    sine_cone = FlowState(mesh=cone, h=np.sin(r), theta=r / 3, G=np.ones_like(r),
                          t=0.0, structure=NK)
    return {
        "cy-circle": circle_state(n=96, theta=lambda r: 0.2 * np.sin(r),
                                  G=lambda r: 1 + 0.1 * np.cos(r)),
        "cy-interval": cy_interval,
        "nk-circle": near_cylinder_state(96, eps=1e-2),
        "nk-interval": sine_cone,
    }


CASES = ["cy-circle", "cy-interval", "nk-circle", "nk-interval"]
FIELDS = {CY: ("theta", "G"), NK: ("h", "theta", "G")}


def public_flat_rhs(s):
    """The public rhs as a function of the flat vector of state s's evolved
    fields."""
    names = FIELDS[s.structure]

    def rates(y):
        fields = dict(zip(names, y.reshape(len(names), -1)))
        return np.concatenate(cf.rhs(dataclasses.replace(s, **fields)))

    return rates


@functools.cache
def chebyshev(s):
    """(w0, w1, (1/T_j(w0))) of the s-stage damped Chebyshev step."""
    w0 = 1.0 + 2.0 / s ** 2
    T, dT = [1.0, w0], [0.0, 1.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
    return w0, T[s] / dT[s], tuple(1.0 / v for v in T)


def extrapolated_step(F, y, dt, s):
    """k s-stage damped Chebyshev steps of size dt/k for k = 1..4, combined
    to 4th order with the weights -1/6, 4, -27/2, 32/3 and to 3rd order with
    2, -9, 8 from k = 2..4."""
    w0, w1, b = chebyshev(s)
    results = []
    for k in (1, 2, 3, 4):
        h, yk = dt / k, y
        for _ in range(k):
            prev, cur = yk, yk + (w1 / w0 * h) * F(yk)
            for j in range(2, s + 1):
                mu = b[j] / b[j - 1]
                prev, cur = cur, ((2.0 * w0 * mu) * cur - (b[j] / b[j - 2]) * prev
                                  + (2.0 * w1 * mu * h) * F(cur))
            yk = cur
        results.append(yk)
    y1, y2, y3, y4 = results
    return (-1.0 / 6.0 * y1 + 4.0 * y2 - 13.5 * y3 + 32.0 / 3.0 * y4,
            2.0 * y2 - 9.0 * y3 + 8.0 * y4)


def public_extrapolated_steps(s, t_end, max_steps, output_times=()):
    """run_flow's documented stepping at its default cfl, written out over
    the public rhs: macro steps toward t_end that stop at output
    times, after max_steps accepted steps, and where run_flow halts.

    Returns the state at each output time and at the end, the (t, dt) row of
    each accepted step, the status, the rejected steps and the RHS
    evaluations, 10 s for every attempted step of s stages.
    """
    F, names = public_flat_rhs(s), FIELDS[s.structure]
    mesh, nk = s.mesh, s.structure is NK
    state, snaps, rows, rejected, evals = s, [], [], 0, 0
    status = "Completed"
    dt = 0.2 * float(np.min(s.G) ** 2) * mesh.dr ** 2
    for mark in sorted(t for t in output_times if s.t < t <= t_end) + [t_end]:
        while (state.t < mark - 1e-14 and len(rows) < max_steps
               and status == "Completed"):
            step = min(dt, mark - state.t)
            min_h, min_G = float(np.min(state.h)), float(np.min(state.G))
            rho = 16.0 / 3.0 / (min_G ** 2 * mesh.dr ** 2)
            if nk:
                rho += 12.0 / min_h ** 2 + 10.0 / (min_h * min_G * mesh.dr)
            stages = 1
            while (0.9 * (1.0 + chebyshev(stages)[0]) / chebyshev(stages)[1]
                   < rho * step):
                stages += 1
            y = np.concatenate([getattr(state, name) for name in names])
            evals += 10 * stages
            new, low = extrapolated_step(F, y, step, stages)
            try:
                candidate = dataclasses.replace(
                    state, t=state.t + step,
                    **dict(zip(names, new.reshape(len(names), -1))))
                err = float(np.sqrt(np.mean(np.square(
                    (new - low) / (cf.TOL * (1.0 + np.abs(y)))))))
            except SingularityDetected:   # h or G not positive: reject
                err = np.inf
            grow = min(4.0, max(0.2, 0.9 * err ** -0.25)) if err > 0 else 4.0
            if err > 1.0:
                rejected += 1
                dt = grow * step
                continue
            if step == dt:   # a step cut short at an output time keeps dt
                dt = grow * step
            state = candidate
            rows.append((state.t, step))
            if min(np.min(state.h), np.min(state.G)) < cf.FLOOR:
                status = "SingularityDetected"
            elif nk and (np.max(np.abs(state.constraint_residual()))
                         > cf.CONSTRAINT_BLOWUP):
                status = "ConstraintBlowup"
        snaps.append(state)
        if status != "Completed" or len(rows) == max_steps:
            break
    return snaps, rows, status, rejected, evals


def assert_run_is(run, s, reference):
    snaps, rows, status, rejected, evals = reference
    assert run.status == status
    assert [row[:2] for row in run.diagnostics] == rows
    assert (run.steps, run.rejected, run.rhs_evals) == (len(rows), rejected, evals)
    assert [snap.t for snap in run.snapshots] == [snap.t for snap in snaps]
    for snap, want in zip(run.snapshots, snaps):
        for name in ("h", "theta", "G"):
            assert np.array_equal(getattr(snap, name), getattr(want, name))
    if s.structure is CY:
        assert np.array_equal(run.snapshots[-1].h, s.h)


@pytest.mark.parametrize("case", CASES)
def test_a_flow_step_is_one_extrapolated_step_of_the_public_rhs(case):
    s = one_step_states()[case]
    # the first accepted step: on the circles the first trial step
    # 0.2 min(G)^2 dr^2, on the intervals a retry after one rejection
    _, (first,), *_ = public_extrapolated_steps(s, np.inf, 1)
    run = cf.run_flow(s, t_end=first[0])
    reference = public_extrapolated_steps(s, first[0], np.inf)
    assert reference[1] == [first]
    assert_run_is(run, s, reference)


@pytest.mark.parametrize("case", CASES)
def test_25_flow_steps_are_25_extrapolated_steps_of_the_public_rhs(case):
    s = one_step_states()[case]
    _, free, status, *_ = public_extrapolated_steps(s, np.inf, 25)
    if case == "nk-interval":
        # the frozen endpoints of the sine cone break the constraint at once
        assert (status, len(free)) == ("ConstraintBlowup", 12)
        t_end = 1.0
    else:
        assert (status, len(free)) == ("Completed", 25)
        t_end = free[23][0] + 0.5 * free[24][1]   # the 25th step is cut short
    run = cf.run_flow(s, t_end=t_end)
    reference = public_extrapolated_steps(s, t_end, np.inf)
    assert reference[1][:-1] == free[:-1]
    assert_run_is(run, s, reference)


@pytest.mark.parametrize("case", CASES)
def test_flow_steps_across_output_times_are_the_public_extrapolated_steps(case):
    # an output time cuts a step short and leaves the next trial step as it
    # was; the rejected steps of cy-interval are retried at the shorter step
    s = one_step_states()[case]
    _, free, *_ = public_extrapolated_steps(s, np.inf, 12)
    marks = (free[5][0] + 0.3 * free[6][1], free[8][0] + 0.9 * free[9][1])
    run = cf.run_flow(s, t_end=free[-1][0], output_times=marks)
    assert run.status == ("ConstraintBlowup" if case == "nk-interval" else "Completed")
    assert_run_is(run, s, public_extrapolated_steps(s, free[-1][0], np.inf, marks))
    if case == "cy-interval":
        assert run.rejected > 0


def test_rhs_evals_are_ten_per_stage_of_every_attempted_step():
    s = one_step_states()["cy-interval"]
    run = cf.run_flow(s, t_end=0.01)
    *_, rejected, evals = public_extrapolated_steps(s, 0.01, np.inf)
    assert run.rejected == rejected > 0
    assert run.rhs_evals == evals


@pytest.mark.parametrize("n", [8, 97, 512])
@pytest.mark.parametrize("domain", [pf.Circle(2 * np.pi), pf.Interval(0.2, 3.0)])
def test_public_rhs_is_the_rates_of_per_field_stencil_products(domain, n):
    mesh = Mesh.from_domain(domain, n)
    rng = np.random.default_rng(n)
    h, theta, G = 1.0 + rng.random(n), rng.normal(size=n), 0.5 + rng.random(n)
    D1, D2 = mesh.deriv_matrix(1), mesh.deriv_matrix(2)
    cases = [
        (cf.rhs(FlowState(mesh=mesh, h=np.full(n, 1.5), theta=theta, G=G,
                          t=0.0, structure=CY)),
         cf.cy_rates(D1 @ theta, D2 @ theta, G, D1 @ G)),
        (cf.rhs(FlowState(mesh=mesh, h=h, theta=theta, G=G, t=0.0,
                          structure=NK)),
         cf.nk_rates(h, D1 @ h, D2 @ h, theta, D1 @ theta, D2 @ theta, G, D1 @ G)),
    ]
    for got, want in cases:
        assert len(got) == len(want)
        for rate, expected in zip(got, want):
            if not mesh.periodic:
                expected[0] = expected[-1] = 0.0  # Dirichlet: endpoints frozen
            assert np.array_equal(rate, expected)


@pytest.mark.parametrize("n", [8, 97, 512])
@pytest.mark.parametrize("domain", [pf.Circle(2 * np.pi), pf.Interval(0.2, 3.0)])
@pytest.mark.parametrize("structure", [CY, NK])
def test_each_row_of_a_batched_rhs_is_the_rhs_of_that_row_alone(structure, domain, n):
    mesh = Mesh.from_domain(domain, n)
    rhs = cf._rhs(mesh, structure)
    k = len(FIELDS[structure])
    positive = (0, 2) if structure is NK else (1,)   # h and G
    rng = np.random.default_rng(n)
    fields = rng.normal(size=(4, k, n))
    fields[:, positive] = 0.5 + rng.random((4, len(positive), n))
    Y = fields.reshape(4, k * n)
    for m in (1, 2, 3, 4):
        got = rhs(Y[:m])
        assert got.shape == (m, k * n)
        for row in range(m):
            assert np.array_equal(got[row], rhs(Y[row]))
        if not mesh.periodic:   # Dirichlet: every field's endpoints frozen
            assert not np.any(got.reshape(m, k, n)[:, :, [0, -1]])
    for row in range(4):
        for field in positive:
            bad = fields.copy()
            bad[row, field, n // 2] = 0.0 if row % 2 else -0.5
            for m in (row + 1, 4):
                with pytest.raises(SingularityDetected):
                    rhs(bad.reshape(4, k * n)[:m])


@pytest.mark.parametrize("s", [1, 2, 5])
def test_a_macro_step_runs_the_four_sequences_in_lockstep(s):
    # one call for F(y), shared by the four first stages; then the batch
    # loses the sequence k = 1, 2, 3 after its 1, 2, 3 base steps: 4 s calls
    # that evaluate 10 s - 3 states, with the results of four separate
    # sequences bit for bit
    z = np.linspace(-3.0, 0.0, 7)
    shapes = []

    def F(y):
        shapes.append(y.shape)
        return z * y

    y = 1.0 + np.linspace(0.0, 1.0, 7)
    got = cf._extrapolated_step(F, y, 0.3, s)
    assert shapes == ([(7,)] + [(4, 7)] * (s - 1) + [(3, 7)] * s
                      + [(2, 7)] * s + [(1, 7)] * s)
    assert len(shapes) == 4 * s
    assert sum(math.prod(shape[:-1]) for shape in shapes) == 10 * s - 3
    for lockstep, sequential in zip(got, extrapolated_step(lambda v: z * v, y, 0.3, s)):
        assert np.array_equal(lockstep, sequential)


def dop853_cases(n):
    """(state, t_end) of CY and NK runs on a circle and on an interval at n
    nodes. The CY phases are small, so the accurate steps are long and take
    up to 9 stages at n = 32; the NK h solves h' = G cos 3 theta."""
    circle = Mesh.from_domain(pf.Circle(2 * np.pi), n)
    interval = pf.Interval(0.5, 3.0)
    mesh = Mesh.from_domain(interval, n)
    r = mesh.nodes
    bump = 0.02 * pf.sin(np.pi * (pf.coordinate(interval) - 0.5) / 2.5)
    h = pf.antiderivative(pf.cos(3 * bump), 0.5, 0.5)
    return {
        "cy-circle": (FlowState(mesh=circle, h=np.ones(n),
                                theta=1e-4 * np.sin(circle.nodes),
                                G=1 + 0.1 * np.cos(circle.nodes), t=0.0,
                                structure=CY), 0.5),
        "cy-interval": (FlowState(mesh=mesh, h=np.full(n, 1.5),
                                  theta=0.1 + 1e-4 * np.sin(np.pi * (r - 0.5) / 2.5),
                                  G=1 + 0.1 * np.sin(r), t=0.0, structure=CY), 0.5),
        "nk-circle": (near_cylinder_state(n), 0.05),
        "nk-interval": (FlowState(mesh=mesh, h=np.real(h.value(r)),
                                  theta=np.real(bump.value(r)), G=np.ones(n),
                                  t=0.0, structure=NK), 0.05),
    }


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("case", CASES)
def test_flow_matches_dop853_on_the_same_rhs(case, n):
    # an independent route through the same semi-discrete system: scipy's
    # DOP853 at rtol = atol = 1e-12. The flow differs from it by 3e-11 at
    # most. A wrong extrapolation weight or recurrence coefficient either
    # moves the result by far more or fails the error test at every step
    # of two or more stages, which the bound on rejected steps catches
    from scipy.integrate import solve_ivp

    s, t_end = dop853_cases(n)[case]
    run = cf.run_flow(s, t_end=t_end)
    assert run.status == "Completed"
    assert run.rejected <= 3
    names = FIELDS[s.structure]
    y0 = np.concatenate([getattr(s, name) for name in names])
    final = run.snapshots[-1]
    F = public_flat_rhs(s)
    sol = solve_ivp(lambda _t, y: F(y), (0.0, final.t), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.success
    got = np.concatenate([getattr(final, name) for name in names])
    assert np.max(np.abs(got - sol.y[:, -1])) < 1e-10
    assert np.max(np.abs(got - y0)) > 1e-5   # the fields do move


MAX_STAGES = 400   # tier-1 and the benchmark's flow runs use at most 78


def chebyshev_t(s, x):
    """T_s(x) for x >= -1, from cos(s arccos x) and cosh(s arccosh x)."""
    return np.where(x > 1.0, np.cosh(s * np.arccosh(np.maximum(x, 1.0))),
                    np.cos(s * np.arccos(np.clip(x, -1.0, 1.0))))


def extrapolated_polynomial(s, w0, w1, z):
    """sum_k w_k R(z/k)^k with R(z) = T_s(w0 + w1 z)/T_s(w0) and the
    weights -1/6, 4, -27/2, 32/3: the macro step's factor on y' = z y, dt = 1."""
    weights = (-1.0 / 6.0, 4.0, -27.0 / 2.0, 32.0 / 3.0)
    return sum(w * (chebyshev_t(s, w0 + w1 * z / k) / chebyshev_t(s, w0)) ** k
               for k, w in enumerate(weights, start=1))


def test_extrapolated_step_is_stable_for_every_stage_count():
    # w1 = T_s(w0)/T_s'(w0) against numpy's Chebyshev series; every s is the
    # one the stepper picks just inside 0.9 beta(s); and on a grid fine
    # against the polynomial's ~4s oscillations the step stays in the unit
    # disc over [-0.9 beta(s), 0]
    for s in range(1, MAX_STAGES + 1):
        w0, w1, _ = cf.chebyshev_coefficients(s)
        T = np.polynomial.Chebyshev.basis(s)
        assert w0 == 1.0 + 2.0 / s ** 2
        assert abs(w1 - T(w0) / T.deriv()(w0)) < 1e-12 * w1
        beta = (1.0 + w0) / w1
        assert 0.964 * s ** 2 < beta <= 2.0 * s ** 2
        assert cf.stages(0.9 * beta * (1.0 - 1e-9)) == s
        z = np.linspace(-0.9 * beta, 0.0, 40 * s + 400)
        assert np.max(np.abs(extrapolated_polynomial(s, w0, w1, z))) <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [1, 2, 3, 7, 40, 300])
def test_extrapolated_step_on_the_test_equation_is_its_polynomial(s):
    # the stepper itself on y' = z y, dt = 1: its factor is the polynomial
    # (to the rounding of 10 s stages), and against e^z its two results
    # have local errors O(z^5) and O(z^4): orders 4 and 3
    w0, w1, _ = cf.chebyshev_coefficients(s)
    z = np.linspace(-0.9 * (1.0 + w0) / w1, 0.0, 2001)
    high, _ = cf._extrapolated_step(lambda y: z * y, np.ones_like(z), 1.0, s)
    assert np.max(np.abs(high - extrapolated_polynomial(s, w0, w1, z))) < 1e-10
    z = np.array([-0.1, -0.05])
    for got, order in zip(cf._extrapolated_step(lambda y: z * y, np.ones(2), 1.0, s),
                          (4, 3)):
        err = np.abs(got - np.exp(z))
        assert abs(np.log2(err[0] / err[1]) - (order + 1)) < 0.3


def test_nk_rates_is_the_written_out_formula():
    rng = np.random.default_rng(3)
    n = 2000
    # h and G from just above the positivity floor up to O(100)
    h, G = (rng.permutation(np.concatenate([cf.FLOOR * (1.0 + rng.random(100)),
                                            10.0 ** rng.uniform(-4, 2, n - 100)]))
            for _ in range(2))
    theta, h1, h2, theta1, theta2, G1 = rng.normal(size=(6, n))
    s3, c3 = np.sin(3.0 * theta), np.cos(3.0 * theta)
    want = (
        h2 / G ** 2 + 3.0 * h1 ** 2 / (h * G ** 2) - h1 * G1 / G ** 3 - 3.0 / h,
        theta2 / G ** 2 + 6.0 * theta1 * c3 / (h * G) - theta1 * G1 / G ** 3
        - 2.0 * s3 * c3 / h ** 2,
        -3.0 * G * s3 ** 2 / h ** 2 - 9.0 * theta1 ** 2 / G,
    )
    got = cf.nk_rates(h, h1, h2, theta, theta1, theta2, G, G1)
    assert len(got) == 3
    for rate, expected in zip(got, want):
        assert np.array_equal(rate, expected)


def test_singularity_detection_stops_run():
    # cylinder data shrinks h at rate -3/h; h hits the floor in t ~ 1/6
    s = circle_state(n=64, structure=NK,
                     theta=lambda r: np.pi / 6 * np.ones_like(r))
    run = cf.run_flow(s, t_end=1.0)
    assert run.status == "SingularityDetected"
    assert run.diagnostics[-1][0] < 1.0


def test_snapshots_at_output_times():
    s = circle_state(n=64, theta=lambda r: 0.01 * np.sin(r))
    run = cf.run_flow(s, t_end=0.2, output_times=(0.05, 0.1, 0.15))
    times = [snap.t for snap in run.snapshots]
    assert np.allclose(times, [0.05, 0.1, 0.15, 0.2])


@pytest.mark.parametrize("structure", [CY, NK])
def test_step_diagnostics_match_the_state_methods(structure):
    s = near_cylinder_state(64) if structure is NK else circle_state(
        n=64, theta=lambda r: 0.01 * np.sin(r))
    run = cf.run_flow(s, t_end=0.01)
    final = run.snapshots[-1]
    _, _, c, tau0_sup, _, _ = run.diagnostics[-1]
    assert tau0_sup == np.max(np.abs(final.tau0()))
    if structure is NK:
        assert c == np.max(np.abs(final.constraint_residual()))


def test_positivity_lost_inside_the_first_stage_halts_at_t0():
    # dh/dt = -3/h = -60: the first trial step, 0.2 dr^2 ~ 0.0019, would move
    # h = 0.05 by -0.12, so a stage of its first base step has h below zero
    s = circle_state(n=64, structure=NK, h=lambda r: np.full_like(r, 0.05),
                     theta=lambda r: np.full_like(r, np.pi / 6))
    run = cf.run_flow(s, t_end=0.01)
    assert run.status == "SingularityDetected"
    assert run.diagnostics == ()
    (final,) = run.snapshots
    assert final.t == 0.0
    for name in ("h", "theta", "G"):
        assert np.array_equal(getattr(final, name), getattr(s, name))


def test_a_step_whose_result_loses_positivity_is_retried_shorter():
    # h = 0.1 on the cylinder: the stages of the first trial step keep h > 0
    # but their extrapolation does not, so that step is rejected; the run
    # then follows h^2 = 0.01 - 6t down to the floor
    s = circle_state(n=64, structure=NK, h=lambda r: np.full_like(r, 0.1),
                     theta=lambda r: np.full_like(r, np.pi / 6))
    run = cf.run_flow(s, t_end=0.01)
    assert run.status == "SingularityDetected"
    assert run.rejected > 0
    assert run.diagnostics[0][1] < 0.2 * s.mesh.dr ** 2
    assert abs(run.diagnostics[-1][0] - 0.01 / 6.0) < 1e-9


def test_flow_formulas_converge_to_the_form_algebra_on_coclosed_data():
    # two routes: the flow's array formulas on sampled fields against the
    # closed-form torsion and the exact constraint h' = G cos 3 theta that
    # the quadrature-built h satisfies. An interval, since coclosed NK h is
    # not periodic.
    from g2coflow.torsion import tau01_closed

    dom = pf.Interval(0.0, 2 * np.pi)
    g = random_g2_profile(np.random.default_rng(0), NK, domain=dom, coclosed=True)
    tau0 = tau01_closed(g)[0]
    tau0_err, constraint = [], []
    for n in (128, 256, 512):
        mesh = Mesh.from_domain(dom, n)
        r = mesh.nodes
        s = FlowState(mesh=mesh, h=np.real(g.h(r)), theta=np.real(g.theta(r)),
                      G=np.real(g.G(r)), t=0.0, structure=NK)
        tau0_err.append(np.max(np.abs(s.tau0() - np.real(tau0(r)))))
        constraint.append(np.max(np.abs(s.constraint_residual())))
    assert tau0_err[-1] < 1e-7
    assert np.all(np.log2(np.divide(tau0_err[:-1], tau0_err[1:])) > 3.7)
    assert constraint[-1] < 1e-3
    assert np.all(np.log2(np.divide(constraint[:-1], constraint[1:])) > 1.9)


def test_a_long_run_caps_its_stages_and_halts_at_its_work_budget(monkeypatch):
    # the decayed CY state admits ever longer steps; the stage cap shortens
    # each one to the stability interval of MAX_STAGES stages, and the budget
    # (lowered here to keep the run short) ends the run
    seen, stages = [], cf.stages

    def counted(rho_dt):
        seen.append(stages(rho_dt))
        return seen[-1]

    monkeypatch.setattr(cf, "stages", counted)
    monkeypatch.setattr(cf, "MAX_RHS_EVALS", 20_000)
    s = circle_state(n=16, theta=lambda r: 0.01 * np.sin(r))
    run = cf.run_flow(s, t_end=1e300)
    assert run.status == "WorkBudgetExceeded"
    assert max(seen) == cf.MAX_STAGES and seen.count(cf.MAX_STAGES) > 1
    assert cf.MAX_RHS_EVALS - 10 * cf.MAX_STAGES < run.rhs_evals <= cf.MAX_RHS_EVALS
    assert run.snapshots[-1].t == run.diagnostics[-1][0] < 1e300


def test_t_end_among_the_output_times_is_snapshotted_once():
    s = circle_state(n=32, theta=lambda r: 0.01 * np.sin(r))
    run = cf.run_flow(s, t_end=0.1, output_times=(0.05, 0.1))
    times = [snap.t for snap in run.snapshots]
    assert len(times) == 2 and np.allclose(times, [0.05, 0.1])


@pytest.mark.parametrize("output_times, want", [
    ((0.1 - 1e-15,), [0.1]),
    ((0.05, 0.05 + 1e-15), [0.05 + 1e-15, 0.1]),
])
def test_an_output_time_within_1e_14_below_the_next_is_not_snapshotted(
        output_times, want):
    s = circle_state(n=32, theta=lambda r: 0.01 * np.sin(r))
    run = cf.run_flow(s, t_end=0.1, output_times=output_times)
    assert [snap.t for snap in run.snapshots] == want
