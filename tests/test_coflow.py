import dataclasses

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
# derivatives and the scalar Laplacian
# ---------------------------------------------------------------------------

def test_periodic_derivatives_fourth_order():
    errs = []
    for n in (64, 128):
        mesh = Mesh.from_domain(pf.Circle(2 * np.pi), n)
        f = np.sin(mesh.nodes)
        errs.append(max(
            np.max(np.abs(cf.d1(mesh, f) - np.cos(mesh.nodes))),
            np.max(np.abs(cf.d2(mesh, f) + np.sin(mesh.nodes))),
        ))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_interval_derivatives_fourth_order_at_edges():
    for n in (41, 81):
        mesh = Mesh.from_domain(pf.Interval(0.0, 1.0), n)
        f = np.exp(mesh.nodes)
        assert np.max(np.abs(cf.d1(mesh, f) - f)) < 50 * mesh.dr ** 4
        assert np.max(np.abs(cf.d2(mesh, f) - f)) < 500 * mesh.dr ** 4


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


def test_periodic_low_order_derivative_matches_the_rolled_stencil():
    mesh = Mesh.from_domain(pf.Circle(2 * np.pi), 64)
    f = np.exp(np.sin(mesh.nodes))
    rolled = (np.roll(f, -1) - np.roll(f, 1)) / (2 * mesh.dr)
    assert np.array_equal(cf.d1_low_order(mesh, f), rolled)


def test_scalar_laplacian_examples():
    mesh = Mesh.from_domain(pf.Interval(1.0, 2.0), 101)
    r = mesh.nodes
    f = r ** 2
    flat = FlowState(mesh=mesh, h=np.ones_like(r), theta=np.zeros_like(r),
                     G=np.ones_like(r), t=0.0, structure=CY)
    assert np.max(np.abs(cf.scalar_laplacian(f, flat) - 2.0)) < 1e-9

    coned = FlowState(mesh=mesh, h=r, theta=np.zeros_like(r),
                      G=np.ones_like(r), t=0.0, structure=NK)
    assert np.max(np.abs(cf.scalar_laplacian(f, coned) - 14.0)) < 1e-8

    slow = FlowState(mesh=mesh, h=np.ones_like(r), theta=np.zeros_like(r),
                     G=2.0 * np.ones_like(r), t=0.0, structure=CY)
    assert np.max(np.abs(cf.scalar_laplacian(f, slow) - 0.5)) < 1e-9


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_cy_stationary_for_constant_theta():
    s = circle_state(theta=lambda r: 0.4 * np.ones_like(r))
    dtheta, dG = cf.rhs_cy(s)
    assert np.max(np.abs(dtheta)) < 1e-12
    assert np.max(np.abs(dG)) < 1e-12


def test_rhs_cy_linearized_values():
    eps = 0.01
    s = circle_state(n=256, theta=lambda r: eps * np.sin(r))
    dtheta, dG = cf.rhs_cy(s)
    i0 = 0                       # r = 0
    iq = 64                      # r = pi/2
    assert abs(dtheta[i0]) < 1e-9
    assert abs(dtheta[iq] + eps) < 1e-9
    assert abs(dG[i0] + 9 * eps ** 2) < 1e-9


def test_rhs_cy_rejects_wrong_structure_and_varying_h():
    s = circle_state(structure=NK, theta=lambda r: 0 * r + np.pi / 6)
    with pytest.raises(StructureMismatch):
        cf.rhs_cy(s)
    bad = circle_state(h=lambda r: 2 + np.sin(r))
    with pytest.raises(StructureMismatch):
        cf.rhs_cy(bad)


def test_rhs_nk_cone_is_fixed_point():
    mesh = Mesh.from_domain(pf.Interval(0.5, 3.0), 201)
    r = mesh.nodes
    s = FlowState(mesh=mesh, h=r.copy(), theta=np.zeros_like(r),
                  G=np.ones_like(r), t=0.0, structure=NK)
    for rate in cf.rhs_nk(s):
        assert np.max(np.abs(rate)) < 1e-9


def test_rhs_nk_cylinder_values():
    s = circle_state(structure=NK, theta=lambda r: np.pi / 6 * np.ones_like(r))
    dh, dtheta, dG = cf.rhs_nk(s)
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
            dG = cf.rhs_cy(s)[1] if structure is CY else cf.rhs_nk(s)[2]
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


def test_run_flow_rejects_cy_data_with_varying_h():
    s = circle_state(h=lambda r: 2 + np.sin(r), theta=lambda r: 0.01 * np.sin(r))
    with pytest.raises(StructureMismatch):
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


@pytest.mark.parametrize("case", ["cy-circle", "cy-interval", "nk-circle",
                                  "nk-interval"])
def test_a_flow_step_is_one_rk4_step_of_the_public_rhs(case):
    s = one_step_states()[case]
    if s.structure is CY:
        names, rhs = ("theta", "G"), cf.rhs_cy
    else:
        names, rhs = ("h", "theta", "G"), cf.rhs_nk
    dt = 0.2 * float(np.min(s.G) ** 2) * s.mesh.dr ** 2   # run_flow's default cfl

    def shifted(k, scale):
        return dataclasses.replace(s, **{name: getattr(s, name) + scale * rate
                                         for name, rate in zip(names, k)})

    k1 = rhs(s)
    k2 = rhs(shifted(k1, 0.5 * dt))
    k3 = rhs(shifted(k2, 0.5 * dt))
    k4 = rhs(shifted(k3, dt))
    run = cf.run_flow(s, t_end=dt)
    assert len(run.diagnostics) == 1
    final = run.snapshots[-1]
    for i, name in enumerate(names):
        want = getattr(s, name) + dt / 6.0 * (
            k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
        assert np.array_equal(getattr(final, name), want)
    if s.structure is CY:
        assert np.array_equal(final.h, s.h)


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
    # dh/dt = -3/h = -60: half an RK4 step drives h = 0.05 below zero
    s = circle_state(n=64, structure=NK, h=lambda r: np.full_like(r, 0.05),
                     theta=lambda r: np.full_like(r, np.pi / 6))
    run = cf.run_flow(s, t_end=0.01)
    assert run.status == "SingularityDetected"
    assert run.diagnostics == ()
    (final,) = run.snapshots
    assert final.t == 0.0
    for name in ("h", "theta", "G"):
        assert np.array_equal(getattr(final, name), getattr(s, name))


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
