"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts both the numeric tolerance and the runtime budget.
"""

import time

import numpy as np

from g2coflow import coflow as cf
from g2coflow import forms as fm
from g2coflow import profiles as pf
from g2coflow import soliton as so
from g2coflow.coflow import FlowState, Mesh
from g2coflow.forms import StructureKind
from g2coflow.verify import random_g2_profile, run_identity_suite

from conftest import record_criterion

CY, NK = StructureKind.CY, StructureKind.NK


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_1_identity_suite():
    report, elapsed = timed(lambda: run_identity_suite(seed=0, n_profiles=20,
                                                       n_points=50))
    worst = {e["name"]: e["max_residual"] for e in report}
    ok = all(e["passed"] for e in report) and elapsed < 10.0
    record_criterion(
        "1 identity suite (d^2, star^2, dphi/dpsi, tau2, tau0/tau1)", ok,
        f"max residual {max(worst.values()):.2e}, {elapsed:.1f} s")
    for entry in report:
        assert entry["passed"], entry
    assert elapsed < 10.0


def test_criterion_2_laplacian_lemma():
    def body():
        rng = np.random.default_rng(2)
        rs = pf.Circle(2 * np.pi).sample_points(50, interior=True)
        worst = 0.0
        for structure in (CY, NK):
            for _ in range(5):
                g = random_g2_profile(rng, structure, coclosed=True)
                got = fm.hodge_laplacian_psi(g, tol=1e-8)
                want = fm.laplacian_psi_closed_form(g)
                worst = max(worst, (got - want).sup_norm(rs))
        return worst

    worst, elapsed = timed(body)
    ok = worst < 1e-8 and elapsed < 10.0
    record_criterion("2 Laplacian lemma closed form (coclosed profiles)", ok,
                     f"max residual {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_3_cy_heat_decay():
    def run_at(n):
        mesh = Mesh.from_domain(pf.Circle(2 * np.pi), n)
        state = FlowState(mesh=mesh, h=np.ones(n),
                          theta=0.01 * np.sin(mesh.nodes), G=np.ones(n),
                          t=0.0, structure=CY)
        # cfl 0.4 sets the first trial step, 0.4 dr^2; the stabilized
        # stepper then grows the step to what its error tolerance allows
        return cf.run_flow(state, t_end=1.0, cfl=0.4)

    def body():
        run = run_at(256)
        ref = run_at(1024)
        final, reffinal = run.snapshots[-1], ref.snapshots[-1]
        sup_theta = float(np.max(np.abs(final.theta)))
        sup_G = float(np.max(np.abs(final.G - 1.0)))
        diff = max(float(np.max(np.abs(final.theta - reffinal.theta[::4]))),
                   float(np.max(np.abs(final.G - reffinal.G[::4]))))
        return run.status, ref.status, sup_theta, sup_G, diff

    (status, ref_status, sup_theta, sup_G, diff), elapsed = timed(body)
    target = 0.01 * np.exp(-1.0)
    ok = (status == ref_status == "Completed"
          and abs(sup_theta - target) < 0.01 * target
          and sup_G < 1e-3 and diff < 1e-6 and elapsed < 30.0)
    record_criterion(
        "3 CY heat decay (256 nodes vs 1024-node reference)", ok,
        f"sup|theta|={sup_theta:.6e} (target {target:.6e}), "
        f"sup|G-1|={sup_G:.2e}, ref diff {diff:.2e}, {elapsed:.1f} s")
    assert status == "Completed" and ref_status == "Completed"
    assert abs(sup_theta - target) < 0.01 * target
    assert sup_G < 1e-3
    assert diff < 1e-6
    assert elapsed < 30.0


def test_criterion_4_nk_special_solitons():
    def body():
        worst = 0.0
        for cand in (
            so.nk_special("cone", b=0.5, lam=1.7),
            so.nk_special("anticone", b=3.0, lam=-2.3),
            so.nk_special("cylinder", b=1.0, c=0.4),
            so.nk_special("sinecone"),
        ):
            coord = so.residuals_nk(cand, samples=200, tolerance=1e-10)
            form = so.form_residual(cand, samples=200, tolerance=1e-10)
            worst = max(worst, coord.worst, form.worst)
        return worst

    worst, elapsed = timed(body)
    ok = worst < 1e-10 and elapsed < 5.0
    record_criterion(
        "4 NK special solitons (cone, anti-cone, cylinder, sine-cone)", ok,
        f"max residual {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_5_reduced_ode_round_trip():
    def body():
        r0, r1 = np.pi / 8, 3 * np.pi / 8
        traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0),
                                    -16.0, (r0, r1), rtol=1e-10)
        h_err = float(np.max(np.abs(traj.h - np.sin(traj.rs))))
        theta, kprime = so.recover_theta_k(traj, u_sign0=1.0)
        th_err = float(np.max(np.abs(np.asarray(theta.value(traj.rs))
                                     - traj.rs / 3)))
        kp_err = float(np.max(np.abs(np.asarray(kprime.value(traj.rs)))))
        cand = so.candidate_from_trajectory(traj)
        resid = so.residuals_nk(cand).worst
        return h_err, th_err, kp_err, resid

    (h_err, th_err, kp_err, resid), elapsed = timed(body)
    ok = (h_err < 1e-8 and th_err < 1e-7 and kp_err < 1e-7
          and resid < 1e-6 and elapsed < 5.0)
    record_criterion(
        "5 reduced-ODE round trip from sine-cone jets", ok,
        f"|h-sin r| {h_err:.2e}, theta {th_err:.2e}, k' {kp_err:.2e}, "
        f"residuals {resid:.2e}, {elapsed:.1f} s")
    assert h_err < 1e-8
    assert th_err < 1e-7
    assert kp_err < 1e-7
    assert resid < 1e-6
    assert elapsed < 5.0


def test_criterion_6_eigenform_and_compact_identity():
    def body():
        cand = so.nk_special("sinecone")
        mu2, _ = so.eigenform_check(cand.g2_profile())
        lhs, rhs = so.compact_identity_check(cand)
        return mu2, lhs / rhs

    (mu2, ratio), elapsed = timed(body)
    ok = abs(mu2 - 16.0) < 1e-8 and abs(ratio - 1.0) < 1e-6
    record_criterion(
        "6 sine-cone eigenform and compact-soliton identity", ok,
        f"mu^2 = {mu2:.10f}, |d*psi|^2 / (-7 lambda Vol) = {ratio:.8f}, "
        f"{elapsed:.1f} s")
    assert abs(mu2 - 16.0) < 1e-8
    assert abs(ratio - 1.0) < 1e-6


def test_criterion_7_constraint_preservation_order():
    def drift_at(n):
        dom = pf.Circle(2 * np.pi)
        theta = np.pi / 6 + 1e-3 * pf.cos(pf.coordinate(dom))
        h = pf.antiderivative(pf.cos(3 * theta), 0.0, 1.0)
        mesh = Mesh.from_domain(dom, n)
        state = FlowState(mesh=mesh, h=np.real(h.value(mesh.nodes)),
                          theta=np.real(theta.value(mesh.nodes)),
                          G=np.ones(n), t=0.0, structure=NK)
        run = cf.run_flow(state, t_end=0.05)
        assert run.status == "Completed"
        return max(d[2] for d in run.diagnostics)

    def body():
        return [drift_at(n) for n in (128, 256, 512)]

    drifts, elapsed = timed(body)
    r1, r2 = drifts[0] / drifts[1], drifts[1] / drifts[2]
    ok = 3.0 < r1 < 6.0 and 3.0 < r2 < 6.0
    record_criterion(
        "7 NK constraint drift order (128/256/512 nodes)", ok,
        f"drifts {drifts[0]:.2e}/{drifts[1]:.2e}/{drifts[2]:.2e}, "
        f"Richardson ratios {r1:.2f}, {r2:.2f}, {elapsed:.1f} s")
    assert 3.0 < r1 < 6.0
    assert 3.0 < r2 < 6.0


def test_criterion_8_shooting_recovers_sine_cone():
    def body():
        r0, r1 = np.pi / 8, 3 * np.pi / 8
        return so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                        target_dh_end=np.cos(r1), lam_range=(-25.0, -8.0))

    rep, elapsed = timed(body)
    ok = rep.found and abs(rep.lam + 16.0) < 1e-6 and elapsed < 30.0
    record_criterion(
        "8 shooting recovers the sine-cone soliton constant", ok,
        f"lambda = {rep.lam:.9f}, {elapsed:.1f} s")
    assert rep.found
    assert abs(rep.lam + 16.0) < 1e-6
    assert elapsed < 30.0
