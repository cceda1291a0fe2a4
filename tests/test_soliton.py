import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from g2coflow import profiles as pf
from g2coflow import soliton as so
from g2coflow.errors import InvalidParams, SignAmbiguity, SingularLocus
from g2coflow.forms import G2Profile, StructureKind
from g2coflow.soliton import Family

NK, CY = StructureKind.NK, StructureKind.CY


# ---------------------------------------------------------------------------
# CY closed form
# ---------------------------------------------------------------------------

def test_cy_closed_form_degenerate_parameters():
    flat = so.cy_closed_form(1.0, 0.0)
    rs = flat.sample_points(50)
    assert np.max(np.abs(np.asarray(flat.theta.value(rs)))) < 1e-14
    assert np.max(np.abs(np.asarray(flat.kprime.value(rs)) - 1.0)) < 1e-14

    frozen = so.cy_closed_form(0.0, 1.0)
    assert np.max(np.abs(np.asarray(frozen.theta.value(rs))
                         - (2 / 3) * np.arctan(1.0))) < 1e-14
    assert np.max(np.abs(np.asarray(frozen.kprime.value(rs)))) < 1e-14


def test_cy_closed_form_point_values():
    cand = so.cy_closed_form(1.0, 1.0)
    assert cand.lam == 0.0
    assert cand.kind == "steady"
    th = cand.theta
    assert abs(th.value(0.0) - np.pi / 6) < 1e-14
    assert abs(th.jet(0.0).derivs[0] - 1.0 / 3.0) < 1e-14
    assert abs(cand.kprime.value(0.0)) < 1e-14
    # 3 theta' = b1 sin 3theta with b2 = 0 at r = 0: both sides equal 1
    assert abs(3 * th.jet(0.0).derivs[0] - np.sin(3 * th.value(0.0))) < 1e-14


def test_residuals_cy_on_exact_soliton():
    rep = so.residuals_cy(so.cy_closed_form(1.0, 1.0))
    assert rep.worst < 1e-10
    assert rep.passed


def test_residuals_cy_detects_non_soliton():
    dom = pf.Interval(-1.0, 1.0)
    cand = so.SolitonCandidate(
        h=pf.constant(1.0, dom), theta=pf.coordinate(dom),
        kprime=pf.constant(0.0, dom), lam=0.0, structure=CY,
        family=Family.CUSTOM, domain=dom,
    )
    rep = so.residuals_cy(cand)
    assert rep.residuals["integration_constant_drift"] > 0.1
    assert not rep.passed


def test_residuals_cy_trivial_constant_soliton():
    dom = pf.Interval(-1.0, 1.0)
    cand = so.SolitonCandidate(
        h=pf.constant(1.0, dom), theta=pf.constant(0.4, dom),
        kprime=pf.constant(0.7, dom), lam=0.0, structure=CY,
        family=Family.CUSTOM, domain=dom,
    )
    rep = so.residuals_cy(cand)
    assert rep.worst < 1e-13


# ---------------------------------------------------------------------------
# NK special families
# ---------------------------------------------------------------------------

def test_special_family_parameters():
    cyl = so.nk_special("cylinder", b=1.0, c=0.0)
    assert cyl.lam == -12.0
    assert cyl.kind == "shrinking"
    sc = so.nk_special("sinecone")
    assert sc.lam == -16.0
    assert np.max(np.abs(np.asarray(sc.kprime.value(sc.sample_points(20))))) == 0.0
    with pytest.raises(InvalidParams):
        so.nk_special("cylinder", b=-1.0)
    with pytest.raises(InvalidParams):
        so.nk_special("sinecone", lam=-12.0)


@pytest.mark.parametrize("family", ["foo", "cy_closed_form"])
def test_unknown_special_family_is_invalid_params(family):
    with pytest.raises(InvalidParams) as exc:
        so.nk_special(family)
    assert exc.value.param == "family"


def test_all_special_families_pass_residuals():
    for cand in (
        so.nk_special("cone", b=0.5, lam=2.0),
        so.nk_special("cone", b=0.0, lam=0.0),
        so.nk_special("anticone", b=3.0, lam=-1.5),
        so.nk_special("cylinder", b=1.0, c=0.3),
        so.nk_special("sinecone"),
    ):
        rep = so.residuals_nk(cand, tolerance=1e-10)
        assert rep.worst < 1e-10, (cand.family, rep.residuals)


def test_torsion_free_cone_has_no_torsion():
    cand = so.nk_special("cone", b=0.0, lam=0.0, domain=pf.Interval(0.4, 2.4))
    from g2coflow import torsion as ts

    g = cand.g2_profile()
    t0, t1 = ts.tau01_first_principles(g)
    rs = cand.sample_points(60)
    assert np.max(np.abs(np.asarray(t0.value(rs)))) < 1e-12
    assert np.max(np.abs(np.asarray(t1.value(rs)))) < 1e-12


def test_cylinder_with_wrong_lambda_fails_equation_three():
    dom = pf.Circle(2 * np.pi)
    cand = so.SolitonCandidate(
        h=pf.constant(1.0, dom), theta=pf.constant(np.pi / 6, dom),
        kprime=pf.constant(0.0, dom), lam=0.0, structure=NK,
        family=Family.CUSTOM, domain=dom,
    )
    rep = so.residuals_nk(cand)
    assert abs(rep.residuals["real_part_integrated"] - 3.0) < 1e-12


def test_redundant_equation_bounded_by_primaries():
    for cand in (
        so.nk_special("cone", b=0.5, lam=2.0),
        so.nk_special("cylinder", b=2.0, c=-0.4),
        so.nk_special("sinecone"),
    ):
        rep = so.residuals_nk(cand)
        bound = 10.0 * (rep.residuals["coclosed"]
                        + rep.residuals["real_part_integrated"]) + 1e-12
        assert rep.residuals["redundant"] <= bound


# ---------------------------------------------------------------------------
# form-level residual (independent route)
# ---------------------------------------------------------------------------

def test_form_residual_on_special_families_and_cy():
    for cand in (
        so.nk_special("cone", b=0.5, lam=2.0),
        so.nk_special("anticone", b=3.0, lam=-1.5),
        so.nk_special("cylinder", b=1.0, c=0.3),
        so.nk_special("sinecone"),
        so.cy_closed_form(1.0, 1.0),
    ):
        rep = so.form_residual(cand, tolerance=1e-9)
        assert rep.worst < 1e-9, (cand.family, rep.residuals)


def test_form_residual_trivial_product():
    dom = pf.Circle(2 * np.pi)
    cand = so.SolitonCandidate(
        h=pf.constant(1.0, dom), theta=pf.constant(0.0, dom),
        kprime=pf.constant(0.0, dom), lam=0.0, structure=CY,
        family=Family.CUSTOM, domain=dom,
    )
    rep = so.form_residual(cand)
    assert rep.worst == 0.0


# ---------------------------------------------------------------------------
# the reduced ODE
# ---------------------------------------------------------------------------

def test_reduced_rhs_sine_cone_point():
    s = np.sqrt(2) / 2
    h3 = so.reduced_rhs(s, s, -s, -16.0)
    assert abs(h3 + s) < 1e-12
    assert abs(so.reduced_residual(s, s, -s, h3, -16.0)) < 1e-12


def test_reduced_rhs_singular_locus():
    with pytest.raises(SingularLocus):
        so.reduced_rhs(1.0, 1.0, 0.0, -16.0)
    with pytest.raises(SingularLocus):
        so.reduced_rhs(1.0, 0.0, 0.5, -16.0)
    with pytest.raises(SingularLocus):
        so.reduced_rhs(-0.5, 0.5, 0.5, -16.0)


def test_reduced_rhs_self_consistency_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        h = rng.uniform(0.2, 2.0)
        hp = rng.uniform(0.05, 0.95) * rng.choice([-1.0, 1.0])
        hpp = rng.uniform(-1.0, 1.0)
        lam = rng.uniform(-20.0, 5.0)
        try:
            h3 = so.reduced_rhs(h, hp, hpp, lam)
        except SingularLocus:
            continue
        assert abs(so.reduced_residual(h, hp, hpp, h3, lam)) < 1e-9 * max(1, abs(h3))


def test_integrate_reduced_reproduces_sine_cone():
    r0 = np.pi / 8
    traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                                (r0, 3 * np.pi / 8))
    assert traj.status == "completed"
    assert np.max(np.abs(traj.h - np.sin(traj.rs))) < 1e-8
    assert np.max(np.abs(traj.hp - np.cos(traj.rs))) < 1e-8


def test_integrate_reduced_work_and_residuals_on_criterion_5_span():
    # criterion 5's span: steps of at most 32 grid intervals keep the
    # 801-point dense output within the residual budget for few evaluations
    r0 = np.pi / 8
    traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                                (r0, 3 * np.pi / 8))
    assert 0 < traj.nfev <= 600
    rep = so.residuals_nk(so.candidate_from_trajectory(traj))
    assert rep.worst <= 1.4e-8


def test_integrate_reduced_rejects_cone_jets():
    with pytest.raises(SingularLocus):
        so.integrate_reduced(1.0, 1.0, 0.0, 0.0, (0.0, 1.0))


def test_integrate_reduced_stops_at_locus():
    # sine-cone data run toward r = pi/2 where h' -> 0
    r0 = np.pi / 8
    traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                                (r0, 3.0))
    assert traj.status == "singular_locus"
    assert abs(traj.rs[-1] - np.pi / 2) < 5e-3


def test_trajectory_satisfies_ode_at_checkpoints():
    traj = so.integrate_reduced(0.8, 0.5, -0.3, -10.0, (0.0, 0.4))
    for i in range(0, len(traj.rs), 97):
        h, hp, hpp = traj.h[i], traj.hp[i], traj.hpp[i]
        h3 = so.reduced_rhs(h, hp, hpp, -10.0)
        assert abs(so.reduced_residual(h, hp, hpp, h3, -10.0)) < 1e-9


# ---------------------------------------------------------------------------
# theta / k' recovery
# ---------------------------------------------------------------------------

def sine_cone_trajectory(span=(np.pi / 8, 3 * np.pi / 8)):
    r0 = span[0]
    return so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0, span)


def test_recover_theta_k_sine_cone():
    traj = sine_cone_trajectory()
    theta, kprime = so.recover_theta_k(traj, -16.0, u_sign0=1.0)
    rs = traj.rs
    assert np.max(np.abs(np.asarray(theta.value(rs)) - rs / 3)) < 1e-7
    assert np.max(np.abs(np.asarray(kprime.value(rs)))) < 1e-7


def test_recovered_candidate_passes_residuals():
    traj = sine_cone_trajectory()
    cand = so.candidate_from_trajectory(traj)
    rep = so.residuals_nk(cand)
    assert rep.worst < 1e-6


def test_recover_flipped_sign_gives_reflected_branch():
    # the soliton system is invariant under theta -> -theta, so the flipped
    # branch is the genuinely different reflected soliton, not an error
    traj = sine_cone_trajectory()
    theta, _ = so.recover_theta_k(traj, -16.0, u_sign0=-1.0)
    rs = traj.rs
    assert np.max(np.abs(np.asarray(theta.value(rs)) + rs / 3)) < 1e-7
    flipped = so.candidate_from_trajectory(traj, u_sign0=-1.0)
    rep = so.residuals_nk(flipped)
    assert rep.worst < 1e-6  # reflected soliton is exact too


def test_recover_near_locus_raises_sign_ambiguity():
    r0 = np.pi / 8
    traj = so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0,
                                (r0, 3.0))  # stops just shy of h' = 0 ... fine
    # fabricate a trajectory crossing |h'| = 1 to hit the ambiguity guard
    fake = so.ReducedTrajectory(
        rs=np.linspace(0, 1, 101), h=np.ones(101),
        hp=np.linspace(0.9, 1.0, 101), hpp=np.zeros(101),
        lam=-16.0, status="completed",
    )
    with pytest.raises(SignAmbiguity):
        so.recover_theta_k(fake, -16.0)
    assert traj.status == "singular_locus"


def test_general_trajectory_recovery_consistency():
    traj = so.integrate_reduced(0.8, 0.5, -0.3, -10.0, (0.0, 0.4))
    cand = so.candidate_from_trajectory(traj)
    rep = so.residuals_nk(cand)
    assert rep.worst < 1e-6


def test_form_residual_on_trajectory_candidates():
    # the form-level route also accepts grid-backed candidates, evaluated at
    # mesh nodes; coordinate and form residuals stay within a 10x band
    for args in ((np.sin(np.pi / 8), np.cos(np.pi / 8), -np.sin(np.pi / 8),
                  -16.0, (np.pi / 8, 3 * np.pi / 8)),
                 (0.8, 0.5, -0.3, -10.0, (0.0, 0.4))):
        traj = so.integrate_reduced(*args)
        cand = so.candidate_from_trajectory(traj)
        coord = so.residuals_nk(cand)
        form = so.form_residual(cand, constraint_tol=1e-6)
        assert form.worst < 1e-6
        assert form.worst < 10.0 * max(coord.worst, 1e-12)


def test_coordinate_form_equivalence_band():
    # for every candidate passing the coordinate system at tol, the
    # form-level residual stays below 10x tol
    for cand in (
        so.nk_special("cone", b=0.5, lam=2.0),
        so.nk_special("anticone", b=3.0, lam=-1.5),
        so.nk_special("cylinder", b=2.0, c=0.1),
        so.nk_special("sinecone"),
        so.cy_closed_form(0.7, 1.3),
    ):
        tol = 1e-10
        coord = so.coordinate_residuals(cand, tolerance=tol)
        assert coord.passed
        form = so.form_residual(cand)
        assert form.worst < 10.0 * tol


# ---------------------------------------------------------------------------
# eigenform and compactness identities
# ---------------------------------------------------------------------------

def test_eigenform_sine_cone():
    g = so.nk_special("sinecone").g2_profile()
    mu2, resid = so.eigenform_check(g)
    assert abs(mu2 - 16.0) < 1e-8
    assert resid < 1e-8


def test_eigenform_torsion_free_product():
    dom = pf.Circle(2 * np.pi)
    g = G2Profile(h=pf.constant(1.0, dom), theta=pf.constant(0.0, dom),
                  G=pf.constant(1.0, dom), structure=CY, domain=dom)
    mu2, resid = so.eigenform_check(g)
    assert abs(mu2) < 1e-13
    assert resid < 1e-13


EIGENFORM_SCRIPT = """
from g2coflow import profiles as pf, soliton as so
dom = pf.Interval(0.4307036284067276, 2.2203144776553647)
print(so.eigenform_check(so.nk_special("sinecone", domain=dom).g2_profile())[0].hex())
"""


def test_eigenform_is_independent_of_string_hashing():
    # the basis tags are strings, so a set's iteration order follows
    # PYTHONHASHSEED; 0 and 1 gave different last bits when sums followed it
    src = str(Path(so.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", EIGENFORM_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout.strip())
    assert float.fromhex(outputs[0]) == pytest.approx(16.0, abs=1e-12)
    assert outputs[0] == outputs[1]


def test_cy_soliton_is_not_an_eigenform():
    cand = so.cy_closed_form(1.0, 1.0)
    _, resid = so.eigenform_check(cand.g2_profile())
    assert resid > 1e-3


def test_compact_identity_sine_cone():
    cand = so.nk_special("sinecone")
    lhs, rhs = so.compact_identity_check(cand)
    vol = rhs / (-7.0 * cand.lam)
    assert abs(lhs / vol - 112.0) < 1e-6 * 112.0
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def test_compact_identity_trivial_product():
    dom = pf.Circle(2 * np.pi)
    cand = so.SolitonCandidate(
        h=pf.constant(1.0, dom), theta=pf.constant(0.0, dom),
        kprime=pf.constant(0.0, dom), lam=0.0, structure=CY,
        family=Family.CUSTOM, domain=dom,
    )
    lhs, rhs = so.compact_identity_check(cand)
    assert abs(lhs) < 1e-12
    assert rhs == 0.0


def test_compact_identity_cylinder():
    cand = so.nk_special("cylinder", b=1.0, c=0.0)
    lhs, rhs = so.compact_identity_check(cand)
    vol = rhs / (-7.0 * cand.lam)
    assert abs(lhs / vol - 84.0) < 1e-8 * 84.0
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_shoot_recovers_sine_cone_lambda():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                   target_dh_end=np.cos(r1), lam_range=(-25.0, -8.0))
    assert rep.found
    assert abs(rep.lam + 16.0) < 1e-6
    assert so.residuals_nk(rep.candidate).worst < 1e-6


def test_shoot_no_bracket():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                   target_dh_end=5.0, lam_range=(-18.0, -14.0))
    assert not rep.found
    assert rep.reason == "NoBracket"
    assert len(rep.closing_values) >= 2


def test_shoot_uses_few_lean_closing_integrations(monkeypatch):
    # criterion 8's data: sine-cone jets at pi/8, target h'(3 pi/8) = cos(3 pi/8)
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    grid = 13
    n_dense = []
    integrate = so.integrate_reduced

    def counted(*args, **kwargs):
        n_dense.append(kwargs.get("n_dense", 801))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(so, "integrate_reduced", counted)
    rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                   target_dh_end=np.cos(r1), lam_range=(-25.0, -8.0), grid=grid)
    assert rep.found
    assert abs(rep.lam + 16.0) <= 1e-9
    assert len(n_dense) <= grid + 10
    assert n_dense.count(801) == 1
    assert len(rep.candidate.h.values) == 801


def test_shoot_no_bracket_returns_the_scan():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    h0, dh0, ddh0 = np.sin(r0), np.cos(r0), -np.sin(r0)
    rep = so.shoot(h0, dh0, ddh0, (r0, r1), target_dh_end=5.0,
                   lam_range=(-18.0, -14.0), grid=5)
    assert rep.reason == "NoBracket"
    assert rep.lam is None and rep.candidate is None
    lams = [lam for lam, _ in rep.closing_values]
    assert lams == list(np.linspace(-18.0, -14.0, 5))
    for lam, value in rep.closing_values:
        traj = so.integrate_reduced(h0, dh0, ddh0, lam, (r0, r1), rtol=1e-10,
                                    n_dense=2, max_step=np.inf)
        assert value == float(traj.hp[-1]) - 5.0


def test_shoot_perturbed_target():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                   target_dh_end=np.cos(r1) + 1e-4, lam_range=(-25.0, -8.0),
                   residual_tol=1e-2)
    assert rep.lam is not None
    assert abs(rep.lam + 16.0) < 0.1


def test_shoot_without_a_bracket_reports_every_scan_point_as_nan():
    # h = 1e-4 with h' = 0.5 fails every closing integration
    rep = so.shoot(1e-4, 0.5, 0.0, (0.4, 1.0), 0.3, (-25, -8))
    assert not rep.found and rep.reason == "NoBracket"
    assert rep.lam is None and rep.candidate is None
    lams = [lam for lam, _ in rep.closing_values]
    assert lams == list(np.linspace(-25.0, -8.0, 13))
    assert all(np.isnan(value) for _, value in rep.closing_values)


def test_residuals_reject_the_other_structure():
    from g2coflow.errors import StructureMismatch

    with pytest.raises(StructureMismatch):
        so.residuals_cy(so.nk_special("cylinder", b=1.2, c=0.3))
    with pytest.raises(StructureMismatch):
        so.residuals_nk(so.cy_closed_form(0.5, 2.0))
