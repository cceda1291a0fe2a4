import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from g2coflow import profiles as pf
from g2coflow import soliton as so
from g2coflow.errors import (DivergentIntegral, InvalidParams, SignAmbiguity,
                             SingularLocus, StepFailure)
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
    with pytest.raises(InvalidParams):   # NaN is not within 1e-12 of -12
        so.nk_special("cylinder", b=1.0, lam=float("nan"))


@pytest.mark.parametrize("family, params, param", [
    ("cone", {"b": 1.0, "lam": float("nan")}, "lambda"),
    ("anticone", {"b": 1.0, "lam": float("nan")}, "lambda"),
    ("anticone", {"b": 3.0, "lam": float("inf")}, "lambda"),
    ("cone", {"b": float("nan"), "lam": 1.0}, "b"),
    ("anticone", {"b": float("nan")}, "b"),
    ("cylinder", {"b": float("nan")}, "b"),
    ("cylinder", {"b": 1.0, "c": float("inf")}, "c"),
    ("cone", {"b": 0.5, "c": float("nan")}, "c"),
])
def test_special_family_rejects_non_finite_parameters(family, params, param):
    with pytest.raises(InvalidParams) as exc:
        so.nk_special(family, **params)
    assert exc.value.param == param


@pytest.mark.parametrize("family", ["foo", "cy_closed_form"])
def test_unknown_special_family_is_invalid_params(family):
    with pytest.raises(InvalidParams) as exc:
        so.nk_special(family)
    assert exc.value.param == "family"


def test_a_cone_whose_h_changes_sign_on_the_domain_is_invalid_params():
    with pytest.raises(InvalidParams, match="h must stay positive"):
        so.nk_special("cone", b=0.5, lam=0.0, domain=pf.Interval(-1.0, 1.0))


def test_a_sine_cone_domain_outside_0_pi_is_invalid_params():
    with pytest.raises(InvalidParams, match="sine-cone lives on"):
        so.nk_special("sinecone", domain=pf.Interval(-0.1, 1.0))


def test_a_custom_candidate_whose_h_is_not_positive_is_invalid_params():
    dom = pf.Interval(0.1, 2.1)
    with pytest.raises(InvalidParams, match="h must stay positive"):
        so.SolitonCandidate(h=pf.coordinate(dom) - 1.0, theta=pf.constant(0.0, dom),
                            kprime=pf.constant(0.0, dom), lam=0.0, structure=NK,
                            family=Family.CUSTOM, domain=dom)


def test_a_candidate_keeps_one_g2_profile_outside_its_fields():
    cand = so.nk_special("sinecone")
    assert cand.g2_profile() is cand.g2_profile()
    assert cand.g2_profile().G.value(1.0) == 1.0
    assert dataclasses.replace(cand) == cand
    assert "G2Profile" not in repr(cand)


def test_a_candidate_builds_and_checks_its_g2_profile_once(monkeypatch):
    built = []
    post_init = G2Profile.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(G2Profile, "__post_init__", counted)
    cand = so.nk_special("sinecone")
    so.eigenform_check(cand.g2_profile())
    so.compact_identity_check(cand)
    so.form_residual(cand)
    assert len(built) == 1


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


def test_reduced_rhs_singular_locus():
    with pytest.raises(SingularLocus):
        so.reduced_rhs(1.0, 1.0, 0.0, -16.0)
    with pytest.raises(SingularLocus):
        so.reduced_rhs(1.0, 0.0, 0.5, -16.0)
    with pytest.raises(SingularLocus):
        so.reduced_rhs(-0.5, 0.5, 0.5, -16.0)


@pytest.mark.parametrize("h,hp,match", [
    (1.0, 1.0, "singular locus"), (1.0, -1.0 + 1e-5, "singular locus"),
    (1.0, 0.0, "singular locus"), (0.0, 0.5, "not positive"),
    (1e-4, 0.5, "leading coefficient"),   # |h^3 h'((h')^2 - 1)| = 3.75e-13
])
def test_a_start_on_the_locus_raises_what_the_rhs_raises_there(h, hp, match):
    with pytest.raises(SingularLocus, match=match):
        so.require_start(h, hp)
    with pytest.raises(SingularLocus, match=match):
        so.reduced_rhs(h, hp, 0.1, -16.0)


@pytest.mark.parametrize("h,hp", [(1.0, 0.5), (1e300, 0.5), (1.0, -1e200)])
def test_a_start_off_the_locus_passes_even_past_the_float_range(h, hp):
    so.require_start(h, hp)   # h^3 or (h')^2 overflows: far above LEAD_FLOOR


@pytest.mark.parametrize("jet,lam", [
    ((1.0, 0.5, 1e300), -16.0),   # (h'')^2: a float power raises OverflowError
    ((1e300, 0.5, 1.0), -16.0),   # h^3 likewise
    ((1e70, 0.5, 1.0), 1e100),    # lam h^4 terms: inf - inf, no exception
    ((1.0, 0.5, 1e150), -16.0),   # finite h''' = 2e300, past RATE_CAP
])
def test_reduced_rhs_overflow_is_a_step_failure(jet, lam):
    with pytest.raises(StepFailure, match="overflow"):
        so.reduced_rhs(*jet, lam)


@pytest.mark.parametrize("jet,lam,param", [
    ((0.4, 0.9, -0.4), float("nan"), "lambda"),
    ((0.4, 0.9, -0.4), float("inf"), "lambda"),
    ((float("nan"), 0.9, -0.4), -16.0, "h"),
    ((0.4, 0.9, float("-inf")), -16.0, "h''"),
])
def test_integrate_reduced_rejects_a_nonfinite_jet_or_lambda(jet, lam, param):
    with pytest.raises(InvalidParams) as exc:
        so.integrate_reduced(*jet, lam, (0.4, 1.0))
    assert exc.value.param == param


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


@pytest.mark.parametrize("lam", [-145.0 / 3.0, -42.5, -35.0, -30.8])
def test_a_step_across_the_locus_stops_there(lam):
    # criterion 8's data: h' falls through 0 inside the span, where
    # h''' ~ 1/h' is singular; a long step may jump from h' > LOCUS_TOL to
    # h' < -LOCUS_TOL, and the guard must still stop the trajectory there
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    jet = np.sin(r0), np.cos(r0), -np.sin(r0)
    free = so.integrate_reduced(*jet, lam, (r0, r1), n_dense=2)
    capped = so.integrate_reduced(*jet, lam, (r0, r1))
    for traj in (free, capped):
        assert traj.status == "singular_locus"
        assert abs(traj.hp[-1] - so.LOCUS_TOL) <= 1e-12
    assert r0 < free.rs[-1] < r1
    assert abs(free.rs[-1] - capped.rs[-1]) <= 1e-9


def test_trajectories_at_several_lambdas_pass_the_soliton_residuals():
    # the reduced ODE against the coordinate soliton system it was reduced
    # from: theta and k' recovered from each trajectory, residuals from the
    # unreduced equations
    for lam in (-16.0, -10.0, -4.0, 0.0, 3.0):
        traj = so.integrate_reduced(0.8, 0.5, -0.3, lam, (0.0, 0.4))
        assert traj.status == "completed"
        rep = so.residuals_nk(so.candidate_from_trajectory(traj))
        assert rep.worst < 1e-6


# ---------------------------------------------------------------------------
# theta / k' recovery
# ---------------------------------------------------------------------------

def sine_cone_trajectory(span=(np.pi / 8, 3 * np.pi / 8)):
    r0 = span[0]
    return so.integrate_reduced(np.sin(r0), np.cos(r0), -np.sin(r0), -16.0, span)


def test_recover_theta_k_sine_cone():
    traj = sine_cone_trajectory()
    theta, kprime = so.recover_theta_k(traj, u_sign0=1.0)
    rs = traj.rs
    assert np.max(np.abs(np.asarray(theta.value(rs)) - rs / 3)) < 1e-7
    assert np.max(np.abs(np.asarray(kprime.value(rs)))) < 1e-7


def test_recover_theta_k_reads_lambda_from_the_trajectory():
    # k' holds -lambda h / (4 h'): the same samples at lambda + 4 lower it by h/h'
    traj = sine_cone_trajectory()
    shifted = dataclasses.replace(traj, lam=traj.lam + 4.0)
    _, kprime = so.recover_theta_k(traj)
    _, moved = so.recover_theta_k(shifted)
    assert np.allclose(moved.values - kprime.values, -traj.h / traj.hp,
                       rtol=1e-12, atol=1e-12)


def test_recover_theta_k_rejects_a_trajectory_off_u_du_equal_minus_hp_hpp():
    traj = sine_cone_trajectory()
    so.recover_theta_k(traj)
    with pytest.raises(StepFailure, match="violated"):
        so.recover_theta_k(dataclasses.replace(traj, hpp=1.01 * traj.hpp))


def test_recovered_candidate_passes_residuals():
    traj = sine_cone_trajectory()
    cand = so.candidate_from_trajectory(traj)
    rep = so.residuals_nk(cand)
    assert rep.worst < 1e-6


def test_recover_flipped_sign_gives_reflected_branch():
    # the soliton system is invariant under theta -> -theta, so the flipped
    # branch is the genuinely different reflected soliton, not an error
    traj = sine_cone_trajectory()
    theta, _ = so.recover_theta_k(traj, u_sign0=-1.0)
    rs = traj.rs
    assert np.max(np.abs(np.asarray(theta.value(rs)) + rs / 3)) < 1e-7
    flipped = so.candidate_from_trajectory(traj, u_sign0=-1.0)
    rep = so.residuals_nk(flipped)
    assert rep.worst < 1e-6  # reflected soliton is exact too


def test_recover_theta_k_allows_for_round_off_on_a_short_span():
    # on 801 nodes over 1e-9 the gradient's round-off, eps |u| / dr, is ~1e-4:
    # far above the truncation bound, three times the measured mismatch
    traj = so.integrate_reduced(1.0, 0.5, 0.0, 0.0, (0.0, 1e-9))
    assert len(traj.rs) == 801
    theta, _ = so.recover_theta_k(traj)
    # h' = 1/2 on the whole span, so 3 theta = atan2(sqrt(3)/2, 1/2) = pi/3
    assert np.max(np.abs(theta.values - np.pi / 9)) < 1e-12


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
        so.recover_theta_k(fake)
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


def test_compact_identity_of_a_divergent_volume_is_a_divergent_integral():
    # h = 1/r makes the volume weight G h^6 = r^-6, not integrable at r = 0
    dom = pf.Interval(0.0, 1.0)
    r = pf.coordinate(dom)
    cand = so.SolitonCandidate(
        h=1.0 / r, theta=pf.constant(0.0, dom), kprime=pf.constant(0.0, dom),
        lam=-1.0, structure=NK, family=Family.CUSTOM, domain=dom,
    )
    with pytest.raises(DivergentIntegral):
        so.compact_identity_check(cand)


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


def test_shoot_whose_candidate_misses_the_residual_tolerance_is_not_found():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    rep = so.shoot(np.sin(r0), np.cos(r0), -np.sin(r0), (r0, r1),
                   target_dh_end=np.cos(r1), lam_range=(-25.0, -8.0),
                   residual_tol=1e-30)
    assert not rep.found
    assert abs(rep.lam + 16.0) < 1e-6
    assert rep.candidate is not None
    assert rep.reason.startswith("residuals")


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


def test_the_scan_integrates_each_grid_lambda_alone_before_brentq(monkeypatch):
    # criterion 8's data: the first `grid` calls are the scan, one float
    # lambda of the grid each, in order, with free steps
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    grid, calls = 13, []
    integrate = so.integrate_reduced

    def spied(h0, dh0, ddh0, lam, span, **kwargs):
        calls.append((lam, kwargs.get("n_dense", 801)))
        return integrate(h0, dh0, ddh0, lam, span, **kwargs)

    monkeypatch.setattr(so, "integrate_reduced", spied)
    rep = so.shoot(*sine_cone_jet(r0), (r0, r1), np.cos(r1), (-25.0, -8.0), grid=grid)
    assert rep.found
    scan = calls[:grid]
    assert all(type(lam) is float for lam, _ in scan)
    assert [lam for lam, _ in scan] == np.linspace(-25.0, -8.0, grid).tolist()
    assert all(n_dense == 2 for _, n_dense in scan)
    assert [lam for lam, _ in rep.closing_values[:grid]] == [lam for lam, _ in scan]
    # brentq's closings come after, at lambdas the scan did not integrate
    assert len(calls) > grid + 1 and calls[-1] == (rep.lam, 801)


def test_shoot_no_bracket_returns_the_scan():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    h0, dh0, ddh0 = np.sin(r0), np.cos(r0), -np.sin(r0)
    rep = so.shoot(h0, dh0, ddh0, (r0, r1), target_dh_end=5.0,
                   lam_range=(-18.0, -14.0), grid=5)
    assert rep.reason == "NoBracket"
    assert rep.lam is None and rep.candidate is None
    lams = [lam for lam, _ in rep.closing_values]
    assert lams == list(np.linspace(-18.0, -14.0, 5))
    scan = [so.integrate_reduced(h0, dh0, ddh0, lam, (r0, r1), rtol=1e-10, n_dense=2)
            for lam in lams]
    for (lam, value), traj in zip(rep.closing_values, scan, strict=True):
        assert traj.lam == lam
        assert value == float(traj.hp[-1]) - 5.0


def scalar_calls(jet, lams, span):
    """integrate_reduced one lambda at a time; the exception where one raises."""
    out = []
    for lam in lams:
        try:
            out.append(so.integrate_reduced(*jet, float(lam), span, n_dense=2))
        except (SingularLocus, StepFailure) as exc:
            out.append(exc)
    return out


def sine_cone_jet(r0):
    return np.sin(r0), np.cos(r0), -np.sin(r0)


def test_a_scan_through_the_locus_matches_scalar_calls():
    # criterion 8's data over a wide range: six of the 13 lambdas stop at the
    # singular locus inside the span, and the shoot's scan and its root agree
    # with one scalar call per lambda
    from scipy import optimize

    r0, r1 = np.pi / 8, 3 * np.pi / 8
    jet, target = sine_cone_jet(r0), np.cos(r1)
    lams = np.linspace(-60.0, 10.0, 13)
    alone = scalar_calls(jet, lams, (r0, r1))
    assert [t.status for t in alone].count("singular_locus") == 6

    rep = so.shoot(*jet, (r0, r1), target, (-60.0, 10.0))
    values = np.array([float(t.hp[-1]) - target for t in alone])
    scanned = np.array([v for _, v in rep.closing_values[:13]])
    assert np.array_equal(np.isnan(scanned), np.isnan(values))
    i = int(np.flatnonzero(values[:-1] * values[1:] <= 0)[0])
    assert np.flatnonzero(scanned[:-1] * scanned[1:] <= 0)[0] == i
    lam = optimize.brentq(
        lambda x: so.integrate_reduced(*jet, x, (r0, r1), n_dense=2).hp[-1] - target,
        lams[i], lams[i + 1], xtol=1e-9, rtol=1e-12)
    assert rep.found and abs(rep.lam - lam) <= 1e-9


def scipy_dop853(jet, lam, span, n_dense=2):
    """The reduced ODE through scipy's solve_ivp DOP853, with integrate_reduced's
    tolerances, step cap and signed locus guard as a terminal event: an
    independent integrator for the stepper to agree with. Returns the grid,
    the (h, h', h'') values on it, the status and the RHS evaluations."""
    from scipy.integrate import solve_ivp

    r0, r1 = span

    def locus(_r, y):
        return so._locus_margin(y[0], y[1], jet[1])

    locus.terminal = True
    sol = solve_ivp(lambda _r, y: (y[1], y[2], so._reduced_rhs_raw(*y.tolist(), lam)),
                    span, jet, method="DOP853", rtol=1e-10, atol=1e-12,
                    max_step=32.0 * (r1 - r0) / max(n_dense - 1, 1),
                    dense_output=True, events=locus)
    rs = np.linspace(r0, sol.t[-1], n_dense)
    status = {0: "completed", 1: "singular_locus"}[sol.status]
    return rs, sol.sol(rs), status, sol.nfev


def test_closing_values_match_scipy_dop853():
    # criterion 8's scan
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    lams = np.linspace(-25.0, -8.0, 13)
    scan = scalar_calls(sine_cone_jet(r0), lams, (r0, r1))
    for lam, one in zip(lams, scan, strict=True):
        _, (_, hp, _), status, _ = scipy_dop853(sine_cone_jet(r0), lam, (r0, r1))
        assert one.status == status == "completed"
        assert abs(one.hp[-1] - hp[-1]) <= 1e-9


def test_dense_output_matches_scipy_dop853_on_criterion_5_span():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    traj = so.integrate_reduced(*sine_cone_jet(r0), -16.0, (r0, r1))
    rs, values, status, nfev = scipy_dop853(sine_cone_jet(r0), -16.0, (r0, r1), 801)
    assert traj.status == status == "completed"
    assert np.array_equal(traj.rs, rs)
    assert np.max(np.abs(np.array([traj.h, traj.hp, traj.hpp]) - values)) <= 1e-9
    # the same steps: one evaluation per stage, none spent elsewhere
    assert traj.nfev == nfev


def test_locus_stops_match_scipy_dop853():
    # the six lambdas of criterion 8's wide scan that reach h' = 0
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    lams = np.linspace(-60.0, 10.0, 13)
    scan = scalar_calls(sine_cone_jet(r0), lams, (r0, r1))
    stopped = 0
    for lam, one in zip(lams, scan, strict=True):
        rs, (h, hp, _), status, _ = scipy_dop853(sine_cone_jet(r0), lam, (r0, r1))
        assert one.status == status
        stopped += status == "singular_locus"
        assert abs(one.rs[-1] - rs[-1]) <= 1e-9
        assert abs(one.h[-1] - h[-1]) <= 1e-9 and abs(one.hp[-1] - hp[-1]) <= 1e-9
    assert stopped == 6


def test_a_solve_past_its_budget_is_a_step_failure(monkeypatch):
    # the budget counts what scipy's nfev counts: the dense criterion-5 solve
    # fits a budget of exactly its evaluations and fails one below it
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    *_, nfev = scipy_dop853(sine_cone_jet(r0), -16.0, (r0, r1), 801)
    monkeypatch.setattr(so, "MAX_RHS_EVALS", nfev)
    assert so.integrate_reduced(*sine_cone_jet(r0), -16.0, (r0, r1)).nfev == nfev
    monkeypatch.setattr(so, "MAX_RHS_EVALS", nfev - 1)
    with pytest.raises(StepFailure, match=f"past {nfev - 1} RHS evaluations"):
        so.integrate_reduced(*sine_cone_jet(r0), -16.0, (r0, r1))


def test_a_failing_lambda_leaves_the_others_their_scalar_results(monkeypatch):
    # under a cap of 2 on |h'''|, lambda = -25 passes the check at the start
    # (h''' = -1.28 at r0) but passes the cap inside the span; 1e300 fails
    # the check at the start
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    jet, target = sine_cone_jet(r0), np.cos(r1)
    monkeypatch.setattr(so, "RATE_CAP", 2.0)
    scan = scalar_calls(jet, [-25.0, -16.5, -8.0, 1e300], (r0, r1))
    assert isinstance(scan[0], StepFailure) and isinstance(scan[3], StepFailure)
    assert all(one.status == "completed" for one in scan[1:3])

    rep = so.shoot(*jet, (r0, r1), target, (-25.0, -8.0), grid=5)
    assert np.isnan(rep.closing_values[0][1])
    alone = scalar_calls(jet, np.linspace(-25.0, -8.0, 5)[1:], (r0, r1))
    for (_, value), single in zip(rep.closing_values[1:5], alone, strict=True):
        assert value == float(single.hp[-1]) - target
    assert rep.found and abs(rep.lam + 16.0) < 1e-6


def test_identical_shoots_give_bitwise_identical_reports():
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    first, second = (so.shoot(*sine_cone_jet(r0), (r0, r1), np.cos(r1), (-60.0, 10.0))
                     for _ in range(2))
    assert (first.found, first.lam, first.reason) == (second.found, second.lam,
                                                      second.reason)
    assert np.array_equal(first.closing_values, second.closing_values, equal_nan=True)
    for name in ("h", "theta", "kprime"):
        assert np.array_equal(getattr(first.candidate, name).values,
                              getattr(second.candidate, name).values)


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


@pytest.mark.parametrize("span", [(np.pi / 8, np.pi / 8), (1.0, 0.5),
                                  (0.4, np.inf), (np.nan, 1.0)])
def test_a_span_that_is_not_finite_and_increasing_is_invalid_params(span):
    # checked before any integration, for scalar calls and shoots alike
    with pytest.raises(InvalidParams) as exc:
        so.integrate_reduced(*sine_cone_jet(0.4), -16.0, span)
    assert exc.value.param == "span"
    with pytest.raises(InvalidParams) as exc:
        so.shoot(*sine_cone_jet(0.4), span, 0.3, (-25.0, -8.0), grid=5)
    assert exc.value.param == "span"


# h0 ~ 3e4: the explicit steps stay tiny, and without a budget this config
# spends ~1e6 right-hand-side evaluations in 15 s on 14% of its span
STIFF_JET = 26684.03687684115, -0.006849755789891665, -15.158092048440706
STIFF_LAMBDA, STIFF_SPAN = -34.87360003382471, (-0.1585786845307009,
                                                -0.05145649468078081)


def test_reduced_ode_work_is_bounded(monkeypatch):
    assert so.MAX_RHS_EVALS == 200_000
    monkeypatch.setattr(so, "MAX_RHS_EVALS", 5_000)
    with pytest.raises(StepFailure, match="5000 RHS evaluations"):
        so.integrate_reduced(*STIFF_JET, STIFF_LAMBDA, STIFF_SPAN)
    # the budget is per solve, closings included: lambda = -16 spends it too,
    # and lambda = 0 reaches the locus in 809 evaluations
    for lam in (STIFF_LAMBDA, -16.0):
        with pytest.raises(StepFailure, match="5000 RHS evaluations"):
            so.integrate_reduced(*STIFF_JET, lam, STIFF_SPAN, n_dense=2)
    single = so.integrate_reduced(*STIFF_JET, 0.0, STIFF_SPAN, n_dense=2)
    assert single.status == "singular_locus" and single.nfev == 809


def test_a_scan_past_the_budget_gives_each_member_its_scalar_result(monkeypatch):
    # criterion 8's 13 lambdas take 170 to 218 evaluations each: under a
    # budget of 150 each scalar call raises StepFailure, and the shoot's scan
    # reports NaN for each and finds no bracket
    r0, r1 = np.pi / 8, 3 * np.pi / 8
    monkeypatch.setattr(so, "MAX_RHS_EVALS", 150)
    lams = np.linspace(-25.0, -8.0, 13)
    for one in scalar_calls(sine_cone_jet(r0), lams, (r0, r1)):
        assert isinstance(one, StepFailure) and "past 150 RHS evaluations" in str(one)
    rep = so.shoot(*sine_cone_jet(r0), (r0, r1), np.cos(r1), (-25.0, -8.0))
    assert rep.reason == "NoBracket"
    assert all(np.isnan(value) for _, value in rep.closing_values)


def test_a_grid_that_does_not_increase_is_a_singular_locus():
    # a trajectory that stops within rounding of its start has repeated nodes,
    # where np.gradient would divide by zero
    r0 = 0.4
    rs = np.full(5, r0)
    traj = so.ReducedTrajectory(rs=rs, h=np.sin(rs), hp=np.cos(rs), hpp=-np.sin(rs),
                                lam=-16.0, status="singular_locus")
    with pytest.raises(SingularLocus, match="too short for its 5-node grid"):
        so.recover_theta_k(traj)


def test_a_step_that_overflows_on_a_huge_span_is_a_step_failure():
    # a first step of ~1e300 overflows DOP853's stage sums; the trial state
    # is not finite, and the right-hand side fails there
    jet, span = (1.0, 2.0, 1403566300643.0), (-1e300, 0.0)
    with pytest.raises(StepFailure):
        so.integrate_reduced(*jet, 0.0, span, n_dense=2)
    rep = so.shoot(*jet, span, 0.0, (0.0, 1.0), grid=2)
    assert rep.reason == "NoBracket"
    assert all(np.isnan(value) for _, value in rep.closing_values)


@pytest.mark.parametrize("jet,param", [((float("nan"), 0.9, -0.4), "h"),
                                       ((0.4, 0.9, float("inf")), "h''")])
def test_a_scan_from_a_nonfinite_jet_raises_invalid_params(jet, param):
    # the stepper's first right-hand-side evaluation checks the start, so a
    # non-finite jet is a parameter error, not a NaN closing value per lambda
    with pytest.raises(InvalidParams) as exc:
        so.shoot(*jet, (0.4, 1.0), 0.3, (-25.0, -8.0), grid=5)
    assert exc.value.param == param


def test_a_scan_whose_locus_stop_rounds_to_its_start_stops_there():
    # h'' = 5.7e16: each solve comes within the locus guard ~1e-18 past r0,
    # a stop point that rounds to r0 with the state still the start's; each
    # solve ends after its first step instead of stepping on from there
    jet = 0.6667500596422306, 0.6240301118852803, 5.7330420464942696e16
    span = (0.30036063576653144, 4.569706659582447)
    for lam in np.linspace(5e-324, 2.9554689996700933e-117, 7).tolist():
        single = so.integrate_reduced(*jet, lam, span, rtol=0.6, n_dense=2)
        assert single.status == "singular_locus"
        assert single.rs[-1] == span[0]
        # the start, the initial-step probe, 12 stages and 3 dense stages
        assert single.nfev == 17
