import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2coflow import forms as fm
from g2coflow import profiles as pf
from g2coflow import torsion as ts
from g2coflow import verify
from g2coflow.errors import (
    ConstraintViolated,
    DegreeMismatch,
    DegreeOverflow,
    InvalidGeometry,
)
from g2coflow.forms import G2Profile, InvariantForm, StructureKind
from g2coflow.verify import random_g2_profile, random_invariant_form

CY, NK = StructureKind.CY, StructureKind.NK

DOM = pf.Circle(2 * np.pi)
RS = DOM.sample_points(50, interior=True)


def unit_g2(structure=CY, h=1.0, theta=0.0, G=1.0, domain=DOM):
    return G2Profile(
        h=pf.constant(h, domain), theta=pf.constant(theta, domain),
        G=pf.constant(G, domain), structure=structure, domain=domain,
    )


def sine_cone():
    dom = pf.Interval(0.0, np.pi)
    r = pf.coordinate(dom)
    return G2Profile(h=pf.sin(r), theta=r / 3, G=pf.constant(1.0, dom),
                     structure=NK, domain=dom)


def nk_cone(r0=0.3, r1=3.0):
    dom = pf.Interval(r0, r1)
    return G2Profile(h=pf.coordinate(dom), theta=pf.constant(0.0, dom),
                     G=pf.constant(1.0, dom), structure=NK, domain=dom)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_omega_with_omega2_half_is_three_vol6():
    w = fm.InvariantForm.basis("omega")
    w2 = fm.InvariantForm.basis("omega2_half")
    out = fm.wedge(w, w2)
    assert set(out.coeffs) == {"vol6"}
    assert np.allclose(out.coeff("vol6").value(RS), 3.0)


def test_wedge_Omega_squared_is_zero():
    Om = fm.InvariantForm.basis("Omega")
    assert fm.wedge(Om, Om).is_zero()


def test_wedge_Omega_Omegabar_normalization():
    Om = fm.InvariantForm.basis("Omega")
    Ob = fm.InvariantForm.basis("Omegabar")
    out = fm.wedge(Om, Ob).scale(1j / 8)
    assert np.allclose(out.coeff("vol6").value(RS), 1.0)


def test_wedge_graded_commutativity_all_basis_pairs():
    for ta in fm.BASIS_TAGS:
        for tb in fm.BASIS_TAGS:
            a, b = fm.InvariantForm.basis(ta), fm.InvariantForm.basis(tb)
            if a.degree + b.degree > 7:
                continue
            sign = (-1.0) ** (a.degree * b.degree)
            diff = fm.wedge(a, b) - fm.wedge(b, a).scale(sign)
            assert diff.sup_norm(RS) < 1e-14, (ta, tb)


def test_wedge_overflow_silent_and_strict():
    a = fm.InvariantForm.basis("dr_vol6")
    b = fm.InvariantForm.basis("omega")
    assert fm.wedge(a, b).is_zero()
    with pytest.raises(DegreeOverflow):
        fm.wedge(a, b, strict=True)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_d_squared_vanishes_on_basis_and_random_forms():
    rng = np.random.default_rng(11)
    for structure in (CY, NK):
        for tag in fm.BASIS_TAGS:
            dd = fm.d(fm.d(fm.InvariantForm.basis(tag), structure), structure)
            assert dd.sup_norm(RS) < 1e-13
        for _ in range(25):
            a = random_invariant_form(rng, degree=int(rng.integers(0, 7)))
            dd = fm.d(fm.d(a, structure), structure)
            assert dd.sup_norm(RS) < 1e-13


def test_dphi_cy_structure_equation():
    rng = np.random.default_rng(5)
    g = random_g2_profile(rng, CY)
    dphi = fm.d(fm.build_phi(g), CY)
    F3 = g.F_cubed()
    want = 0.5 * np.asarray(F3.derivative().value(RS))
    got = np.asarray(dphi.coeff("dr_Omega").value(RS))
    assert np.max(np.abs(got - want)) < 1e-12
    gotbar = np.asarray(dphi.coeff("dr_Omegabar").value(RS))
    assert np.max(np.abs(gotbar - np.conjugate(want))) < 1e-12
    assert dphi.coeff("omega2_half").value(0.5) == 0


def test_dpsi_nk_structure_equation():
    rng = np.random.default_rng(6)
    g = random_g2_profile(rng, NK)
    dpsi = fm.d(fm.build_psi(g), NK)
    F3v = np.asarray(g.F_cubed().value(RS))
    Gv = np.asarray(g.G.value(RS))
    h4p = np.asarray(pf.pow_int(g.h, 4).derivative().value(RS))
    want = 2 * Gv * (F3v + np.conjugate(F3v)) - h4p
    got = np.asarray(dpsi.coeff("dr_omega2_half").value(RS))
    assert np.max(np.abs(got - want)) < 1e-12
    assert set(dpsi.coeffs) <= {"dr_omega2_half"}


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_star_unit_example():
    g = unit_g2()
    out = fm.star7(fm.InvariantForm.basis("dr_omega2_half"), g)
    assert set(out.coeffs) == {"omega"}
    assert np.allclose(out.coeff("omega").value(RS), 1.0)


def test_star_vol6_with_h2_G3():
    g = unit_g2(h=2.0, G=3.0)
    out = fm.star7(fm.InvariantForm.basis("vol6"), g)
    assert set(out.coeffs) == {"dr"}
    assert np.allclose(out.coeff("dr").value(RS), 3.0 / 64.0)


def test_star_involution_random_profiles():
    rng = np.random.default_rng(12)
    for structure in (CY, NK):
        g = random_g2_profile(rng, structure)
        for tag in fm.BASIS_TAGS:
            b = fm.InvariantForm.basis(tag)
            diff = fm.star7(fm.star7(b, g), g) - b
            assert diff.sup_norm(RS) < 1e-12, tag


def test_star_is_isometry():
    rng = np.random.default_rng(13)
    g = random_g2_profile(rng, NK)
    for deg in range(8):
        a = random_invariant_form(rng, degree=deg)
        n1 = fm.pointwise_inner(a, a, g).value(RS)
        sa = fm.star7(a, g)
        n2 = fm.pointwise_inner(sa, sa, g).value(RS)
        assert np.max(np.abs(np.asarray(n1) - np.asarray(n2))) < 1e-11


# ---------------------------------------------------------------------------
# interior product
# ---------------------------------------------------------------------------

def test_interior_basic():
    out = fm.interior_r(fm.InvariantForm.basis("dr_Omega"), 1.0)
    assert set(out.coeffs) == {"Omega"}
    assert fm.interior_r(fm.InvariantForm.basis("omega"), 1.0).is_zero()


def test_interior_of_psi_with_kprime():
    rng = np.random.default_rng(14)
    g = random_g2_profile(rng, NK)
    g = G2Profile(h=g.h, theta=g.theta, G=pf.constant(1.0, g.domain),
                  structure=NK, domain=g.domain)
    kp = pf.sin(pf.coordinate(g.domain))
    out = fm.interior_r(fm.build_psi(g), kp)
    F3 = np.asarray(g.F_cubed().value(RS))
    want = 0.5j * F3 * np.sin(RS)
    got = np.asarray(out.coeff("Omega").value(RS))
    assert np.max(np.abs(got - want)) < 1e-12
    # the Omegabar coefficient -i Fbar^3 k'/2 is the conjugate of the Omega one
    gotbar = np.asarray(out.coeff("Omegabar").value(RS))
    assert np.max(np.abs(gotbar - np.conjugate(want))) < 1e-12
    assert "omega2_half" not in out.coeffs


# ---------------------------------------------------------------------------
# phi, psi and inner products
# ---------------------------------------------------------------------------

def test_build_phi_psi_units():
    g = unit_g2()
    psi = fm.build_psi(g)
    assert np.allclose(psi.coeff("dr_Omega").value(RS), 0.5j)
    assert np.allclose(psi.coeff("dr_Omegabar").value(RS), -0.5j)
    assert np.allclose(psi.coeff("omega2_half").value(RS), -1.0)


def test_psi_is_star_phi():
    rng = np.random.default_rng(15)
    for structure in (CY, NK):
        for _ in range(10):
            g = random_g2_profile(rng, structure)
            diff = fm.star7(fm.build_phi(g), g) - fm.build_psi(g)
            assert diff.sup_norm(RS) < 1e-12


def test_norms_of_phi_and_psi_are_seven():
    rng = np.random.default_rng(16)
    g = random_g2_profile(rng, NK)
    phi, psi = fm.build_phi(g), fm.build_psi(g)
    assert np.max(np.abs(np.asarray(fm.pointwise_inner(phi, phi, g).value(RS)) - 7)) < 1e-11
    assert np.max(np.abs(np.asarray(fm.pointwise_inner(psi, psi, g).value(RS)) - 7)) < 1e-11


def test_inner_degree_mismatch():
    g = unit_g2()
    with pytest.raises(DegreeMismatch):
        fm.pointwise_inner(fm.InvariantForm.basis("omega"),
                           fm.InvariantForm.basis("Omega"), g)


def test_invariant_form_rejects_basis_element_of_wrong_degree():
    with pytest.raises(DegreeMismatch):
        InvariantForm(3, {"omega": pf.constant(1.0)})


def test_sample_points_without_domain_is_invalid_geometry():
    g = G2Profile(h=pf.constant(1.0), theta=pf.constant(0.0),
                  G=pf.constant(1.0), structure=CY)
    assert g.domain is None
    with pytest.raises(InvalidGeometry):
        g.sample_points(10)


def test_integrate_profile_needs_circle_or_interval():
    with pytest.raises(InvalidGeometry):
        fm.integrate_profile(pf.constant(1.0), None)


def test_inner_dr_dr_is_inverse_G_squared():
    rng = np.random.default_rng(17)
    g = random_g2_profile(rng, CY)
    drdr = fm.pointwise_inner(fm.InvariantForm.basis("dr"),
                              fm.InvariantForm.basis("dr"), g)
    want = 1.0 / np.asarray(g.G.value(RS)) ** 2
    assert np.max(np.abs(np.asarray(drdr.value(RS)) - want)) < 1e-12


def test_l2_inner_constant():
    g = unit_g2()
    one = fm.InvariantForm.basis("one")
    # <1,1> vol7 integrates to the circle length with unit h, G
    assert abs(fm.l2_inner(one, one, g) - 2 * np.pi) < 1e-9


# ---------------------------------------------------------------------------
# Hodge Laplacian of psi
# ---------------------------------------------------------------------------

def test_laplacian_torsion_free_cy_product_is_zero():
    g = unit_g2(theta=0.3)
    lap = fm.hodge_laplacian_psi(g)
    assert lap.sup_norm(RS) < 1e-13


def test_laplacian_nk_cone_is_zero():
    g = nk_cone()
    rs = g.domain.sample_points(50, interior=True)
    lap = fm.hodge_laplacian_psi(g)
    assert lap.sup_norm(rs) < 1e-12


def test_laplacian_sine_cone_is_eigenform():
    g = sine_cone()
    rs = np.linspace(0.2, np.pi - 0.2, 40)
    lap = fm.hodge_laplacian_psi(g)           # this is -Delta psi
    want = fm.build_psi(g).scale(-16.0)       # -16 psi
    diff = lap - want
    assert diff.sup_norm(rs) < 1e-11


def test_laplacian_requires_constraint():
    dom = pf.Circle(2 * np.pi)
    r = pf.coordinate(dom)
    g = G2Profile(h=2 + pf.sin(r), theta=pf.constant(0.1, dom),
                  G=pf.constant(1.0, dom), structure=CY, domain=dom)
    with pytest.raises(ConstraintViolated):
        fm.hodge_laplacian_psi(g)


@pytest.mark.parametrize("field", ["h", "G"])
def test_g2profile_rejects_non_positive_h_or_G(field):
    dom = pf.Interval(0.4, 2.4)
    r = pf.coordinate(dom)
    data = {"h": r, "theta": pf.constant(0.0, dom), "G": pf.constant(1.0, dom)}
    data[field] = r - 1.0
    with pytest.raises(InvalidGeometry) as exc:
        G2Profile(**data, structure=NK, domain=dom)
    assert isinstance(exc.value, ValueError)


def test_codifferential_coclosed_shortcut():
    # d* psi = *d phi whenever the structure is coclosed
    rng = np.random.default_rng(28)
    for structure in (CY, NK):
        g = random_g2_profile(rng, structure, coclosed=True)
        psi, phi = fm.build_psi(g), fm.build_phi(g)
        diff = fm.codifferential(psi, g) - fm.star7(fm.d(phi, structure), g)
        assert diff.sup_norm(RS) < 1e-9


def test_codifferential_is_l2_adjoint_of_d():
    # <d a, b> = <a, d* b> on a circle (no boundary terms)
    rng = np.random.default_rng(29)
    for structure in (CY, NK):
        g = random_g2_profile(rng, structure)
        for deg in (2, 3):
            a = random_invariant_form(rng, degree=deg)
            b = random_invariant_form(rng, degree=deg + 1)
            lhs = fm.l2_inner(fm.d(a, structure), b, g)
            rhs = fm.l2_inner(a, fm.codifferential(b, g), g)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


def test_laplacian_equals_full_hodge_laplacian_when_coclosed():
    # -d d* psi agrees with -(d d* + d* d) psi since d psi = 0
    rng = np.random.default_rng(30)
    g = random_g2_profile(rng, NK, coclosed=True)
    psi = fm.build_psi(g)
    full = (fm.d(fm.codifferential(psi, g), g.structure)
            + fm.codifferential(fm.d(psi, g.structure), g)).scale(-1.0)
    assert (fm.hodge_laplacian_psi(g, tol=1e-8) - full).sup_norm(RS) < 1e-8


def test_laplacian_matches_closed_form_cy_and_nk():
    rng = np.random.default_rng(18)
    for structure in (CY, NK):
        for _ in range(3):
            g = random_g2_profile(rng, structure, coclosed=True)
            got = fm.hodge_laplacian_psi(g, tol=1e-8)
            want = fm.laplacian_psi_closed_form(g)
            assert (got - want).sup_norm(RS) < 1e-8


# ---------------------------------------------------------------------------
# reality flag and serialization
# ---------------------------------------------------------------------------

def test_reality_flag_invariant():
    rng = np.random.default_rng(19)
    g = random_g2_profile(rng, NK)
    for form in (fm.build_phi(g), fm.build_psi(g)):
        assert form.real
        vals = form.coefficient_values(RS)
        for tag, arr in vals.items():
            if tag in ("Omega", "dr_Omega"):
                partner = "Omegabar" if tag == "Omega" else "dr_Omegabar"
                assert np.max(np.abs(np.conjugate(arr) - vals[partner])) < 1e-12
            elif tag not in ("Omegabar", "dr_Omegabar"):
                assert np.max(np.abs(np.imag(arr))) < 1e-12


def test_form_json_roundtrip():
    rng = np.random.default_rng(20)
    a = random_invariant_form(rng, degree=4)
    b = fm.InvariantForm.from_json(a.to_json())
    assert (a - b).sup_norm(RS) < 1e-12
    assert {e["basis"] for e in a.to_json()["entries"]} <= set(fm.BASIS_TAGS)


# ---------------------------------------------------------------------------
# calculus identities on drawn data and domains
# ---------------------------------------------------------------------------

DOMAINS = st.one_of(
    st.builds(pf.Circle, st.floats(0.5, 2 * np.pi), st.floats(-3.0, 3.0)),
    st.builds(lambda r0, length: pf.Interval(r0, r0 + length),
              st.floats(-3.0, 3.0), st.floats(0.5, 2 * np.pi)),
)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), structure=st.sampled_from([CY, NK]),
       domain=DOMAINS)
def test_identities_hold_on_drawn_profiles_and_domains(seed, structure, domain):
    # the identity suite's checks and tolerances, off its fixed circle
    rng = np.random.default_rng(seed)
    g = random_g2_profile(rng, structure, domain)
    rs = domain.sample_points(50, interior=True)
    for tag in fm.BASIS_TAGS:
        b = fm.InvariantForm.basis(tag)
        assert fm.d(fm.d(b, structure), structure).sup_norm(rs) < 1e-12
        assert (fm.star7(fm.star7(b, g), g) - b).sup_norm(rs) < 1e-12
    a = random_invariant_form(rng, degree=int(rng.integers(0, 7)), domain=domain)
    assert fm.d(fm.d(a, structure), structure).sup_norm(rs) < 1e-12
    for got, want in ((fm.d(fm.build_phi(g), structure), verify._dphi_expected(g)),
                      (fm.d(fm.build_psi(g), structure), verify._dpsi_expected(g))):
        assert (got - want).sup_norm(rs) < 1e-12
    tau2, _tau3 = ts.tau2_tau3(g)
    assert tau2.sup_norm(rs) < 1e-11
