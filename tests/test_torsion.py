import dataclasses

import numpy as np

from g2coflow import forms as fm
from g2coflow import profiles as pf
from g2coflow import torsion as ts
from g2coflow.forms import G2Profile, InvariantForm, StructureKind
from g2coflow.verify import random_g2_profile

CY, NK = StructureKind.CY, StructureKind.NK
DOM = pf.Circle(2 * np.pi)
RS = DOM.sample_points(50, interior=True)


def sine_cone():
    dom = pf.Interval(0.0, np.pi)
    r = pf.coordinate(dom)
    return G2Profile(h=pf.sin(r), theta=r / 3, G=pf.constant(1.0, dom),
                     structure=NK, domain=dom)


def test_cy_constant_theta_has_no_tau0():
    g = G2Profile(h=pf.constant(1.0, DOM), theta=pf.constant(0.7, DOM),
                  G=pf.constant(1.0, DOM), structure=CY, domain=DOM)
    tau0, _ = ts.tau01_first_principles(g)
    assert np.max(np.abs(np.asarray(tau0.value(RS)))) < 1e-13


def test_cy_closed_form_example():
    g = G2Profile(h=pf.constant(1.0, DOM), theta=pf.coordinate(DOM),
                  G=pf.constant(1.0, DOM), structure=CY, domain=DOM)
    tau0, _ = ts.tau01_closed(g)
    assert np.allclose(tau0.value(RS), 12.0 / 7.0)


def test_nk_cylinder_closed_form_example():
    g = G2Profile(h=pf.constant(1.0, DOM), theta=pf.constant(np.pi / 6, DOM),
                  G=pf.constant(1.0, DOM), structure=NK, domain=DOM)
    tau0, tau1 = ts.tau01_closed(g)
    assert np.allclose(tau0.value(RS), 24.0 / 7.0)
    assert np.max(np.abs(np.asarray(tau1.value(RS)))) < 1e-14


def test_nk_sine_cone_tau0_is_four():
    g = sine_cone()
    rs = np.linspace(0.2, np.pi - 0.2, 40)
    tau0, tau1 = ts.tau01_first_principles(g)
    assert np.max(np.abs(np.asarray(tau0.value(rs)) - 4.0)) < 1e-11
    assert np.max(np.abs(np.asarray(tau1.value(rs)))) < 1e-11


def test_nk_cone_is_torsion_free():
    dom = pf.Interval(0.3, 3.0)
    g = G2Profile(h=pf.coordinate(dom), theta=pf.constant(0.0, dom),
                  G=pf.constant(1.0, dom), structure=NK, domain=dom)
    rs = dom.sample_points(50, interior=True)
    tau0, tau1 = ts.tau01_first_principles(g)
    assert np.max(np.abs(np.asarray(tau0.value(rs)))) < 1e-12
    assert np.max(np.abs(np.asarray(tau1.value(rs)))) < 1e-12
    tau2, tau3 = ts.tau2_tau3(g)
    assert tau2.sup_norm(rs) < 1e-12
    assert tau3.sup_norm(rs) < 1e-12


def test_closed_matches_first_principles_random():
    rng = np.random.default_rng(23)
    for structure in (CY, NK):
        for _ in range(10):
            g = random_g2_profile(rng, structure)
            t0a, t1a = ts.tau01_first_principles(g)
            t0b, t1b = ts.tau01_closed(g)
            assert np.max(np.abs(np.asarray(t0a.value(RS)) -
                                 np.asarray(t0b.value(RS)))) < 1e-10
            assert np.max(np.abs(np.asarray(t1a.value(RS)) -
                                 np.asarray(t1b.value(RS)))) < 1e-10


def test_tau2_vanishes_for_random_profiles():
    rng = np.random.default_rng(24)
    for structure in (CY, NK):
        for _ in range(5):
            g = random_g2_profile(rng, structure)
            tau2, _ = ts.tau2_tau3(g)
            assert tau2.sup_norm(RS) < 1e-11


def test_reconstruction_identities():
    # d phi = tau0 psi + 3 tau1 ^ phi + *tau3 and d psi = 4 tau1 ^ psi + *tau2
    rng = np.random.default_rng(25)
    for structure in (CY, NK):
        for _ in range(5):
            g = random_g2_profile(rng, structure)
            phi, psi = fm.build_phi(g), fm.build_psi(g)
            tau0, tau1c = ts.tau01_closed(g)
            tau1 = InvariantForm(1, {"dr": tau1c})
            tau2, tau3 = ts.tau2_tau3(g)
            lhs = fm.d(phi, structure)
            rhs = psi.scale(tau0) + fm.wedge(tau1, phi).scale(3.0) + fm.star7(tau3, g)
            assert (lhs - rhs).sup_norm(RS) < 1e-10
            lhs2 = fm.d(psi, structure)
            rhs2 = fm.wedge(tau1, psi).scale(4.0) + fm.star7(tau2, g)
            assert (lhs2 - rhs2).sup_norm(RS) < 1e-10


def test_sine_cone_is_nearly_g2():
    # tau1 = tau3 = 0 and d phi = 4 psi
    g = sine_cone()
    rs = np.linspace(0.2, np.pi - 0.2, 40)
    _, tau3 = ts.tau2_tau3(g)
    assert tau3.sup_norm(rs) < 1e-11
    diff = fm.d(fm.build_phi(g), NK) - fm.build_psi(g).scale(4.0)
    assert diff.sup_norm(rs) < 1e-11


def test_tau3_orthogonality():
    # tau3 is pointwise orthogonal to phi and to the radial 3-form dr_|_psi
    rng = np.random.default_rng(26)
    for structure in (CY, NK):
        g = random_g2_profile(rng, structure)
        phi, psi = fm.build_phi(g), fm.build_psi(g)
        _, tau3 = ts.tau2_tau3(g)
        chi = fm.interior_r(psi, 1.0)
        for other in (phi, chi):
            ip = np.asarray(fm.pointwise_inner(tau3, other, g).value(RS))
            assert np.max(np.abs(ip)) < 1e-10
        assert abs(fm.l2_inner(tau3, phi, g)) < 1e-9


def test_torsion_report():
    rng = np.random.default_rng(27)
    g = random_g2_profile(rng, NK, coclosed=True)
    rep = ts.torsion_report(g, samples=100)
    assert rep.tau2_norm < 1e-10
    assert rep.coclosed_residual < 1e-9
    assert rep.samples == 100


def _same_bits(got, want):
    """Equal values, dtypes and signs of zeros, real and imaginary parts."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and all(np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
                    for part in (np.real, np.imag)))


def _constant_h(rng, structure):
    g = random_g2_profile(rng, structure)
    return G2Profile(h=pf.constant(1.3, DOM), theta=g.theta, G=g.G,
                     structure=structure, domain=DOM)


def test_torsion_report_holds_the_first_principles_numbers():
    rng = np.random.default_rng(28)
    draws = [random_g2_profile(rng, structure) for structure in (CY, NK)]
    draws += [random_g2_profile(rng, structure, coclosed=True) for structure in (CY, NK)]
    draws += [_constant_h(rng, structure) for structure in (CY, NK)]
    for g in draws:
        rep = ts.torsion_report(g, samples=40)
        assert np.array_equal(rep.rs, g.sample_points(40))
        tau0, tau1 = ts.tau01_first_principles(g)
        assert _same_bits(rep.tau0, tau0.value(rep.rs))
        assert _same_bits(rep.tau1_coeff, tau1.value(rep.rs))
        tau2, tau3 = ts.tau2_tau3(g)
        assert rep.tau2_norm == tau2.sup_norm(rep.rs)
        assert rep.tau3_sup == tau3.sup_norm(rep.rs)
        G = g.G.value(rep.rs)
        assert rep.coclosed_residual == np.max(np.abs(rep.tau1_coeff) / np.abs(G))


def test_a_report_makes_one_evaluate_call(monkeypatch):
    rng = np.random.default_rng(29)
    for structure in (CY, NK):
        g = random_g2_profile(rng, structure)
        calls = []
        evaluate = pf.evaluate

        def spy(r, *terms, **kwargs):
            calls.append(r)
            return evaluate(r, *terms, **kwargs)

        monkeypatch.setattr(pf, "evaluate", spy)
        rep = ts.torsion_report(g, samples=20)
        monkeypatch.undo()
        assert len(calls) == 1 and calls[0] is rep.rs


def test_torsion_report_fields_are_numbers_or_arrays():
    rep = ts.torsion_report(sine_cone(), samples=30)
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        assert isinstance(value, (int, float, np.ndarray)), field.name
    assert len(rep.rs) == len(rep.tau0) == len(rep.tau1_coeff) == 30
    assert rep.tau3_sup < 1e-11   # the sine cone is nearly parallel


def test_the_report_template_is_built_once_per_structure_kind():
    ts._report_template.cache_clear()
    rng = np.random.default_rng(30)
    for structure in (CY, NK, CY, NK):
        ts.torsion_report(random_g2_profile(rng, structure), samples=10)
    info = ts._report_template.cache_info()
    assert info.misses <= 2 and info.hits == 2
