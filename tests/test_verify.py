"""The identity suite: one evaluation per drawn structure, numbers equal to
one sup-norm per residual form."""

import numpy as np
import pytest

from g2coflow import forms as fm
from g2coflow import profiles as pf
from g2coflow import torsion as ts
from g2coflow import verify
from g2coflow.forms import StructureKind
from g2coflow.verify import random_g2_profile, random_invariant_form, run_identity_suite

TOLERANCES = {
    "d_squared_zero": 1e-12,
    "star_involution": 1e-12,
    "dphi_dpsi_structure_equations": 1e-12,
    "tau2_vanishes": 1e-11,
    "tau01_closed_vs_first_principles": 1e-10,
}


def per_form_suite(seed, n_profiles, n_points):
    """The suite's records from one sup_norm call per residual form, each on
    a fresh memo, and tau0/tau1 as differences of their evaluated values."""
    rng = np.random.default_rng(seed)
    dom = pf.Circle(2 * np.pi)
    rs = dom.sample_points(n_points, interior=True)
    worst = dict.fromkeys(TOLERANCES, 0.0)

    def bump(name, value):
        worst[name] = max(worst[name], float(value))

    for structure, count in ((StructureKind.CY, n_profiles - n_profiles // 2),
                             (StructureKind.NK, n_profiles // 2)):
        for _ in range(count):
            g = random_g2_profile(rng, structure, dom)
            for tag in fm.BASIS_TAGS:
                ddb = fm.d(fm.d(fm.InvariantForm.basis(tag), structure), structure)
                bump("d_squared_zero", ddb.sup_norm(rs))
            a = random_invariant_form(rng, degree=int(rng.integers(0, 7)), domain=dom)
            bump("d_squared_zero", fm.d(fm.d(a, structure), structure).sup_norm(rs))
            for tag in fm.BASIS_TAGS:
                b = fm.InvariantForm.basis(tag)
                bump("star_involution", (fm.star7(fm.star7(b, g), g) - b).sup_norm(rs))
            phi, psi = fm.build_phi(g), fm.build_psi(g)
            for got, want in ((fm.d(phi, structure), verify._dphi_expected(g)),
                              (fm.d(psi, structure), verify._dpsi_expected(g))):
                bump("dphi_dpsi_structure_equations", (got - want).sup_norm(rs))
            bump("tau2_vanishes", ts.tau2_tau3(g)[0].sup_norm(rs))
            t0a, t1a = ts.tau01_first_principles(g)
            t0b, t1b = ts.tau01_closed(g)
            t0a, t0b, t1a, t1b = pf.evaluate(rs, t0a, t0b, t1a, t1b)
            bump("tau01_closed_vs_first_principles", np.max(np.abs(t0a - t0b)))
            bump("tau01_closed_vs_first_principles", np.max(np.abs(t1a - t1b)))

    return [{"name": name, "max_residual": worst[name], "tolerance": tol,
             "passed": worst[name] < tol} for name, tol in TOLERANCES.items()]


@pytest.mark.parametrize("seed, n_profiles, n_points",
                         [(0, 20, 50), (7, 6, 13), (104729, 2, 1), (2, 3, 9)])
def test_suite_records_equal_one_sup_norm_per_residual_form(seed, n_profiles, n_points):
    assert (run_identity_suite(seed, n_profiles, n_points)
            == per_form_suite(seed, n_profiles, n_points))


def test_suite_makes_one_evaluate_call_per_drawn_structure(monkeypatch):
    rs = pf.Circle(2 * np.pi).sample_points(7, interior=True)
    on_rs = []
    evaluate = pf.evaluate

    def spy(r, *terms, **kwargs):
        on_rs.append(np.array_equal(r, rs))
        return evaluate(r, *terms, **kwargs)

    monkeypatch.setattr(pf, "evaluate", spy)
    run_identity_suite(seed=3, n_profiles=4, n_points=7)
    assert sum(on_rs) == 4


def test_each_template_is_built_once_per_structure_kind_and_degree():
    verify._suite_template.cache_clear()
    run_identity_suite(seed=1, n_profiles=20, n_points=5)
    run_identity_suite(seed=2, n_profiles=20, n_points=5)
    info = verify._suite_template.cache_info()
    assert info.misses <= 14 and info.hits + info.misses == 40


# ---------------------------------------------------------------------------
# drawn profiles: one closed-form node each, bitwise equal to the tree that
# the same draws build from profiles operations
# ---------------------------------------------------------------------------

def tree_trig_profile(rng, dom, floor=None, amplitude=0.6):
    """The reference: the drawn trigonometric polynomial built as a tree."""
    r = pf.coordinate(dom)
    p = pf.constant(rng.uniform(-0.5, 0.5))
    for k in (1, 2):
        a = amplitude * rng.uniform(-1, 1) / k
        b = amplitude * rng.uniform(-1, 1) / k
        p = p + a * pf.sin(k * r) + b * pf.cos(k * r)
    if floor is not None:
        span = sum(2 * amplitude / k for k in (1, 2)) + 0.5
        p = p + pf.constant(floor + span)
    return p


def assert_bitwise_equal(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


# (amplitude, floor) of theta, G and h in random_g2_profile, and of the
# coefficients of random_invariant_form
VARIANTS = [(0.4, None), (0.3, 0.6), (0.4, 0.7), (0.5, None)]
CIRCLE = pf.Circle(2 * np.pi)


@pytest.mark.parametrize("amplitude, floor", VARIANTS)
@pytest.mark.parametrize("dom, r", [(CIRCLE, CIRCLE.sample_points(50, interior=True)),
                                    (pf.Interval(-0.7, 2.9), 1.3)])
def test_a_drawn_profile_and_its_derivatives_equal_the_tree_bitwise(dom, r, amplitude,
                                                                    floor):
    for seed in range(24):
        want = tree_trig_profile(np.random.default_rng(seed), dom, floor, amplitude)
        got = verify._trig_profile(np.random.default_rng(seed), dom, floor, amplitude)
        assert got.domain == want.domain == dom
        for g, w in zip(got.jet(r), want.jet(r)):
            assert_bitwise_equal(g, w)


def test_drawn_profiles_and_their_derivatives_are_childless_single_nodes():
    g = random_g2_profile(np.random.default_rng(5), StructureKind.NK)
    a = random_invariant_form(np.random.default_rng(5), degree=1)
    coefficient = next(iter(a.coeffs.values())).a   # re + 1j im: re is drawn
    for p in (g.h, g.theta, g.G, coefficient):
        for q in p._jet_terms():
            assert type(q) is type(p)
            # every slot but the kept derivative tree, which is no operand
            attrs = [getattr(q, s) for c in type(q).__mro__
                     for s in getattr(c, "__slots__", ()) if s != "_deriv"]
            assert not any(isinstance(x, pf.Profile) for x in attrs)


@pytest.mark.parametrize("seed", [0, 1, 7, 104729])
def test_suite_records_equal_those_of_tree_profiles(monkeypatch, seed):
    got = run_identity_suite(seed, 20, 50)
    monkeypatch.setattr(verify, "_trig_profile", tree_trig_profile)
    assert got == run_identity_suite(seed, 20, 50)


@pytest.mark.parametrize("structure", [StructureKind.CY, StructureKind.NK])
def test_coclosed_laplacian_lemma_values_equal_those_of_tree_profiles(monkeypatch,
                                                                     structure):
    rs = pf.Circle(2 * np.pi).sample_points(50, interior=True)

    def lemma_values(seed):
        g = random_g2_profile(np.random.default_rng(seed), structure, coclosed=True)
        return [form.coefficient_values(rs)
                for form in (fm.hodge_laplacian_psi(g, tol=1e-8),
                             fm.laplacian_psi_closed_form(g))]

    got = [lemma_values(seed) for seed in (1, 2, 3)]
    monkeypatch.setattr(verify, "_trig_profile", tree_trig_profile)
    want = [lemma_values(seed) for seed in (1, 2, 3)]
    for got_forms, want_forms in zip(got, want):
        for g, w in zip(got_forms, want_forms):
            assert g.keys() == w.keys()
            for tag in g:
                assert_bitwise_equal(g[tag], w[tag])
