import csv
import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2coflow import profiles as pf
from g2coflow.errors import DomainError, G2CoflowError, InvalidGeometry, SingularEval

R = pf.coordinate()


def random_closed_form(rng, depth=3):
    """Random smooth closed-form profile built from the supported node set."""
    if depth == 0:
        return rng.choice([pf.constant(rng.uniform(-2, 2)), R, R])
    pick = rng.integers(0, 7)
    child = random_closed_form(rng, depth - 1)
    if pick == 0:
        return child + random_closed_form(rng, depth - 1)
    if pick == 1:
        return child - random_closed_form(rng, depth - 1)
    if pick == 2:
        return child * random_closed_form(rng, depth - 1)
    if pick == 3:
        return pf.sin(child)
    if pick == 4:
        return pf.cos(child)
    if pick == 5:
        return pf.exp(pf.sin(child))  # keep magnitudes tame
    return pf.arctan(child)


def test_jet_of_sine_at_zero():
    j = pf.jet_at(pf.sin(R), 0.0)
    assert np.allclose(j.c, (0.0, 1.0, 0.0, -1.0, 0.0), atol=1e-15)


def test_jet_of_square_at_three():
    j = pf.jet_at(R * R, 3.0)
    assert np.allclose(j.c, (9.0, 6.0, 2.0, 0.0, 0.0), atol=1e-13)


def test_jet_of_cy_soliton_phase_at_zero():
    # (2/3) arctan(e^r): value pi/6 and slope 1/3 at r = 0
    th = (2.0 / 3.0) * pf.arctan(pf.exp(R))
    j = pf.jet_at(th, 0.0)
    assert abs(j.value - np.pi / 6) < 1e-14
    assert abs(j.derivs[0] - 1.0 / 3.0) < 1e-14


def test_jet_vectorized_matches_scalar():
    p = pf.exp(pf.sin(R)) / (2 + pf.cos(R))
    rs = np.linspace(-2, 2, 11)
    vec = p.jet(rs)
    for k, r in enumerate(rs):
        sc = p.jet(float(r))
        assert np.allclose([c[k] for c in vec.c], sc.c, atol=1e-14)


def test_leibniz_rule_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = random_closed_form(rng)
        g = random_closed_form(rng)
        rs = rng.uniform(-3, 3, size=5)
        for r in rs:
            jf, jg, jfg = f.jet(float(r)), g.jet(float(r)), (f * g).jet(float(r))
            manual = (
                jf.c[0] * jg.c[0],
                jf.c[1] * jg.c[0] + jf.c[0] * jg.c[1],
                jf.c[2] * jg.c[0] + 2 * jf.c[1] * jg.c[1] + jf.c[0] * jg.c[2],
                jf.c[3] * jg.c[0] + 3 * jf.c[2] * jg.c[1] + 3 * jf.c[1] * jg.c[2]
                + jf.c[0] * jg.c[3],
                jf.c[4] * jg.c[0] + 4 * jf.c[3] * jg.c[1] + 6 * jf.c[2] * jg.c[2]
                + 4 * jf.c[1] * jg.c[3] + jf.c[0] * jg.c[4],
            )
            scale = max(1.0, *(abs(m) for m in manual))
            assert all(abs(a - b) / scale < 1e-12 for a, b in zip(jfg.c, manual))


def test_tree_derivative_matches_jet_shift():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_closed_form(rng)
        fp = f.derivative()
        for r in rng.uniform(-2, 2, size=4):
            jf = f.jet(float(r))
            jfp = fp.jet(float(r))
            scale = max(1.0, *(abs(c) for c in jf.c))
            assert all(
                abs(a - b) / scale < 1e-11
                for a, b in zip(jf.c[1:], jfp.c[:-1])
            )


def test_tree_derivatives_integrate_back_to_the_order_below():
    # the quadrature route, independent of derivative(): the integral of
    # f^(k) from 0 plus f^(k-1)(0) reproduces f^(k-1), for k = 1..4
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = random_closed_form(rng)
        rs = rng.uniform(-2, 2, size=4)
        jf = f.jet(rs)
        scale = np.maximum(1.0, np.max(np.abs(jf.c), axis=0))
        lower = f
        for k in range(1, 5):
            higher = lower.derivative()
            q = pf.antiderivative(higher, 0.0, lower.value(0.0))
            assert np.all(np.abs(q.value(rs) - jf.c[k - 1]) / scale < 1e-11)
            lower = higher


def test_division_by_zero_raises():
    p = pf.constant(1.0) / R
    with pytest.raises(SingularEval):
        p.jet(0.0)
    with pytest.raises(SingularEval):
        p.value(0.0)


def test_arctan_pole_raises():
    # complex argument hitting 1 + x^2 = 0
    p = pf.arctan(pf.constant(1j) * R)
    with pytest.raises(SingularEval):
        p.jet(1.0)


def test_arctan_pole_raises_without_a_warning():
    p = pf.arctan(pf.constant(1j) * R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (p.value, p.jet):
            with pytest.raises(SingularEval):
                evaluate(1.0)


def test_complex_profiles_and_conjugation():
    F3 = (R ** 3) * (pf.cos(3 * R) + pf.constant(1j) * pf.sin(3 * R))
    Fb3 = F3.conj()
    r = 0.7
    jf, jb = F3.jet(r), Fb3.jet(r)
    assert all(abs(np.conjugate(a) - b) < 1e-13 for a, b in zip(jf.c, jb.c))


def test_integer_powers_including_negative():
    p = (2 + pf.sin(R)) ** -2
    r = 0.3
    x = 2 + np.sin(r)
    assert abs(p.value(r) - x ** -2) < 1e-14
    d1 = -2 * x ** -3 * np.cos(r)
    assert abs(p.jet(r).derivs[0] - d1) < 1e-13


def test_domain_checks():
    dom = pf.Interval(0.0, 1.0)
    p = pf.sin(pf.coordinate(dom))
    p.value(0.5)
    with pytest.raises(DomainError):
        p.value(2.0)
    circ = pf.sin(pf.coordinate(pf.Circle(2 * np.pi)))
    circ.value(100.0)  # circles accept any coordinate


@pytest.mark.parametrize("build", [lambda: pf.Interval(1.0, 1.0),
                                   lambda: pf.Interval(2.0, 1.0),
                                   lambda: pf.Circle(0.0),
                                   lambda: pf.Circle(-1.0)])
def test_empty_domains_raise_a_typed_value_error(build):
    with pytest.raises(InvalidGeometry) as exc:
        build()
    assert isinstance(exc.value, ValueError)


def test_incompatible_domains_rejected():
    a = pf.coordinate(pf.Interval(0.0, 1.0))
    b = pf.coordinate(pf.Circle(2 * np.pi))
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize("build", [
    lambda: pf.coordinate(pf.Interval(0.0, 1.0)) + pf.coordinate(pf.Circle(2 * np.pi)),
    lambda: pf.domain_from_json({"kind": "disk"}),
    lambda: pf.profile_from_json({"root": {"type": "spline"}}),
    lambda: pf.Sampled(None, np.zeros(16)),
    lambda: pf.Sampled(pf.Circle(1.0), np.zeros(7)),
], ids=["incompatible-domains", "unknown-domain-kind", "unknown-node-type",
        "sampled-without-domain", "sampled-mesh-too-small"])
def test_bad_profile_input_raises_a_typed_error(build):
    with pytest.raises(G2CoflowError) as exc:
        build()
    assert isinstance(exc.value, InvalidGeometry)


# ---------------------------------------------------------------------------
# antiderivatives
# ---------------------------------------------------------------------------

def test_antiderivative_of_cosine_is_sine():
    q = pf.antiderivative(pf.cos(R), 0.0, 0.0)
    for r in np.linspace(0, np.pi, 9):
        assert abs(q.value(float(r)) - np.sin(r)) < 1e-12
    assert q.metadata["rule"] == "adaptive_simpson"
    assert q.metadata["tolerance"] == 1e-12


def test_antiderivative_sine_cone_profile():
    # h' = G cos(3 theta) with G = 1, theta = r/3 integrates to sin(r)
    h = pf.antiderivative(pf.cos(R), 0.0, 0.0)
    rs = np.linspace(0.1, np.pi - 0.1, 25)
    assert np.max(np.abs(h.value(rs) - np.sin(rs))) < 1e-11


def test_antiderivative_roundtrip_cy_kprime():
    b = c = 1.0
    e2 = pf.exp(2 * R)
    kprime = b * (1 - c ** 2 * e2) / (1 + c ** 2 * e2)
    k = pf.antiderivative(kprime, 0.0, 0.0)
    assert abs(k.value(0.0)) < 1e-15
    # k' recovers the integrand through the derivative() route and jets
    kp = k.derivative()
    for r in np.linspace(-1, 1, 7):
        assert abs(kp.value(float(r)) - kprime.value(float(r))) < 1e-10


def test_antiderivative_then_derivative_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = pf.exp(pf.sin(random_closed_form(rng, 2)))
        q = pf.antiderivative(f.derivative(), 0.0, f.value(0.0))
        for r in rng.uniform(-1.5, 1.5, size=5):
            assert abs(q.value(float(r)) - f.value(float(r))) < 1e-10


def _recursive_simpson(f, a, b, tol, depth=48):
    """Scalar recursive adaptive Simpson (Lyness 1969), the reference for the
    batched quadrature: same accept test, same sums in the same order."""
    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        assert depth > 0
        return (rec(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                + rec(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    return rec(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, depth)


def test_batched_simpson_equals_the_recursive_rule_bitwise():
    g = pf.cos(3 * R) * pf.exp(pf.sin(R)) + 1j * pf.sin(2 * R)
    a = np.array([0.0, 0.25, 2.0, 1.3, -0.5])
    b = np.array([0.25, 0.5, 1.1, 1.3, -3.0])  # reversed and empty segments too
    got = pf._simpson_batch(lambda t: g._value(t, {}), a, b, 1e-12)
    want = [_recursive_simpson(lambda t: g._value(np.array([t]), {})[0], x, y, 1e-12)
            for x, y in zip(a, b)]
    assert np.array_equal(got, np.array(want))


def test_antiderivative_does_not_depend_on_evaluation_order():
    rs = np.linspace(0.1, 3, 30)
    values = []
    for order in (rs, rs[::-1]):
        q = pf.antiderivative(pf.cos(R), 0.0, 0.0)
        got = {r: q.value(float(r)) for r in order}
        values.append(np.array([got[r] for r in rs]))
    values.append(pf.antiderivative(pf.cos(R), 0.0, 0.0).value(rs))
    assert np.array_equal(values[0], values[1])
    assert np.array_equal(values[0], values[2])


def test_coclosed_nk_h_does_not_depend_on_history():
    from g2coflow.forms import StructureKind
    from g2coflow.verify import random_g2_profile

    rs = pf.Circle(2 * np.pi).sample_points(50, interior=True)
    want = random_g2_profile(np.random.default_rng(7), StructureKind.NK,
                             coclosed=True).h.value(rs)
    rng = np.random.default_rng(11)
    for _ in range(12):
        h = random_g2_profile(np.random.default_rng(7), StructureKind.NK,
                              coclosed=True).h
        for r in rng.uniform(0.0, 2 * np.pi, size=int(rng.integers(1, 20))):
            h.value(float(r))
        got = {r: h.value(float(r)) for r in rng.permutation(rs)}
        assert np.array_equal(np.array([got[r] for r in rs]), want)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.tuples(st.floats(-1, 1), st.floats(0, 3)),
                       min_size=1, max_size=4),
       points=st.lists(st.floats(-4, 4), min_size=1, max_size=12),
       data=st.data())
def test_batch_equals_shuffled_pointwise_evaluation(coeffs, points, data):
    integrand = pf.constant(0.5)
    for j, (amp, phase) in enumerate(coeffs, start=1):
        integrand = integrand + amp * pf.cos(j * R + phase)
    rs = np.array(points)
    batch = pf.antiderivative(integrand, 0.3, 0.0).value(rs)
    q = pf.antiderivative(integrand, 0.3, 0.0)
    order = data.draw(st.permutations(range(len(rs))))
    single = np.empty_like(batch)
    for i in order:
        single[i] = q.value(float(rs[i]))
    assert np.array_equal(batch, single)


def test_antiderivative_below_r0_and_on_breakpoints():
    r0 = 1.0
    q = pf.antiderivative(pf.cos(R), r0, 0.5)
    rs = np.concatenate((np.linspace(-2.0, 3.0, 23),
                         r0 + q.panel * np.arange(-8, 9)))
    want = np.sin(rs) - np.sin(r0) + 0.5
    got = q.value(rs)
    assert np.max(np.abs(got - want)) < 1e-12
    assert q.value(r0) == 0.5
    assert np.array_equal(got, [q.value(float(r)) for r in rs])


def test_antiderivative_complex_integrand_and_c0():
    c0 = 1.0 + 2.0j
    q = pf.antiderivative(pf.exp(1j * R), 0.0, c0)
    rs = np.linspace(-1.0, 4.0, 17)
    got = q.value(rs)
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - (c0 + (np.exp(1j * rs) - 1.0) / 1j))) < 1e-11


def test_nested_antiderivative():
    q = pf.antiderivative(pf.antiderivative(pf.cos(R), 0.0, 0.0), 0.0, -1.0)
    rs = np.linspace(-2.0, 2.5, 13)
    assert np.max(np.abs(q.value(rs) + np.cos(rs))) < 1e-11
    assert np.array_equal(q.value(rs), [q.value(float(r)) for r in rs])


def test_antiderivative_on_interval_up_to_its_end():
    dom = pf.Interval(0.3, 2.1)
    x = pf.coordinate(dom)
    # the integrand has a pole just past the end, where no panel may reach
    q = pf.antiderivative(1.0 / (x - 2.11), dom.r0, 0.0)
    rs = dom.sample_points(40)
    assert rs[-1] == dom.r1
    want = np.log(np.abs(rs - 2.11)) - np.log(np.abs(dom.r0 - 2.11))
    assert np.max(np.abs(q.value(rs) - want)) < 1e-11
    with pytest.raises(DomainError):
        q.value(2.2)


def test_antiderivative_scalar_equals_array_entry():
    q = pf.antiderivative(pf.exp(pf.sin(R)), 0.0, 0.2)
    for r in (0.0, 0.25, 0.7, -1.3, 5.0):
        scalar = q.value(r)
        assert np.ndim(scalar) == 0
        assert scalar == q.value(np.array([[r, 0.1]]))[0, 0]


def test_antiderivative_refined_in_parts_keeps_values(monkeypatch):
    wiggly = pf.sin(4.0 / (R + 0.3))
    rs = np.linspace(0.01, 2.5, 40)
    want = pf.antiderivative(wiggly, 0.0, 0.0).value(rs)
    monkeypatch.setattr(pf, "_MAX_INTERVALS", 64)
    assert np.array_equal(pf.antiderivative(wiggly, 0.0, 0.0).value(rs), want)


def test_quadrature_failure_on_a_batch_is_quick():
    from g2coflow.errors import QuadratureFailure

    q = pf.antiderivative(pf.sin(pf.constant(1.0) / R), 1.0, 0.0, tol=1e-14)
    start = time.perf_counter()
    with pytest.raises(QuadratureFailure):
        q.value(np.linspace(1e-7, 1e-3, 64))
    # more panels than the per-value budget allows, or no panel count at all
    for r in (1e6, np.nan):
        with pytest.raises(QuadratureFailure):
            q.value(r)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# sampled backend
# ---------------------------------------------------------------------------

def test_sampled_requires_mesh_node():
    dom = pf.Circle(2 * np.pi)
    s = pf.Sampled.from_function(np.sin, dom, 64)
    s.jet(dom.period * 3 / 64)
    with pytest.raises(DomainError):
        s.jet(0.1234)


def test_sampled_convergence_order_on_circle():
    dom = pf.Circle(2 * np.pi)
    errs = []
    for n in (48, 96):
        s = pf.Sampled.from_function(np.sin, dom, n)
        worst = 0.0
        for i in range(0, n, 7):
            r = float(2 * np.pi * i / n)
            exact = (np.sin(r), np.cos(r), -np.sin(r), -np.cos(r), np.sin(r))
            got = s.jet(r).c
            worst = max(worst, max(abs(a - b) for a, b in zip(got, exact)))
        errs.append(worst)
    order = np.log2(errs[0] / errs[1])
    assert order >= 4 - 0.5


def test_sampled_one_sided_interval_jets():
    dom = pf.Interval(0.0, 1.0)
    n = 41
    s = pf.Sampled.from_function(lambda r: np.exp(r), dom, n)
    for r in (0.0, 1.0, 0.5):
        j = s.jet(r)
        assert all(abs(c - np.exp(r)) < 2e-5 for c in j.c)


def test_sampled_arithmetic_with_closed_form():
    dom = pf.Circle(2 * np.pi)
    s = pf.Sampled.from_function(np.sin, dom, 128)
    p = s * pf.cos(pf.coordinate())
    r = float(2 * np.pi * 10 / 128)
    assert abs(p.value(r) - np.sin(r) * np.cos(r)) < 1e-12
    d1 = p.jet(r).derivs[0]
    assert abs(d1 - (np.cos(r) ** 2 - np.sin(r) ** 2)) < 1e-6


def test_sampled_derivative_profile():
    dom = pf.Circle(2 * np.pi)
    s = pf.Sampled.from_function(np.sin, dom, 512)
    ds = s.derivative()
    nodes = ds.nodes
    assert np.max(np.abs(ds.value(nodes) - np.cos(nodes))) < 1e-9


@pytest.mark.parametrize("dom", [pf.Circle(2 * np.pi), pf.Interval(-0.5, 1.7)])
def test_sampled_and_the_flow_share_one_mesh(dom):
    from g2coflow import coflow

    assert coflow.Mesh is pf.Mesh
    v = np.cos(np.arange(801.0))
    assert pf.Sampled(dom, v).mesh == pf.Mesh.from_domain(dom, len(v))
    # values sit at exactly the nodes the profile reports
    s = pf.Sampled.from_function(np.sin, dom, 801)
    assert np.array_equal(s.values, np.sin(s.nodes))


@pytest.mark.parametrize("dom,n", [(pf.Circle(1.0), 0), (pf.Circle(1.0), 1),
                                   (pf.Interval(0.0, 1.0), 1)])
def test_mesh_without_spacing_is_invalid_geometry(dom, n):
    with pytest.raises(InvalidGeometry):
        pf.Mesh.from_domain(dom, n)


# ---------------------------------------------------------------------------
# the shared stencil operator
# ---------------------------------------------------------------------------

def reference_stencil(n, dr, periodic, m, order, i):
    """Node indices and weights of derivative m at node i, one node at a time:
    the smallest centered window reaching the order, a shifted window of
    m + order points near interval ends, wrapped on a circle."""
    size = m + order if m % 2 else m + order - 1
    half = size // 2
    if periodic or half <= i < n - half:
        offs = np.arange(-half, size - half)
    else:
        size = max(size, m + order)
        lo = min(max(i - size // 2, 0), n - size)
        offs = np.arange(lo - i, lo - i + size)
    idx = (i + offs) % n if periodic else i + offs
    return idx, pf._fd_weights(offs * dr, m)[:, m]


def complex_sampled(dom, n):
    return pf.Sampled.from_function(lambda r: np.exp(np.sin(r)) + 1j * np.cos(2 * r),
                                    dom, n)


@pytest.mark.parametrize("dom", [pf.Circle(2 * np.pi, 0.3), pf.Interval(-0.5, 1.7)])
@pytest.mark.parametrize("order", [2, 4])
def test_stencil_operator_rows_are_the_per_node_stencils(dom, order):
    s = pf.Sampled.from_function(np.sin, dom, 23, order)
    for m in range(1, 5):
        op = pf.stencil_operator(s.n, s.dr, isinstance(dom, pf.Circle), m, order)
        ref = np.zeros((s.n, s.n))
        for i in range(s.n):
            idx, w = reference_stencil(s.n, s.dr, isinstance(dom, pf.Circle), m, order, i)
            ref[i, idx] = w
        assert np.array_equal(op.toarray(), ref)


@pytest.mark.parametrize("dom", [pf.Circle(2 * np.pi, 0.3), pf.Interval(-0.5, 1.7)])
def test_sampled_jets_and_derivative_match_per_node_reference(dom):
    s = complex_sampled(dom, 31)
    periodic = isinstance(dom, pf.Circle)
    nodes = s.nodes
    jets = s.jet(nodes).c
    assert np.array_equal(jets[0], s.values)
    deriv = s.derivative().values
    for i in range(s.n):  # includes the one-sided rows at interval ends
        scalar = s.jet(float(nodes[i])).c
        for m in range(1, 5):
            idx, w = reference_stencil(s.n, s.dr, periodic, m, s.order, i)
            ref = w @ s.values[idx]
            tol = 1e-12 * np.sum(np.abs(w) * np.abs(s.values[idx]))
            assert abs(jets[m][i] - ref) <= tol
            assert abs(scalar[m] - ref) <= tol
            if m == 1:
                assert abs(deriv[i] - ref) <= tol
    assert np.iscomplexobj(deriv)


def test_sampled_derivative_reuses_the_cached_operator():
    s = complex_sampled(pf.Interval(0.0, 1.3), 57)
    s.derivative()
    before = pf.stencil_operator.cache_info()
    s.derivative()
    after = pf.stencil_operator.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1
    assert s._operator(1) is pf.stencil_operator(s.n, s.dr, False, 1, s.order)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip_closed_form():
    dom = pf.Circle(2 * np.pi)
    p = (2 + pf.sin(pf.coordinate(dom))) ** 3 / (1 + pf.cos(pf.coordinate(dom)) ** 2)
    blob = json.dumps(p.to_json())
    q = pf.profile_from_json(json.loads(blob))
    rs = np.linspace(0, 6, 13)
    assert np.allclose(p.value(rs), q.value(rs), atol=1e-14)
    jp, jq = p.jet(rs), q.jet(rs)
    for a, b in zip(jp.c, jq.c):
        assert np.allclose(a, b, atol=1e-12)


def test_json_roundtrip_sampled_and_antiderivative():
    dom = pf.Interval(0.0, np.pi)
    s = pf.Sampled.from_function(np.cos, dom, 33)
    q = pf.profile_from_json(s.to_json())
    assert np.allclose(q.values, s.values)
    a = pf.antiderivative(pf.cos(R), 0.0, 0.0)
    b = pf.profile_from_json(a.to_json())
    assert abs(b.value(1.0) - np.sin(1.0)) < 1e-11


def test_sample_table_layout():
    tbl = pf.sample_table(pf.sin(R), np.linspace(0, 1, 5))
    assert tbl.shape == (5, 6)
    assert abs(tbl[0, 2] - 1.0) < 1e-14  # d1 of sin at 0


def test_write_sample_csv(tmp_path):
    path = tmp_path / "p.csv"
    pf.write_sample_csv(pf.sin(R), np.linspace(0, 1, 4), str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "r,value,d1,d2,d3,d4"
    assert len(lines) == 5


@pytest.mark.parametrize("dom", [pf.Circle(2 * np.pi, 0.3), pf.Interval(-0.5, 1.7)])
def test_write_sample_csv_matches_csv_module_bytes(tmp_path, dom):
    # a complex-valued profile: only the real parts are written
    r = pf.coordinate(dom)
    p = pf.exp(pf.sin(r)) + 1j * pf.cos(2 * r)
    rs = dom.sample_points(40)
    table = pf.sample_table(p, rs)
    assert np.iscomplexobj(table)
    pf.write_sample_csv(p, rs, str(tmp_path / "new.csv"))
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "value", "d1", "d2", "d3", "d4"])
        for row in table:
            w.writerow([f"{float(np.real(x)):.17g}" for x in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_quadrature_failure_on_wild_integrand():
    from g2coflow.errors import QuadratureFailure

    # sin(1/r) oscillates without bound near 0; max depth runs out
    wild = pf.sin(pf.constant(1.0) / R)
    q = pf.antiderivative(wild, 1.0, 0.0, tol=1e-14)
    with pytest.raises(QuadratureFailure):
        q.value(1e-7)


@pytest.mark.parametrize("r", [1.1, -0.1])
def test_mesh_index_outside_an_interval_is_a_domain_error(r):
    mesh = pf.Mesh.from_domain(pf.Interval(0.0, 1.0), 11)
    assert mesh.index(1.0) == 10
    with pytest.raises(DomainError, match="outside the mesh"):
        mesh.index(r)


def test_domains_and_jets_are_value_types():
    assert pf.Circle(6) == pf.Circle(6.0, 0) and isinstance(pf.Circle(6).period, float)
    assert pf.Interval(0, 1) == pf.Interval(0.0, 1.0)
    assert len({pf.Interval(0, 1), pf.Interval(0.0, 1.0), pf.Circle(1.0)}) == 2
    assert repr(pf.Interval(0, 1)) == "Interval(r0=0.0, r1=1.0)"
    with pytest.raises(AttributeError):
        pf.Circle(1.0).period = 2.0
    j = pf.sin(R).jet(0.0)
    assert isinstance(j, tuple) and len(j) == 5
    assert j.value == j[0] and j.derivs == tuple(j[1:]) and j.c == tuple(j)
