import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from g2coflow import profiles as pf
from g2coflow.errors import DomainError, G2CoflowError, InvalidGeometry, SingularEval

R = pf.coordinate()


def sampled(f, domain, n):
    """The Sampled profile of f, a function of arrays, at the mesh nodes."""
    return pf.Sampled(domain, f(pf.Mesh.from_domain(domain, n).nodes))


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
    j = pf.sin(R).jet(0.0)
    assert np.allclose(j.c, (0.0, 1.0, 0.0, -1.0, 0.0), atol=1e-15)


@pytest.mark.parametrize("node,x,fn", [
    (pf.Sin, 0.5, np.sin), (pf.Cos, 0.5, np.cos), (pf.Exp, 0.5, np.exp),
    (pf.Arctan, 0.5, np.arctan), (pf.Conj, 2 - 1j, np.conjugate),
    (lambda a: pf.Pow(a, 3), 0.5, lambda x: x ** 3)])
def test_a_unary_node_takes_a_number_for_its_operand(node, x, fn):
    p = node(x)
    assert isinstance(p.a, pf.Constant) and p.a.c == x
    assert p.value(1.0) == fn(x)


def test_jet_of_square_at_three():
    j = (R * R).jet(3.0)
    assert np.allclose(j.c, (9.0, 6.0, 2.0, 0.0, 0.0), atol=1e-13)


def test_jet_of_cy_soliton_phase_at_zero():
    # (2/3) arctan(e^r): value pi/6 and slope 1/3 at r = 0
    th = (2.0 / 3.0) * pf.arctan(pf.exp(R))
    j = th.jet(0.0)
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


def test_overflow_of_python_floats_raises():
    # a scalar r evaluates in Python floats, whose power raises OverflowError
    with pytest.raises(SingularEval):
        pf.pow_int(R, 10 ** 8).value(2.0)


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
    lambda: pf.Sampled(None, np.zeros(16)),
    lambda: pf.Sampled(pf.Circle(1.0), np.zeros(7)),
], ids=["incompatible-domains", "unknown-domain-kind",
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


def _cosine_sum(v):
    """Chebyshev coefficients of the interpolant of v at the first-kind
    points cos(pi (j + 1/2) / n), written out as the O(n^2) cosine sum."""
    n = len(v)
    j = np.arange(n)
    c = np.array([2.0 / n * np.sum(v * np.cos(np.pi * k * (j + 0.5) / n))
                  for k in range(n)])
    c[0] *= 0.5
    return c


@pytest.mark.parametrize("n", [17, 33, 65, 129, 257])
def test_panel_coefficients_are_the_cosine_sum(n):
    rng = np.random.default_rng(n)
    v = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for rows in (v, v.real):
        got = pf._cheb_coeffs(rows)
        assert np.iscomplexobj(got) == np.iscomplexobj(rows)
        for row, want in zip(got, map(_cosine_sum, rows)):
            assert np.max(np.abs(row - want)) < 1e-14 * np.sum(np.abs(v))


def test_batched_panel_series_equal_each_panel_fitted_alone_bitwise():
    a = np.array([0.0, 0.25, 2.0, 1.3, -0.5, -0.27])
    b = np.array([0.25, 0.5, 2.25, 1.35, -0.25, -0.02])
    for g in (pf.cos(3 * R) * pf.exp(pf.sin(R)) + 1j * pf.sin(2 * R),
              pf.sin(1.0 / (R + 0.55))):
        f = lambda t: g._value(t, {})
        batch = pf._panel_series(f, a, b, 1e-12)
        for i, s in enumerate(batch):
            assert np.array_equal(s, pf._panel_series(f, a[i:i + 1], b[i:i + 1], 1e-12)[0])
        # half the width times the series at x = 1 is the panel's integral
        whole = 0.5 * (b[0] - a[0]) * np.polynomial.chebyshev.chebval(1.0, batch[0])
        assert abs(whole - pf.antiderivative(g, a[0], 0.0).value(b[0])) < 1e-15
    # the panels of one batch were resolved at different numbers of points
    assert len({len(s) for s in batch}) > 1


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


def test_coclosed_nk_h_matches_quad():
    # scipy's adaptive Gauss-Kronrod quadrature between consecutive points
    # is the independent route
    from g2coflow.forms import StructureKind
    from g2coflow.verify import random_g2_profile

    rs = pf.Circle(2 * np.pi).sample_points(50, interior=True)
    edges = np.concatenate(([0.0], rs))
    for seed in range(10):
        g = random_g2_profile(np.random.default_rng(seed), StructureKind.NK, coclosed=True)
        f = g.G * pf.cos(3 * g.theta)
        want = np.cumsum([integrate.quad(lambda t: float(f.value(t)), x, y,
                                         epsabs=1e-14, epsrel=1e-14)[0]
                          for x, y in zip(edges[:-1], edges[1:])])
        assert np.max(np.abs(pf.antiderivative(f, 0.0, 0.0).value(rs) - want)) < 1e-13


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
    s = sampled(np.sin, dom, 64)
    s.jet(dom.period * 3 / 64)
    with pytest.raises(DomainError):
        s.jet(0.1234)


def test_sampled_convergence_order_on_circle():
    dom = pf.Circle(2 * np.pi)
    errs = []
    for n in (48, 96):
        s = sampled(np.sin, dom, n)
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
    s = sampled(lambda r: np.exp(r), dom, n)
    for r in (0.0, 1.0, 0.5):
        j = s.jet(r)
        assert all(abs(c - np.exp(r)) < 2e-5 for c in j.c)


def test_sampled_arithmetic_with_closed_form():
    dom = pf.Circle(2 * np.pi)
    s = sampled(np.sin, dom, 128)
    p = s * pf.cos(pf.coordinate())
    r = float(2 * np.pi * 10 / 128)
    assert abs(p.value(r) - np.sin(r) * np.cos(r)) < 1e-12
    d1 = p.jet(r).derivs[0]
    assert abs(d1 - (np.cos(r) ** 2 - np.sin(r) ** 2)) < 1e-6


def test_sampled_derivative_profile():
    dom = pf.Circle(2 * np.pi)
    s = sampled(np.sin, dom, 512)
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
    s = sampled(np.sin, dom, 801)
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
    return sampled(lambda r: np.exp(np.sin(r)) + 1j * np.cos(2 * r), dom, n)


@pytest.mark.parametrize("dom", [pf.Circle(2 * np.pi, 0.3), pf.Interval(-0.5, 1.7)])
@pytest.mark.parametrize("order", [2, 4])
def test_stencil_operator_rows_are_the_per_node_stencils(dom, order):
    mesh = pf.Mesh.from_domain(dom, 23)
    for m in range(1, 5):
        op = pf.stencil_operator(mesh.n, mesh.dr, mesh.periodic, m, order)
        ref = np.zeros((mesh.n, mesh.n))
        for i in range(mesh.n):
            idx, w = reference_stencil(mesh.n, mesh.dr, mesh.periodic, m, order, i)
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
            idx, w = reference_stencil(s.n, s.dr, periodic, m, pf.STENCIL_ORDER, i)
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
    assert s.mesh.deriv_matrix(1) is pf.stencil_operator(s.n, s.dr, False, 1,
                                                         pf.STENCIL_ORDER)


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


# ---------------------------------------------------------------------------
# evaluation of many terms at one point set
# ---------------------------------------------------------------------------

def assert_evaluate_equals_separate_values(rs, terms):
    values = pf.evaluate(rs, *terms)
    assert len(values) == len(terms)
    for got, p in zip(values, terms):
        want = p.value(rs)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("coclosed", [False, True])
def test_evaluate_equals_separate_values_on_identity_suite_forms(coclosed):
    from g2coflow import forms as fm
    from g2coflow import torsion as ts
    from g2coflow import verify as vf

    dom = pf.Circle(2 * np.pi)
    rs = dom.sample_points(50, interior=True)
    rng = np.random.default_rng(5)
    for structure in (fm.StructureKind.CY, fm.StructureKind.NK):
        g = vf.random_g2_profile(rng, structure, dom, coclosed=coclosed)
        phi, psi = fm.build_phi(g), fm.build_psi(g)
        forms = [phi, psi, fm.d(phi, structure), fm.star7(fm.d(phi, structure), g),
                 vf.random_invariant_form(rng, 3, dom), *ts.tau2_tau3(g)]
        terms = [p for form in forms for p in form.coeffs.values()]
        terms += [*ts.tau01_first_principles(g), *ts.tau01_closed(g)]
        assert_evaluate_equals_separate_values(rs, terms)


def test_evaluate_equals_separate_values_on_a_reduced_ode_candidate():
    from g2coflow import soliton as so

    traj = so.integrate_reduced(0.4, 0.9, -0.4, -16.0, (0.4, 1.0))
    cand = so.candidate_from_trajectory(traj)
    assert cand.h.n == 801
    h, theta, kp = cand.h, cand.theta, cand.kprime
    hs = pf.pow_int(h, 3) * pf.sin(3.0 * theta)
    terms = [h, theta, kp, h.derivative(), theta.derivative().derivative(),
             hs, hs.derivative().derivative(), (kp * hs).derivative(),
             h.derivative() - pf.cos(3.0 * theta)]
    assert_evaluate_equals_separate_values(cand.sample_points(200), terms)


def test_evaluate_computes_a_shared_subtree_once(monkeypatch):
    shared = pf.sin(R * R)
    a, b = shared * 2.0, pf.exp(shared) + R
    calls = []
    sin_eval = pf.Sin._eval

    def spy(self, r, memo):
        calls.append(self)
        return sin_eval(self, r, memo)

    monkeypatch.setattr(pf.Sin, "_eval", spy)
    rs = np.linspace(0.0, 1.0, 7)
    va, vb = pf.evaluate(rs, a, b)
    assert calls == [shared]
    assert np.array_equal(va, 2.0 * np.sin(rs * rs))
    a.value(rs), b.value(rs)   # one memo per call: computed once more each
    assert calls == [shared] * 3


def test_evaluate_checks_the_domain_of_every_term():
    left = pf.coordinate(pf.Interval(0.0, 1.0))
    right = pf.sin(pf.coordinate(pf.Interval(2.0, 3.0)))
    rs = np.array([0.25, 0.5])
    assert np.array_equal(pf.evaluate(rs, left, R)[0], rs)
    with pytest.raises(DomainError):
        pf.evaluate(rs, left, right)
    with pytest.raises(DomainError):
        pf.evaluate(0.5, R, left, right)


@pytest.mark.parametrize("r", [0.3, np.linspace(0.0, 1.0, 5)])
def test_evaluate_of_no_terms_is_empty(r):
    assert pf.evaluate(r) == ()


# ---------------------------------------------------------------------------
# leaves, bound inside evaluate, and interning
# ---------------------------------------------------------------------------

def test_a_leaf_evaluates_the_derivative_of_its_bound_input():
    h = pf.sin(R) * R
    term = pf.Leaf("h") * pf.Leaf("h").derivative() + pf.Leaf("h", 2)
    rs = np.linspace(0.1, 2.0, 9)
    (got,) = pf.evaluate(rs, term, inputs={"h": h})
    (want,) = pf.evaluate(rs, h * h.derivative() + h.derivative().derivative())
    assert np.array_equal(got, want)
    assert pf.Leaf("h", 2).derivative().order == 3


@pytest.mark.parametrize("inputs, name", [(None, "theta"), ({}, "theta"),
                                          ({"theta": R}, "h")])
def test_an_unbound_leaf_raises_a_typed_error_that_names_it(inputs, name):
    term = pf.sin(pf.Leaf("theta")) * pf.Leaf("h", 1)
    with pytest.raises(G2CoflowError, match=f"leaf '{name}'") as info:
        pf.evaluate(np.linspace(0.0, 1.0, 3), term, inputs=inputs)
    assert not isinstance(info.value, (KeyError, TypeError))


def test_a_bound_input_outside_its_domain_raises_domain_error():
    h = pf.coordinate(pf.Interval(0.0, 1.0))
    term = pf.Leaf("h") + 1.0
    assert term.domain is None
    assert np.array_equal(pf.evaluate(np.array([0.5]), term, inputs={"h": h})[0], [1.5])
    with pytest.raises(DomainError):
        pf.evaluate(np.array([0.5, 1.5]), term, inputs={"h": h})


def test_a_bound_input_singular_only_through_a_leaf_raises_singular_eval():
    h = 1.0 / (R - 1.0)
    with pytest.raises(SingularEval):
        pf.evaluate(np.array([0.5, 1.0]), pf.Leaf("h", 1) * 2.0, inputs={"h": h})
    with pytest.raises(SingularEval):
        pf.evaluate(1.0, pf.Leaf("h", 1), inputs={"h": h})


def test_a_sampled_input_binds_its_stencil_derivatives():
    dom = pf.Circle(2 * np.pi)
    s = sampled(np.sin, dom, 64)
    rs = s.nodes[::4]
    got = pf.evaluate(rs, pf.Leaf("s", 1), pf.Leaf("s", 2) * pf.Leaf("s"),
                      inputs={"s": s})
    want = pf.evaluate(rs, s.derivative(), s.derivative().derivative() * s)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _distinct_nodes(terms):
    seen, todo = set(), list(terms)
    while todo:
        p = todo.pop()
        if id(p) not in seen:
            seen.add(id(p))
            todo += [getattr(p, k) for k in ("a", "b") if hasattr(p, k)]
    return len(seen)


def test_intern_shares_equal_subtrees_and_keeps_the_values():
    h, G = pf.Leaf("h"), pf.Leaf("G")
    terms = [pf.sin(h * G) + h ** 2, pf.sin(h * G) * pf.Leaf("h") ** 2,
             pf.Leaf("h", 1) - pf.cos(pf.Leaf("h", 1))]
    interned = pf.intern(terms)
    assert _distinct_nodes(interned) < _distinct_nodes(terms)
    assert interned[0].a is interned[1].a and interned[0].b is interned[1].b
    assert interned[2].a is interned[2].b.a
    inputs = {"h": pf.cos(R) + 2.0, "G": pf.exp(R)}
    rs = np.linspace(-1.0, 1.0, 7)
    for a, b in zip(pf.evaluate(rs, *interned, inputs=inputs),
                    pf.evaluate(rs, *terms, inputs=inputs)):
        assert np.array_equal(a, b)


def test_intern_keeps_constants_of_other_sign_or_type_apart():
    h = pf.Leaf("h")
    terms = [pf.Mul(pf.Constant(c), h) for c in (0.0, -0.0, 0j, 0.0, 2, 2.0)]
    interned = pf.intern(terms)
    assert interned[0] is interned[3]
    assert len({id(p) for p in interned}) == 5
    assert len({id(p.b) for p in interned}) == 1
    (neg,) = pf.evaluate(np.array([1.0]), interned[1], inputs={"h": R})
    assert np.signbit(neg[0])


def test_intern_keeps_pow_exponents_and_foreign_nodes_apart():
    s = sampled(np.sin, pf.Circle(1.0), 16)
    terms = [pf.Leaf("h") ** 2, pf.Leaf("h") ** 3, s * 2.0, s * 2.0, R + 1.0]
    a, b, c, d, e = pf.intern(terms)
    assert a is not b and (a.n, b.n) == (2, 3) and a.a is b.a
    assert c is d and c.a is s and e is terms[4]
