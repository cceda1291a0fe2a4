"""Seeded randomized identity suite shared by the test suite and the CLI.

The generators below produce smooth closed-form profile data on a circle (or
interval) with controlled amplitudes, so that identity residuals measure
algebraic correctness rather than floating-point blowup. Each drawn profile
is a trigonometric polynomial of degree 2 held as one node, whose
derivatives are nodes of the same kind with new coefficients on the same
terms; its values are those of the equivalent `profiles` tree bit for bit.
The identity suite stacks the draws of many structures into nodes whose
coefficients are columns, so that one evaluation covers them all.
"""

from __future__ import annotations

import functools

import numpy as np

from . import forms as fm
from . import profiles as pf
from . import torsion as ts
from .forms import G2Profile, StructureKind


class _TrigPolynomial(pf.Profile):
    """c0 + sum of a f(k r) over the terms (f, k, a), f np.sin or np.cos,
    plus a shift: one node for the tree that c0 + a1 sin r + b1 cos r +
    a2 sin 2r + b2 cos 2r (+ shift) builds from `profiles` operations.

    The sum is taken term by term in that order (a matrix product's BLAS
    sum could run in another). The derivative is the same kind of node: each
    a f(k r) becomes (+-k a) f'(k r), and c0 and the shift are dropped. A
    None c0 or shift is absent, so a derivative's sum starts at its first
    term, as the tree's does once `add` folds the zero derivative of c0
    away. The values are those of the tree bit for bit: with k in {1, 2},
    the tree's m-th derivative multiplies s = f(k r) by the powers of two
    +-k^m before a, and such products are exact, so a (+-k^m s) =
    (+-k^m a) s. Each f(k r) is computed once per evaluation and shared by
    every node of it; coefficients that are (S, 1) columns give (S, P)
    values at P points (`_stack`).
    """

    __slots__ = ("c0", "terms", "shift")

    def __init__(self, c0, terms, shift, domain):
        super().__init__(domain)
        self.c0 = c0
        self.terms = terms
        self.shift = shift

    def _eval(self, r, memo):
        r = np.asarray(r, dtype=float) if np.shape(r) else float(r)   # as Coordinate
        total = self.c0
        for f, k, a in self.terms:
            s = memo.get((f, k))   # f(k r), shared by every node of the call
            if s is None:
                s = memo[f, k] = f(k * r)
            v = a * s
            total = v if total is None else total + v
        return total if self.shift is None else total + self.shift

    def _derivative(self):
        terms = tuple((np.cos, k, k * a) if f is np.sin else (np.sin, k, -k * a)
                      for f, k, a in self.terms)
        return _TrigPolynomial(None, terms, None, self.domain)


def _trig_profile(rng, dom, floor=None, amplitude=0.6):
    """Random trigonometric polynomial of degree 2, optionally positive."""
    c0 = rng.uniform(-0.5, 0.5)
    terms = []
    for k in (1, 2):
        a = amplitude * rng.uniform(-1, 1) / k
        b = amplitude * rng.uniform(-1, 1) / k
        terms += [(np.sin, k, a), (np.cos, k, b)]
    shift = None
    if floor is not None:
        span = sum(2 * amplitude / k for k in (1, 2)) + 0.5
        shift = floor + span
    return _TrigPolynomial(c0, tuple(terms), shift, dom)


def _stack(nodes):
    """One _TrigPolynomial holding the drawn nodes as rows: each coefficient
    becomes an (S, 1) column, so its values and those of its derivative trees
    at P points are (S, P) arrays, row i bitwise that of nodes[i] (each
    element is the same product or sum of the same doubles)."""
    def column(xs):
        return None if xs[0] is None else np.array(xs)[:, None]

    terms = tuple((f, k, column([n.terms[i][2] for n in nodes]))
                  for i, (f, k, _) in enumerate(nodes[0].terms))
    return _TrigPolynomial(column([n.c0 for n in nodes]), terms,
                           column([n.shift for n in nodes]), nodes[0].domain)


def _draw_structure(rng, structure, dom, coclosed=False):
    """(h, theta, G) of `random_g2_profile`, drawn in its order, unchecked."""
    theta = _trig_profile(rng, dom, amplitude=0.4)
    G = _trig_profile(rng, dom, floor=0.6, amplitude=0.3)
    if not coclosed:
        h = _trig_profile(rng, dom, floor=0.7, amplitude=0.4)
    elif structure is StructureKind.CY:
        h = pf.constant(rng.uniform(0.7, 1.8), dom)
    else:
        integrand = G * pf.cos(3 * theta)
        span = dom.length
        h = pf.antiderivative(integrand, dom.r0, 0.0)
        # shift well above zero: |h'| <= sup G bounds the excursion
        rs = dom.sample_points(64, interior=True)
        lift = 1.0 + float(np.max(np.abs(G.value(rs)))) * span
        h = h + pf.constant(lift)
    return h, theta, G


def random_g2_profile(rng, structure, domain=None, coclosed=False):
    """Random closed-form (h, theta, G) data, optionally coclosed.

    Coclosed NK data builds h by quadrature from h' = G cos(3 theta), which
    is the only way to satisfy the constraint for generic theta and G.
    """
    dom = domain or pf.Circle(2 * np.pi)
    h, theta, G = _draw_structure(rng, structure, dom, coclosed)
    return G2Profile(h=h, theta=theta, G=G, structure=structure, domain=dom)


def _form_draws(rng, degree, dom):
    """{tag: (re, im)}: the drawn real and imaginary parts of the coefficient
    of each basis element of the degree."""
    return {tag: (_trig_profile(rng, dom, amplitude=0.5),
                  _trig_profile(rng, dom, amplitude=0.5))
            for tag in fm.BASIS_TAGS if fm.DEGREE[tag] == degree}


def random_invariant_form(rng, degree, domain=None):
    """Random form with small trigonometric coefficients on every basis
    element of the given degree."""
    dom = domain or pf.Circle(2 * np.pi)
    return fm.InvariantForm(degree, {tag: re + pf.constant(1j) * im for tag, (re, im)
                                     in _form_draws(rng, degree, dom).items()})


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------

BUDGET = 4096   # elements (structures x points) of each template value of the suite


@functools.cache
def _suite_template(structure):
    """(identity names, terms): the coefficients of every residual form of
    the suite but d(d(a)) for one structure kind, on leaves h, theta and G;
    interned. Each residual is zero in exact arithmetic."""
    g = G2Profile.leaves(structure)
    basis = [fm.InvariantForm.basis(tag) for tag in fm.BASIS_TAGS]
    (t0a, t1a), (t0b, t1b) = ts.tau01_first_principles(g), ts.tau01_closed(g)
    residuals = [("d_squared_zero", fm.d(fm.d(b, structure), structure)) for b in basis]
    residuals += [("star_involution", fm.star7(fm.star7(b, g), g) - b) for b in basis]
    residuals += [
        ("dphi_dpsi_structure_equations",
         fm.d(fm.build_phi(g), structure) - _dphi_expected(g)),
        ("dphi_dpsi_structure_equations",
         fm.d(fm.build_psi(g), structure) - _dpsi_expected(g)),
        ("tau2_vanishes", ts.tau2_tau3(g)[0]),
        ("tau01_closed_vs_first_principles", fm.InvariantForm(0, {"one": t0a - t0b})),
        ("tau01_closed_vs_first_principles", fm.InvariantForm(1, {"dr": t1a - t1b}))]
    names = [name for name, form in residuals for _ in form.coeffs]
    return names, pf.intern([p for _, form in residuals for p in form.coeffs.values()])


@functools.cache
def _dda_template(structure, degree):
    """(names, terms): the coefficients of d(d(a)) for a form a of the degree,
    on leaves "a:" + tag; `fm.d` depends on the structure kind alone."""
    a = fm.InvariantForm(degree, {tag: pf.Leaf("a:" + tag) for tag in fm.BASIS_TAGS
                                  if fm.DEGREE[tag] == degree})
    dda = fm.d(fm.d(a, structure), structure)
    return ["d_squared_zero"] * len(dda.coeffs), pf.intern(list(dda.coeffs.values()))


def run_identity_suite(seed=0, n_profiles=20, n_points=50):
    """Exercise the calculus identities on seeded random closed-form data.

    Returns a list of {name, max_residual, tolerance, passed} records, one
    per identity, aggregated over n - n // 2 CY structures, then n // 2 NK
    ones, n = n_profiles, drawn in that order. The draws of up to
    S = BUDGET // n_points structures of a kind are stacked as the rows of
    one h, theta and G and of one coefficient per basis element of each
    drawn form's degree (`_stack`). One `G2Profile` spot-checks the S
    structures, and one `profiles.evaluate` call takes every residual
    coefficient of the kind's template and of the d(d(a)) template of each
    degree present: at most BUDGET values (structures x points) each, so
    more than BUDGET points are taken in near-equal blocks, one at a time.
    """
    rng = np.random.default_rng(seed)
    dom = pf.Circle(2 * np.pi)
    rs = dom.sample_points(n_points, interior=True)
    tolerances = {"d_squared_zero": 1e-12, "star_involution": 1e-12,
                  "dphi_dpsi_structure_equations": 1e-12, "tau2_vanishes": 1e-11,
                  "tau01_closed_vs_first_principles": 1e-10}
    worst = dict.fromkeys(tolerances, 0.0)
    size = max(1, BUDGET // n_points)
    blocks = np.array_split(rs, -(-n_points // BUDGET))   # one unless size is 1

    for structure, count in ((StructureKind.CY, n_profiles - n_profiles // 2),
                             (StructureKind.NK, n_profiles // 2)):
        draws = [(_draw_structure(rng, structure, dom), degree := int(rng.integers(0, 7)),
                  _form_draws(rng, degree, dom)) for _ in range(count)]
        for start in range(0, count, size):
            batch = draws[start:start + size]
            g = G2Profile(*map(_stack, zip(*(fields for fields, _, _ in batch))),
                          structure=structure, domain=dom)
            inputs = {"h": g.h, "theta": g.theta, "G": g.G}
            names, terms = _suite_template(structure)
            for degree in sorted({d for _, d, _ in batch}):
                forms = [form for _, d, form in batch if d == degree]
                for tag in forms[0]:   # the rows of each coefficient of the degree
                    re, im = map(_stack, zip(*(form[tag] for form in forms)))
                    inputs["a:" + tag] = re + pf.constant(1j) * im
                more = _dda_template(structure, degree)
                names, terms = names + more[0], terms + more[1]
            for block in blocks:
                for name, v in zip(names, pf.evaluate(block, *terms, inputs=inputs)):
                    worst[name] = max(worst[name], float(np.max(np.abs(v))))

    return [{"name": name, "max_residual": worst[name], "tolerance": tol,
             "passed": worst[name] < tol} for name, tol in tolerances.items()]


def _dphi_expected(g):
    """Structure-equation coefficients of d phi for either base geometry."""
    F3 = g.F_cubed()
    half_dF3 = pf.mul(pf.constant(0.5), F3.derivative())
    if g.structure is StructureKind.CY:
        return fm.InvariantForm(4, {
            "dr_Omega": half_dF3,
            "dr_Omegabar": pf.conj(half_dF3),
        })
    gh2 = pf.mul(pf.constant(1.5), pf.mul(g.G, pf.pow_int(g.h, 2)))
    a = pf.sub(half_dF3, gh2)
    return fm.InvariantForm(4, {
        "dr_Omega": a,
        "dr_Omegabar": pf.conj(a),
        "omega2_half": pf.mul(pf.constant(2j), pf.sub(F3, pf.conj(F3))),
    })


def _dpsi_expected(g):
    F3 = g.F_cubed()
    h4p = pf.pow_int(g.h, 4).derivative()
    if g.structure is StructureKind.CY:
        return fm.InvariantForm(5, {
            "dr_omega2_half": pf.mul(pf.constant(-1.0), h4p),
        })
    return fm.InvariantForm(5, {
        "dr_omega2_half": pf.sub(
            pf.mul(pf.mul(pf.constant(2.0), g.G), pf.add(F3, pf.conj(F3))), h4p),
    })
