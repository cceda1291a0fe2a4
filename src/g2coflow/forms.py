"""Exact calculus on the SU(3)-invariant form basis of N^6 x L^1.

All forms are expanded over the twelve-element basis

    1; dr; omega; dr^omega, Omega, Omegabar; dr^Omega, dr^Omegabar,
    omega^2/2; dr^(omega^2/2); vol6; dr^vol6

with Profile-valued complex coefficients. Wedge products, exterior
derivatives (whose structure constants depend on whether the base is
Calabi-Yau or nearly Kahler), the 7-dimensional Hodge star of the warped
metric G^2 dr^2 + h^2 g6, interior products with radial vector fields, and
pointwise/L2 inner products all reduce to finite coefficient tables.

Everything here is pure: forms and profiles are immutable and may be shared
freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import profiles as pf
from .errors import ConstraintViolated, DegreeMismatch, InvalidGeometry
from .profiles import Circle, Interval, Profile


class StructureKind(enum.Enum):
    """Geometry of the 6-dimensional base: Calabi-Yau or nearly Kahler."""

    CY = "CY"
    NK = "NK"


# ---------------------------------------------------------------------------
# the basis
# ---------------------------------------------------------------------------

# degree of each pure base-manifold generator
_N_DEG = {"one": 0, "omega": 2, "Omega": 3, "Omegabar": 3, "omega2_half": 4, "vol6": 6}

_N_PARTS = tuple(_N_DEG)


def _tag(has_dr, npart):
    if not has_dr:
        return npart if npart != "one" else "one"
    return "dr" if npart == "one" else f"dr_{npart}"


BASIS_TAGS = tuple(
    _tag(has_dr, npart) for npart in _N_PARTS for has_dr in (False, True)
)

_SPLIT = {_tag(dr, np_): (dr, np_) for np_ in _N_PARTS for dr in (False, True)}

DEGREE = {t: _N_DEG[np_] + dr for t, (dr, np_) in _SPLIT.items()}

# wedge on the base: (a, b) -> (scalar, generator); omitted pairs vanish
_N_WEDGE = {
    ("omega", "omega"): (2.0, "omega2_half"),
    ("omega", "omega2_half"): (3.0, "vol6"),
    ("omega2_half", "omega"): (3.0, "vol6"),
    ("Omega", "Omegabar"): (-8.0j, "vol6"),
    ("Omegabar", "Omega"): (8.0j, "vol6"),
}

# Hodge star on the base
_N_STAR6 = {
    "one": (1.0, "vol6"),
    "omega": (1.0, "omega2_half"),
    "Omega": (-1.0j, "Omega"),
    "Omegabar": (1.0j, "Omegabar"),
    "omega2_half": (1.0, "omega"),
    "vol6": (1.0, "one"),
}

# exterior derivative of the generators: structure kind -> generator -> terms
_N_D = {
    StructureKind.CY: {},
    StructureKind.NK: {
        "omega": ((-1.5, "Omega"), (-1.5, "Omegabar")),
        "Omega": ((4.0j, "omega2_half"),),
        "Omegabar": ((-4.0j, "omega2_half"),),
    },
}


def _accumulate(out, tag, p):
    """Add the coefficient p to out[tag], which may be missing."""
    out[tag] = pf.add(out[tag], p) if tag in out else p


def _wedge_nparts(x, y):
    if x == "one":
        return (1.0, y)
    if y == "one":
        return (1.0, x)
    if _N_DEG[x] + _N_DEG[y] > 6:
        return None
    return _N_WEDGE.get((x, y))


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class InvariantForm:
    """Homogeneous form with complex Profile coefficients on the fixed basis.

    ``coeffs`` maps basis tags to Profiles; missing tags are zero. Reality
    is a property of the values, not recorded: a real form such as phi or
    psi has Omegabar coefficients conjugate to its Omega ones and real-valued
    coefficients elsewhere.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        self.degree = int(degree)
        clean = {}
        for tag, p in coeffs.items():
            if DEGREE[tag] != self.degree:
                raise DegreeMismatch(f"basis element {tag} has degree "
                                     f"{DEGREE[tag]}, not {self.degree}")
            if pf._is_const(p, 0):
                continue
            clean[tag] = p
        self.coeffs = clean

    @classmethod
    def basis(cls, tag):
        return cls(DEGREE[tag], {tag: pf.constant(1.0)})

    def coeff(self, tag):
        return self.coeffs.get(tag, pf.constant(0.0))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if other.degree != self.degree:
            raise DegreeMismatch("cannot add forms of different degree")
        out = dict(self.coeffs)
        for tag, p in other.coeffs.items():
            _accumulate(out, tag, p)
        return InvariantForm(self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s):
        """Multiply every coefficient by a scalar or Profile."""
        s = pf.as_profile(s)
        return InvariantForm(
            self.degree, {t: pf.mul(s, p) for t, p in self.coeffs.items()}
        )

    def coefficient_values(self, rs):
        """dict tag -> ndarray of coefficient values at the points rs, all
        coefficients evaluated in one call."""
        values = pf.evaluate(rs, *self.coeffs.values())
        return {t: np.asarray(v) for t, v in zip(self.coeffs, values)}

    def sup_norm(self, rs):
        """Largest coefficient magnitude over the sample points."""
        return max((float(np.max(np.abs(v)))
                    for v in self.coefficient_values(rs).values()), default=0.0)

    def __repr__(self):
        tags = ", ".join(sorted(self.coeffs)) or "0"
        return f"InvariantForm(degree={self.degree}, [{tags}])"


def wedge(a, b):
    """Wedge product. Results of degree > 7 are the zero form."""
    deg = a.degree + b.degree
    if deg > 7:
        return InvariantForm(7, {})
    out = {}
    for ta, fa in a.coeffs.items():
        dra, na = _SPLIT[ta]
        for tb, fb in b.coeffs.items():
            drb, nb = _SPLIT[tb]
            if dra and drb:
                continue  # dr^dr = 0
            hit = _wedge_nparts(na, nb)
            if hit is None:
                continue
            scalar, npart = hit
            sign = 1.0
            if drb and not dra:
                # move dr to the front past the degree of the left base part
                sign = -1.0 if _N_DEG[na] % 2 else 1.0
            _accumulate(out, _tag(dra or drb, npart),
                        pf.mul(pf.mul(fa, fb), pf.constant(sign * scalar)))
    return InvariantForm(deg, out)


def d(a, structure):
    """Exterior derivative with the given structure kind's constants.

    d(f b) = f' dr^b + f db and d(f dr^b) = -f dr^db, so d^2 = 0 follows
    from the structure equations.
    """
    table = _N_D[structure]
    out = {}
    for t, f in a.coeffs.items():
        has_dr, npart = _SPLIT[t]
        if not has_dr:
            _accumulate(out, _tag(True, npart), f.derivative())
            for scalar, m in table.get(npart, ()):
                _accumulate(out, _tag(False, m), pf.mul(f, pf.constant(scalar)))
        else:
            for scalar, m in table.get(npart, ()):
                _accumulate(out, _tag(True, m), pf.mul(f, pf.constant(-scalar)))
    return InvariantForm(a.degree + 1, out)


def interior_r(a, s):
    """Contraction with the radial vector field s(r) d/dr."""
    s = pf.as_profile(s)
    out = {}
    for t, f in a.coeffs.items():
        has_dr, npart = _SPLIT[t]
        if has_dr:
            out[_tag(False, npart)] = pf.mul(s, f)
    return InvariantForm(max(a.degree - 1, 0), out)


# ---------------------------------------------------------------------------
# the warped G2-structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class G2Profile:
    """Warped-product data (h, theta, G) defining phi and psi = *phi.

    h and G must be positive on the domain; this is spot-checked at
    construction on a modest sample.
    """

    h: Profile
    theta: Profile
    G: Profile
    structure: StructureKind
    domain: object = None

    def __post_init__(self):
        dom = self.domain
        if dom is None:
            dom = self.h.domain or self.theta.domain or self.G.domain
            object.__setattr__(self, "domain", dom)
        if dom is not None:
            values = pf.evaluate(self.sample_points(64), self.h, self.G)
            for name, vals in zip("hG", map(np.real, values)):
                if np.min(vals) <= 0:
                    raise InvalidGeometry(f"{name} must be positive on the "
                                          f"domain (min {np.min(vals):.3g})")

    @classmethod
    def leaves(cls, structure):
        """The structure of the leaves h, theta and G, with no domain: what
        formula templates are built on (`profiles.Leaf`)."""
        return cls(pf.Leaf("h"), pf.Leaf("theta"), pf.Leaf("G"), structure)

    def F_cubed(self):
        """h^3 e^{3 i theta} as a complex Profile."""
        t3 = pf.mul(pf.constant(3.0), self.theta)
        phase = pf.add(pf.cos(t3), pf.mul(pf.constant(1j), pf.sin(t3)))
        return pf.mul(pf.pow_int(self.h, 3), phase)

    def sample_points(self, n):
        """n interior evaluation points; grid-backed data keeps them on mesh
        nodes."""
        if self.domain is None:
            raise InvalidGeometry("G2Profile has no domain to sample")
        return pf.sample_points(self.domain, (self.h, self.theta, self.G), n)


def build_phi(g):
    """phi = (F^3/2) Omega + (Fbar^3/2) Omegabar - G h^2 dr^omega."""
    F3 = g.F_cubed()
    half = pf.constant(0.5)
    return InvariantForm(3, {
        "Omega": pf.mul(half, F3),
        "Omegabar": pf.mul(half, pf.conj(F3)),
        "dr_omega": pf.mul(pf.constant(-1.0), pf.mul(g.G, pf.pow_int(g.h, 2))),
    })


def build_psi(g):
    """psi = (i G F^3/2) dr^Omega - (i G Fbar^3/2) dr^Omegabar - h^4 omega^2/2."""
    F3 = g.F_cubed()
    c = pf.mul(pf.constant(0.5j), pf.mul(g.G, F3))
    return InvariantForm(4, {
        "dr_Omega": c,
        "dr_Omegabar": pf.conj(c),
        "omega2_half": pf.mul(pf.constant(-1.0), pf.pow_int(g.h, 4)),
    })


def star7(a, g):
    """Hodge star of the warped metric, basis element by basis element.

    For a k-form b on the base, *7(b) = (-1)^k h^(6-2k) G dr^(*6 b) and
    *7(dr^b) = h^(6-2k) G^{-1} (*6 b).
    """
    out = {}
    for t, f in a.coeffs.items():
        has_dr, npart = _SPLIT[t]
        scalar, starred = _N_STAR6[npart]
        k = _N_DEG[npart]
        power = pf.pow_int(g.h, 6 - 2 * k)
        if not has_dr:
            sign = -1.0 if k % 2 else 1.0
            _accumulate(out, _tag(True, starred), pf.mul(
                pf.mul(f, pf.constant(sign * scalar)), pf.mul(power, g.G)))
        else:
            _accumulate(out, _tag(False, starred), pf.mul(
                pf.mul(f, pf.constant(scalar)), pf.div(power, g.G)))
    return InvariantForm(7 - a.degree, out)


def codifferential(a, g):
    """d* = (-1)^k *d* on k-forms in dimension 7 (the involution convention
    fixes the sign). For coclosed data this reduces to d* psi = *d phi."""
    sign = -1.0 if a.degree % 2 else 1.0
    return star7(d(star7(a, g), g.structure), g).scale(sign)


def pointwise_inner(a, b, g):
    """Pointwise inner product <a, b> as a Profile: a ^ *7(b) / vol7."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"inner product needs equal degrees, got "
                             f"{a.degree} and {b.degree}")
    top = wedge(a, star7(b, g))
    return pf.div(top.coeff("dr_vol6"), volume_weight(g))


def volume_weight(g):
    """Coefficient of dr in vol7 with vol6 normalized to one: G h^6."""
    return pf.mul(g.G, pf.pow_int(g.h, 6))


def _domain_bounds(domain):
    if isinstance(domain, Circle):
        return domain.r0, domain.r0 + domain.period
    if isinstance(domain, Interval):
        return domain.r0, domain.r1
    raise InvalidGeometry("l2 integration needs a Circle or Interval domain")


def integrate_profile(p, domain, tol=1e-10):
    """Integral over the domain of the real part of a profile: the value at
    the domain's end of its antiderivative from the domain's start, tol
    absolute per unit length."""
    a, b = _domain_bounds(domain)
    q = pf.antiderivative(p, a, 0.0, tol)
    q.domain = domain   # panels stop at an interval's end whatever p's domain
    return float(np.real(q.value(b)))


def l2_inner(a, b, g):
    """L2 inner product over the domain, base volume normalized to one."""
    integrand = pf.mul(pointwise_inner(a, b, g), volume_weight(g))
    return integrate_profile(integrand, g.domain)


# ---------------------------------------------------------------------------
# coclosedness and the Hodge Laplacian of psi
# ---------------------------------------------------------------------------

def coclosed_residual(g):
    """sup |h' - G cos 3 theta| (NK) or sup |h'| (CY) over 64 sample points."""
    rs = g.sample_points(64)
    if g.structure is StructureKind.CY:
        return float(np.max(np.abs(np.real(g.h.derivative().value(rs)))))
    hp, G, theta = map(np.real, pf.evaluate(rs, g.h.derivative(), g.G, g.theta))
    return float(np.max(np.abs(hp - G * np.cos(3.0 * theta))))


def hodge_laplacian_psi(g, tol=1e-7):
    """-Delta_d psi computed from first principles as -d(*7 d phi).

    Requires the coclosed constraint (h' = 0 for CY, h' = G cos 3 theta for
    NK); with it, d psi = 0 so the codifferential term is all that survives.
    Raises ConstraintViolated when `coclosed_residual` exceeds tol.
    """
    res = coclosed_residual(g)
    if res > tol:
        raise ConstraintViolated(
            f"coclosed residual {res:.3g} exceeds tolerance {tol:.3g}")
    phi = build_phi(g)
    return -d(star7(d(phi, g.structure), g), g.structure)


def laplacian_psi_closed_form(g):
    """-Delta_d psi from the closed-form coefficients (the dual route).

    CY:  (i (F^3)'/2G)' dr^Omega + conjugate;
    NK:  A dr^Omega + Abar dr^Omegabar + B omega^2/2 with
         A = (i (F^3)'/2G - (3i/2) h^2)' + 6 G h sin 3 theta,
         B = -(4/G)(h^3 cos 3 theta)' + 12 h^2.
    """
    F3 = g.F_cubed()
    i_half = pf.constant(0.5j)
    core = pf.mul(i_half, pf.div(F3.derivative(), g.G))
    if g.structure is StructureKind.CY:
        A = core.derivative()
        return InvariantForm(4, {
            "dr_Omega": A,
            "dr_Omegabar": pf.conj(A),
        })
    t3 = pf.mul(pf.constant(3.0), g.theta)
    h2 = pf.pow_int(g.h, 2)
    A = pf.add(
        pf.sub(core, pf.mul(pf.constant(1.5j), h2)).derivative(),
        pf.mul(pf.constant(6.0), pf.mul(pf.mul(g.G, g.h), pf.sin(t3))),
    )
    B = pf.add(
        pf.mul(pf.constant(-4.0),
               pf.div(pf.mul(pf.pow_int(g.h, 3), pf.cos(t3)).derivative(), g.G)),
        pf.mul(pf.constant(12.0), h2),
    )
    return InvariantForm(4, {
        "dr_Omega": A,
        "dr_Omegabar": pf.conj(A),
        "omega2_half": B,
    })
