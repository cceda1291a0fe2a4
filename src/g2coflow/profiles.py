"""Scalar functions of the coordinate r with derivative jets up to order 4.

Two backends share one algebra. Closed-form expression trees (constants, r,
arithmetic, sin/cos/exp/arctan, integer powers, antiderivatives by
quadrature) and uniformly sampled grids combine freely. Derivatives are
`derivative()` trees: symbolic for closed-form nodes, one finite-difference
stencil product for a grid (centered in the interior, one-sided at interval
ends; the stencils are built once per mesh as cached sparse matrices,
`stencil_operator`). A jet is the values of a profile and of its first four
derivative trees at r; a bare grid's jet uses the direct m-th derivative
stencils instead. `Profile.value` and `Profile.jet` evaluate along one path:
a domain check, one memo that computes each node once, a finiteness check.
Each data format of the line is defined here once: domains and their JSON
(`domain_from_json`), the uniform grid of a domain (`Mesh`, shared with the
coflow) and CSV rows (`write_csv`).

Profiles are immutable after construction; every operation returns a new
object, so they are safe to share between threads.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import DomainError, InvalidGeometry, QuadratureFailure, SingularEval

JET_ORDER = 4


def _require_finite(components):
    for c in components:
        if not np.all(np.isfinite(c)):
            raise SingularEval("non-finite value in evaluation")


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

class Jet(tuple):
    """Value and first four derivatives of a scalar function at a point.

    What `Profile.jet` returns: the tuple (value, d1, ..., d4), each a real
    or complex scalar or a numpy array of either. They are the values of the
    profile and of its `derivative()` trees; no arithmetic is done on Jets.
    """

    __slots__ = ()

    c = property(tuple)
    value = property(lambda self: self[0])
    derivs = property(lambda self: self[1:])


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Circle:
    """Periodic domain of the given period, with origin r0."""

    period: float
    r0: float = 0.0

    def __post_init__(self):
        if not self.period > 0:
            raise InvalidGeometry("period must be positive")
        object.__setattr__(self, "period", float(self.period))
        object.__setattr__(self, "r0", float(self.r0))

    def contains(self, r):
        return np.full(np.shape(r), True) if np.ndim(r) else True

    def sample_points(self, n, interior=False):
        # interior shifts the points by half a step, as on an interval
        return self.r0 + self.period * (np.arange(n) + (0.5 if interior else 0.0)) / n

    @property
    def length(self):
        return self.period

    def to_json(self):
        return {"kind": "circle", "period": self.period, "r0": self.r0}


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [r0, r1]."""

    r0: float
    r1: float

    def __post_init__(self):
        if not self.r1 > self.r0:
            raise InvalidGeometry("need r1 > r0")
        object.__setattr__(self, "r0", float(self.r0))
        object.__setattr__(self, "r1", float(self.r1))

    def contains(self, r):
        slack = 1e-12 * (self.r1 - self.r0)
        return (np.asarray(r) >= self.r0 - slack) & (np.asarray(r) <= self.r1 + slack)

    def sample_points(self, n, interior=False):
        if interior:
            step = (self.r1 - self.r0) / n
            return self.r0 + step * (np.arange(n) + 0.5)
        return np.linspace(self.r0, self.r1, n)

    @property
    def length(self):
        return self.r1 - self.r0

    def to_json(self):
        return {"kind": "interval", "r0": self.r0, "r1": self.r1}


def domain_from_json(obj):
    """The domain `to_json` wrote, bounds converted with float. A missing
    bound raises KeyError; an unknown kind or a bad bound InvalidGeometry."""
    kind = obj.get("kind")
    if kind == "circle":
        cls, bounds = Circle, (obj["period"], obj.get("r0", 0.0))
    elif kind == "interval":
        cls, bounds = Interval, (obj["r0"], obj["r1"])
    else:
        raise InvalidGeometry(f"unknown domain kind {kind!r}")
    try:
        return cls(*map(float, bounds))
    except (TypeError, ValueError) as exc:
        raise InvalidGeometry(str(exc)) from None


def _merge_domain(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise InvalidGeometry(f"incompatible domains {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class Profile:
    """Abstract scalar function of r. Subclasses implement the backends."""

    __slots__ = ("domain",)

    def __init__(self, domain=None):
        self.domain = domain

    # evaluation -----------------------------------------------------------
    def jet(self, r):
        """Jet (value and derivatives 1..4) at r; r may be an array."""
        return Jet(self._evaluate(r, self._jet_terms()))

    def _jet_terms(self):
        """The profile and its derivative trees of orders 1..JET_ORDER."""
        terms = [self]
        for _ in range(JET_ORDER):
            terms.append(terms[-1].derivative())
        return terms

    def value(self, r):
        return self._evaluate(r, (self,))[0]

    __call__ = value

    def _evaluate(self, r, terms):
        """Values of the terms at r, within this profile's domain, each node
        computed once, all finite."""
        if self.domain is not None and not np.all(self.domain.contains(r)):
            raise DomainError(f"coordinate {r!r} outside {self.domain!r}")
        memo = {}
        values = tuple(p._value(r, memo) for p in terms)
        _require_finite(values)
        return values

    def _value(self, r, memo):
        """Value at r; memo maps id(node) to the node's value at this r."""
        v = memo.get(id(self))
        if v is None:
            v = memo[id(self)] = self._eval(r, memo)
        return v

    # tree plumbing, overridden by nodes ------------------------------------
    def _eval(self, r, memo):  # pragma: no cover - abstract
        raise NotImplementedError

    def derivative(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _json(self):  # pragma: no cover - abstract
        raise NotImplementedError

    # operators --------------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(constant(-1.0), self)

    def __pow__(self, n):
        return pow_int(self, n)

    def conj(self):
        return conj(self)

    def to_json(self):
        out = {"root": self._json()}
        if self.domain is not None:
            out["domain"] = self.domain.to_json()
        return out


def as_profile(x, domain=None):
    if isinstance(x, Profile):
        return x
    if isinstance(x, numbers.Number):
        return Constant(complex(x) if isinstance(x, complex) else float(x), domain)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Profile")


def _is_const(p, value=None):
    return isinstance(p, Constant) and (value is None or p.c == value)


class Constant(Profile):
    __slots__ = ("c",)

    def __init__(self, c, domain=None):
        super().__init__(domain)
        self.c = c

    def _eval(self, r, memo):
        shape = np.shape(r)
        return np.full(shape, self.c) if shape else self.c

    def derivative(self):
        return Constant(0.0, self.domain)

    def _json(self):
        c = complex(self.c)
        return {"type": "const", "re": c.real, "im": c.imag}


class Coordinate(Profile):
    """The identity function r -> r."""

    __slots__ = ()

    def _eval(self, r, memo):
        return np.asarray(r, dtype=float) if np.shape(r) else float(r)

    def derivative(self):
        return Constant(1.0, self.domain)

    def _json(self):
        return {"type": "coord"}


class _Binary(Profile):
    """Node whose value is `_op` of the values of a and b: an `operator`
    function, or a method where the operation needs checks."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__(_merge_domain(a.domain, b.domain))
        self.a = a
        self.b = b

    def _eval(self, r, memo):
        return self._op(self.a._value(r, memo), self.b._value(r, memo))

    def _json(self):
        return {"type": self._tag, "args": [self.a._json(), self.b._json()]}


class Add(_Binary):
    __slots__ = ()
    _tag, _op = "add", operator.add

    def derivative(self):
        return add(self.a.derivative(), self.b.derivative())


class Sub(_Binary):
    __slots__ = ()
    _tag, _op = "sub", operator.sub

    def derivative(self):
        return sub(self.a.derivative(), self.b.derivative())


class Mul(_Binary):
    __slots__ = ()
    _tag, _op = "mul", operator.mul

    def derivative(self):
        return add(mul(self.a.derivative(), self.b), mul(self.a, self.b.derivative()))


class Div(_Binary):
    __slots__ = ()
    _tag = "div"

    def _op(self, a, b):
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                v = a / b
        except ZeroDivisionError:
            raise SingularEval("division by zero") from None
        _require_finite((v,))
        return v

    def derivative(self):
        num = sub(mul(self.a.derivative(), self.b), mul(self.a, self.b.derivative()))
        return div(num, mul(self.b, self.b))


class _Unary(Profile):
    """Node whose value is `_op` of the value of a: a numpy function, or a
    method where the operation needs more."""

    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__(a.domain)
        self.a = a

    def _eval(self, r, memo):
        return self._op(self.a._value(r, memo))

    def _json(self):
        return {"type": self._tag, "args": [self.a._json()]}


class Sin(_Unary):
    __slots__ = ()
    _tag, _op = "sin", np.sin

    def derivative(self):
        return mul(cos(self.a), self.a.derivative())


class Cos(_Unary):
    __slots__ = ()
    _tag, _op = "cos", np.cos

    def derivative(self):
        return mul(constant(-1.0), mul(sin(self.a), self.a.derivative()))


class Exp(_Unary):
    __slots__ = ()
    _tag, _op = "exp", np.exp

    def derivative(self):
        return mul(exp(self.a), self.a.derivative())


class Arctan(_Unary):
    __slots__ = ()
    _tag = "arctan"

    def _op(self, a):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.arctan(a)

    def derivative(self):
        one = constant(1.0)
        return div(self.a.derivative(), add(one, mul(self.a, self.a)))


class Conj(_Unary):
    """Complex conjugate; commutes with d/dr since r is real."""

    __slots__ = ()
    _tag, _op = "conj", np.conjugate

    def derivative(self):
        return conj(self.a.derivative())


class Pow(_Unary):
    """Integer power, exponent >= 2."""

    __slots__ = ("n",)
    _tag = "pow"

    def __init__(self, a, n):
        super().__init__(a)
        self.n = int(n)

    def _op(self, a):
        return a ** self.n

    def derivative(self):
        return mul(mul(constant(float(self.n)), pow_int(self.a, self.n - 1)),
                   self.a.derivative())

    def _json(self):
        return {"type": "pow", "n": self.n, "args": [self.a._json()]}


class Antiderivative(Profile):
    """q(r) = c0 + integral of the integrand from r0 to r, by adaptive Simpson.

    The quadrature works on fixed panels anchored at r0, with breakpoints at
    r0 + k * panel. A value is c0 plus the prefix sum of the full panels
    between r0 and the breakpoint next to r on r0's side, plus the partial
    panel from that breakpoint to r. Prefix sums are accumulated outward from
    r0 in a fixed order and cached; every panel and partial panel is
    integrated on its own (`_simpson_batch`) with tolerance tol * panel, so
    the error does not grow with the number of panels. A value is therefore a
    pure function of r: it does not depend on the other points of its batch
    or on what was evaluated before. The quadrature rule and tolerance are
    recorded in ``metadata``.
    """

    __slots__ = ("integrand", "r0", "c0", "tol", "_prefix")

    rule = "adaptive_simpson"
    panel = 0.25

    def __init__(self, integrand, r0, c0, tol=1e-12):
        super().__init__(integrand.domain)
        self.integrand = integrand
        self.r0 = float(r0)
        self.c0 = c0
        self.tol = float(tol)
        # integrals from r0 to r0 + k * panel for k = 0, 1, ... and k = 0, -1, ...;
        # replaced whole when extended, so readers never see a partial update
        self._prefix = (np.zeros(1), np.zeros(1))

    @property
    def metadata(self):
        return {"rule": self.rule, "tolerance": self.tol, "r0": self.r0}

    def _anchor(self, k):
        return self.r0 + k * self.panel

    def _eval(self, r, memo):
        x = np.asarray(r, dtype=float)
        flat = x.ravel()
        k = np.trunc((flat - self.r0) / self.panel)
        # each panel costs at least two evaluations of the per-value budget
        if not np.all(np.abs(k) <= _MAX_EVALS // 2):
            raise QuadratureFailure(
                f"coordinate {r!r} is too far from r0 = {self.r0} to integrate")
        above, below = self._prefix
        # full panels not cached yet, on either side of r0
        up = np.arange(len(above) - 1, k.max(initial=0.0))
        down = np.arange(len(below) - 1, -k.min(initial=0.0))
        seg = _simpson_batch(
            lambda t: self.integrand._value(t, {}),
            np.concatenate((self._anchor(up), self._anchor(-down), self._anchor(k))),
            np.concatenate((self._anchor(up + 1), self._anchor(-down - 1), flat)),
            self.tol * self.panel,
        )
        n_up, n_full = len(up), len(up) + len(down)
        if n_full:
            above = _accumulate(above, seg[:n_up])
            below = _accumulate(below, seg[n_up:n_full])
            self._prefix = (above, below)
        i = k.astype(np.int64)
        prefix = np.where(i >= 0, above[np.maximum(i, 0)], below[np.maximum(-i, 0)])
        return (self.c0 + (prefix + seg[n_full:])).reshape(x.shape)[()]

    def derivative(self):
        return self.integrand

    def _json(self):
        c0 = complex(self.c0)
        return {
            "type": "antiderivative",
            "r0": self.r0,
            "c0_re": c0.real,
            "c0_im": c0.imag,
            "tol": self.tol,
            "args": [self.integrand._json()],
        }


def _accumulate(prefix, panels):
    """prefix extended by running sums that add one panel at a time."""
    return np.concatenate((prefix[:-1], np.cumsum(np.concatenate((prefix[-1:], panels)))))


_MAX_DEPTH = 48
_MAX_EVALS = 200_000
_MAX_INTERVALS = 2 ** 17   # intervals one refinement keeps across its levels


def _simpson_batch(f, a, b, tol):
    """Adaptive Simpson integrals of f over the segments [a[i], b[i]].

    Each segment follows the recursive rule of Lyness (1969, J. ACM 16:483):
    an interval is accepted when |delta| <= 15 tol, with the result
    left + right + delta / 15, and is otherwise split in two with tol halved.
    The live intervals of all segments are refined together, breadth first,
    with one call of f (on an array) per level. A segment's result is summed
    over its own binary tree, exactly as the recursion sums it, so it does not
    depend on the other segments. QuadratureFailure is raised when a segment
    needs more than _MAX_DEPTH levels or _MAX_EVALS evaluations.
    """
    n = len(a)
    seg_a, seg_b = a, b
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(f(np.concatenate((a, m, b))), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    owner = np.arange(n)
    used = np.zeros(n, dtype=np.int64)
    levels, kept, level_tol = [], n, tol
    for depth in range(_MAX_DEPTH + 1):
        if not len(a):
            break
        m = 0.5 * (a + b)
        flm, frm = np.split(f(np.concatenate((0.5 * (a + m), 0.5 * (m + b)))), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        split = ~(np.abs(delta) <= 15.0 * level_tol)
        levels.append((left + right + delta / 15.0, split))
        used += 2 * np.bincount(owner, minlength=n)
        owner = np.repeat(owner[split], 2)
        if len(owner) and (depth == _MAX_DEPTH or used[owner].max() >= _MAX_EVALS):
            worst = owner[np.argmax(used[owner])]
            raise QuadratureFailure(
                f"adaptive Simpson did not converge on [{seg_a[worst]}, "
                f"{seg_b[worst]}] within {_MAX_DEPTH} levels and "
                f"{_MAX_EVALS} evaluations")
        kept += len(owner)
        if kept > _MAX_INTERVALS and n > 1:
            # too many intervals at once: integrate each half of the segments alone
            half = n // 2
            return np.concatenate((_simpson_batch(f, seg_a[:half], seg_b[:half], tol),
                                   _simpson_batch(f, seg_a[half:], seg_b[half:], tol)))
        # children of interval j sit at 2j (left half) and 2j + 1 (right half)
        a, b, fa, fm, fb, whole = (
            np.stack((lo[split], hi[split]), axis=1).ravel()
            for lo, hi in ((a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right)))
        level_tol *= 0.5
    # an interval that was split is worth the sum of its two children
    value = np.zeros(0)
    for est, split in reversed(levels):
        est[split] = value[0::2] + value[1::2]
        value = est
    return value


# ---------------------------------------------------------------------------
# sampled backend
# ---------------------------------------------------------------------------

def _fd_weights(offsets, m):
    """Fornberg weights for derivatives 0..m at 0 from the given node offsets."""
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0]
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _stencil_size(m, order):
    # smallest centered stencil achieving the requested order
    return m + order if m % 2 else m + order - 1


@functools.lru_cache(maxsize=64)
def stencil_operator(n, dr, periodic, m, order):
    """Sparse n x n finite-difference matrix for derivative m on a uniform mesh.

    Rows use the centered stencil of the given order where the window fits,
    a shifted (one-sided) window of m + order points near interval ends, and
    wrap around on a circle. Matrices are cached and shared: do not modify
    them in place.
    """
    size = _stencil_size(m, order)
    half = size // 2
    offsets = np.arange(-half, size - half)
    centered = np.arange(n) if periodic else np.arange(half, n - half)
    rows = [np.repeat(centered, size)]
    cols = [((centered[:, None] + offsets) % n).ravel()]
    vals = [np.tile(_fd_weights(offsets * dr, m)[:, m], len(centered))]
    if not periodic:
        size = max(size, m + order)  # one-sided needs m+order points
        for i in np.setdiff1d(np.arange(n), centered):
            lo = min(max(i - size // 2, 0), n - size)
            offs = np.arange(lo - i, lo - i + size)
            rows.append(np.full(size, i))
            cols.append(i + offs)
            vals.append(_fd_weights(offs * dr, m)[:, m])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of n nodes r0 + k * dr on a domain; periodic iff built on
    a circle (n nodes spanning one period), else n nodes from r0 to r1."""

    r0: float
    dr: float
    n: int
    periodic: bool

    @classmethod
    def from_domain(cls, domain, n):
        if n < 2:
            raise InvalidGeometry(f"a mesh needs at least 2 nodes, got {n}")
        if isinstance(domain, Circle):
            return cls(domain.r0, domain.period / n, n, True)
        if isinstance(domain, Interval):
            return cls(domain.r0, (domain.r1 - domain.r0) / (n - 1), n, False)
        raise TypeError(f"cannot mesh {domain!r}")

    @property
    def nodes(self):
        return self.r0 + self.dr * np.arange(self.n)

    def index(self, r):
        """Node index of r, elementwise with the shape of r; DomainError when
        r is not a node (a circle's nodes repeat with its period)."""
        rs = np.asarray(r, dtype=float)
        t = (rs - self.r0) / self.dr
        idx = np.rint(t).astype(int)
        off = np.abs(t - idx) > 1e-8
        if np.any(off):
            raise DomainError(f"r={float(rs[off][0])!r} is not a mesh node")
        if self.periodic:
            return idx % self.n
        outside = (idx < 0) | (idx >= self.n)
        if np.any(outside):
            raise DomainError(f"r={float(rs[outside][0])!r} outside the mesh")
        return idx

    def deriv_matrix(self, m):
        """Sparse 4th-order differentiation matrix for derivative m."""
        return stencil_operator(self.n, self.dr, self.periodic, m, 4)


class Sampled(Profile):
    """Profile backed by values on the nodes of a uniform `Mesh`.

    Jets are only available at mesh nodes and are computed with
    finite-difference stencils of the configured order: centered where the
    window fits, shifted (one-sided) near interval ends, periodic wrap on a
    circle. Each derivative is one product with a shared `stencil_operator`.
    """

    __slots__ = ("values", "order", "mesh")

    def __init__(self, domain, values, order=4):
        if domain is None:
            raise InvalidGeometry("a Sampled profile needs an explicit domain")
        super().__init__(domain)
        self.values = np.asarray(values)
        if len(self.values) < order + JET_ORDER:
            raise InvalidGeometry("mesh too small for the configured stencil order")
        self.order = int(order)
        self.mesh = Mesh.from_domain(domain, len(self.values))

    @classmethod
    def from_function(cls, f, domain, n, order=4):
        """Sampled at the mesh nodes of f, a function of arrays or a Profile."""
        return cls(domain, f(Mesh.from_domain(domain, n).nodes), order)

    n = property(lambda self: self.mesh.n)
    dr = property(lambda self: self.mesh.dr)
    nodes = property(lambda self: self.mesh.nodes)

    def _operator(self, m):
        return stencil_operator(self.n, self.dr, self.mesh.periodic, m, self.order)

    def _jet_terms(self):
        # direct m-th derivative stencils, not repeated first-derivative ones
        return [self] + [Sampled(self.domain, self._operator(m) @ self.values, self.order)
                         for m in range(1, JET_ORDER + 1)]

    def _eval(self, r, memo):
        return self.values[self.mesh.index(r)]

    def derivative(self):
        return Sampled(self.domain, self._operator(1) @ self.values, self.order)

    def _json(self):
        vals = np.asarray(self.values, dtype=complex)
        return {
            "type": "sampled",
            "order": self.order,
            "values_re": vals.real.tolist(),
            "values_im": vals.imag.tolist(),
        }


def sample_points(domain, members, n, interior=True):
    """n evaluation points for profiles on `domain`; when one of `members`
    is grid-backed, every (nodes // n)-th node of the first such one."""
    for p in members:
        if isinstance(p, Sampled):
            return p.nodes[:: max(1, len(p.nodes) // n)]
    return domain.sample_points(n, interior=interior)


# ---------------------------------------------------------------------------
# smart constructors and the public operation set
# ---------------------------------------------------------------------------

def constant(c, domain=None):
    return Constant(c, domain)


def coordinate(domain=None):
    return Coordinate(domain)


def add(a, b):
    a, b = as_profile(a), as_profile(b)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return Constant(a.c + b.c, _merge_domain(a.domain, b.domain))
    return Add(a, b)


def sub(a, b):
    a, b = as_profile(a), as_profile(b)
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return Constant(a.c - b.c, _merge_domain(a.domain, b.domain))
    return Sub(a, b)


def mul(a, b):
    a, b = as_profile(a), as_profile(b)
    if _is_const(a, 0) or _is_const(b, 0):
        return Constant(0.0, _merge_domain(a.domain, b.domain))
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b):
        return Constant(a.c * b.c, _merge_domain(a.domain, b.domain))
    return Mul(a, b)


def div(a, b):
    a, b = as_profile(a), as_profile(b)
    if _is_const(b, 1):
        return a
    if _is_const(a, 0) and not _is_const(b, 0):
        return Constant(0.0, _merge_domain(a.domain, b.domain))
    return Div(a, b)


def pow_int(a, n):
    a = as_profile(a)
    n = int(n)
    if n == 0:
        return Constant(1.0, a.domain)
    if n == 1:
        return a
    if n < 0:
        return Div(Constant(1.0, a.domain), pow_int(a, -n))
    return Pow(a, n)


def sin(a):
    return Sin(as_profile(a))


def cos(a):
    return Cos(as_profile(a))


def exp(a):
    return Exp(as_profile(a))


def arctan(a):
    return Arctan(as_profile(a))


def conj(a):
    a = as_profile(a)
    if _is_const(a):
        return Constant(np.conjugate(a.c), a.domain)
    return Conj(a)


def jet_at(p, r):
    """Jet of profile p at coordinate r.

    Raises DomainError outside the domain (or off-mesh for Sampled) and
    SingularEval when a denominator vanishes.
    """
    return p.jet(r)


def antiderivative(p, r0, c0, tol=1e-12):
    """Profile q with q(r0) = c0 and q' = p, values by adaptive Simpson on
    fixed panels anchored at r0."""
    return Antiderivative(p, r0, c0, tol)


# ---------------------------------------------------------------------------
# (de)serialization
# ---------------------------------------------------------------------------

_UNARY_BY_TAG = {"sin": sin, "cos": cos, "exp": exp, "arctan": arctan, "conj": conj}
_BINARY_BY_TAG = {"add": add, "sub": sub, "mul": mul, "div": div}


def profile_from_json(obj):
    domain = domain_from_json(obj["domain"]) if "domain" in obj else None

    def build(node):
        t = node["type"]
        if t == "const":
            c = node["re"] + 1j * node["im"]
            return Constant(c.real if c.imag == 0 else c)
        if t == "coord":
            return Coordinate(domain)
        if t in _UNARY_BY_TAG:
            return _UNARY_BY_TAG[t](build(node["args"][0]))
        if t in _BINARY_BY_TAG:
            return _BINARY_BY_TAG[t](build(node["args"][0]), build(node["args"][1]))
        if t == "pow":
            return pow_int(build(node["args"][0]), node["n"])
        if t == "antiderivative":
            c0 = node["c0_re"] + 1j * node["c0_im"]
            return Antiderivative(
                build(node["args"][0]), node["r0"],
                c0.real if c0.imag == 0 else c0, node["tol"],
            )
        if t == "sampled":
            vals = np.asarray(node["values_re"]) + 1j * np.asarray(node["values_im"])
            if np.all(vals.imag == 0):
                vals = vals.real
            return Sampled(domain, vals, node["order"])
        raise InvalidGeometry(f"unknown profile node type {t!r}")

    root = build(obj["root"])
    if root.domain is None:
        root.domain = domain
    return root


def sample_table(p, rs):
    """(len(rs), 6) array of r, value, d1..d4 for CSV export."""
    jet = p.jet(np.asarray(rs, dtype=float))
    cols = [np.asarray(rs, dtype=float)] + [np.real_if_close(np.asarray(c)) for c in jet.c]
    return np.column_stack(cols)


def write_csv(path, header, columns):
    """Columns as full-precision rows under a header, with CRLF line ends.

    Header names are written as given, unquoted.
    """
    rows = np.column_stack(columns).astype(float).tolist()
    fmt = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)] + [fmt % tuple(row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_sample_csv(p, rs, path):
    """Write the real part of the sample table of p to path, full precision."""
    write_csv(path, ["r", "value", "d1", "d2", "d3", "d4"],
              np.real(sample_table(p, rs)).T)
