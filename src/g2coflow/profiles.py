"""Scalar functions of the coordinate r with derivative jets up to order 4.

Two backends share one algebra. Closed-form expression trees (constants, r,
arithmetic, sin/cos/exp/arctan, integer powers, antiderivatives by one
Chebyshev series per fixed panel, the package's one quadrature) and
uniformly sampled grids combine freely. Derivatives are
`derivative()` trees: symbolic for closed-form nodes, built once per node
and kept, and one finite-difference stencil product for a grid (order
`STENCIL_ORDER`, centered in the interior, one-sided at interval ends; the
stencils are built once per mesh as cached sparse matrices,
`Mesh.deriv_matrix`). A jet is the values of a profile and
of its first four derivative trees at r; a bare grid's jet uses the direct
m-th derivative stencils instead. Every evaluation takes one path,
`evaluate(r, *terms, inputs=None)`: a check of each distinct domain, one
memo shared by all terms that computes each node once, a finiteness check;
`Profile.value` and `Profile.jet` call it too. A `Leaf` stands for a
derivative of a named input that `evaluate` binds, so a formula built once
on leaves (a template, made compact by `intern`) serves every input. Each
data format of the line is defined here once: domains and their JSON
(`domain_from_json`), the uniform grid of a domain (`Mesh`, shared with the
coflow) and CSV rows (`write_csv`).

Each node class is its own constructor where no folding applies (`sin`,
`cos`, `exp` and `arctan` are `Sin`, `Cos`, `Exp` and `Arctan`); a unary
node makes a number operand a `Constant`, as `add`, `mul` and the other
folding constructors do.

Profiles are immutable after construction; every operation returns a new
object, so they are safe to share between threads (two threads asking a
node for its derivative at once may each build it; either tree is kept).
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (DomainError, InvalidGeometry, QuadratureFailure, SingularEval,
                     UnboundInput)

JET_ORDER = 4
STENCIL_ORDER = 4   # accuracy order of every grid derivative but diagnostics
MIN_NODES = STENCIL_ORDER + JET_ORDER   # the smallest mesh a Sampled accepts


def _require_finite(components):
    for c in components:
        if not np.all(np.isfinite(c)):
            raise SingularEval("non-finite value in evaluation")


def evaluate(r, *terms, inputs=None):
    """Values of the terms at r, as a tuple in term order.

    `inputs` maps the name of each `Leaf` of the terms to the profile bound
    to it. Each distinct domain of the terms and then of the inputs is
    checked in order (DomainError), one memo shared by all terms and the
    inputs' derivative trees computes each node once, and every value must
    be finite: an overflow or a division by zero, of numpy arrays or of
    Python numbers, raises SingularEval.
    """
    inputs = inputs or {}
    for domain in {p.domain: None for p in (*terms, *inputs.values())}:
        if domain is not None and not np.all(domain.contains(r)):
            raise DomainError(f"coordinate {r!r} outside {domain!r}")
    memo = {_INPUTS: inputs}
    try:
        with np.errstate(all="ignore"):  # non-finite values are caught below
            values = tuple(p._value(r, memo) for p in terms)
    except (OverflowError, ZeroDivisionError) as exc:
        raise SingularEval(f"evaluation failed: {exc}") from None
    _require_finite(values)
    return values


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


def domain_from_json(obj):
    """The domain a {"kind": "circle" | "interval", ...} object names, bounds
    converted with float. A missing bound raises KeyError; an unknown kind or
    a bad bound (a bool included) InvalidGeometry."""
    kind = obj.get("kind")
    if kind == "circle":
        cls, bounds = Circle, (obj["period"], obj.get("r0", 0.0))
    elif kind == "interval":
        cls, bounds = Interval, (obj["r0"], obj["r1"])
    else:
        raise InvalidGeometry(f"unknown domain kind {kind!r}")
    try:
        if any(isinstance(b, bool) for b in bounds):
            raise TypeError(f"domain bounds must be numbers, got {bounds!r}")
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

    __slots__ = ("domain", "_deriv")

    def __init__(self, domain=None):
        self.domain = domain
        self._deriv = None   # the derivative tree, once derivative() built it

    # evaluation -----------------------------------------------------------
    def jet(self, r):
        """Jet (value and derivatives 1..4) at r; r may be an array."""
        return Jet(evaluate(r, *self._jet_terms()))

    def _jet_terms(self):
        """The profile and its derivative trees of orders 1..JET_ORDER."""
        terms = [self]
        for _ in range(JET_ORDER):
            terms.append(terms[-1].derivative())
        return terms

    def value(self, r):
        return evaluate(r, self)[0]

    __call__ = value

    def _value(self, r, memo):
        """Value at r; memo maps id(node) to the node's value at this r."""
        v = memo.get(id(self))
        if v is None:
            v = memo[id(self)] = self._eval(r, memo)
        return v

    def derivative(self):
        """The derivative tree, built once per node and kept."""
        if self._deriv is None:
            self._deriv = self._derivative()
        return self._deriv

    # tree plumbing, overridden by nodes ------------------------------------
    def _eval(self, r, memo):  # pragma: no cover - abstract
        raise NotImplementedError

    def _derivative(self):  # pragma: no cover - abstract
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


def as_profile(x):
    if isinstance(x, Profile):
        return x
    if isinstance(x, numbers.Number):
        return Constant(complex(x) if isinstance(x, complex) else float(x))
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

    def _derivative(self):
        return Constant(0.0, self.domain)


class Coordinate(Profile):
    """The identity function r -> r."""

    __slots__ = ()

    def _eval(self, r, memo):
        return np.asarray(r, dtype=float) if np.shape(r) else float(r)

    def _derivative(self):
        return Constant(1.0, self.domain)


_INPUTS = "inputs"   # the memo's key for `evaluate`'s inputs; nodes are keyed by id


class Leaf(Profile):
    """The order-th derivative of the input that `evaluate` binds to name.

    A formula built on leaves is a template: it is built once and evaluated
    for many inputs. The bound profile's derivative tree is evaluated in the
    memo of the terms; UnboundInput when no input has the leaf's name.
    """

    __slots__ = ("name", "order")

    def __init__(self, name, order=0):
        super().__init__()
        self.name = name
        self.order = order

    def _eval(self, r, memo):
        key = (self.name, self.order)
        if key not in memo:
            if self.name not in memo[_INPUTS]:
                raise UnboundInput(f"no input bound to leaf {self.name!r}")
            p = memo[_INPUTS][self.name]
            for _ in range(self.order):
                p = p.derivative()
            memo[key] = p   # kept for the call, as ids of its nodes key the memo
        return memo[key]._value(r, memo)

    def _derivative(self):
        return Leaf(self.name, self.order + 1)


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


class Add(_Binary):
    __slots__ = ()
    _op = operator.add

    def _derivative(self):
        return add(self.a.derivative(), self.b.derivative())


class Sub(_Binary):
    __slots__ = ()
    _op = operator.sub

    def _derivative(self):
        return sub(self.a.derivative(), self.b.derivative())


class Mul(_Binary):
    __slots__ = ()
    _op = operator.mul

    def _derivative(self):
        return add(mul(self.a.derivative(), self.b), mul(self.a, self.b.derivative()))


class Div(_Binary):
    __slots__ = ()

    def _op(self, a, b):
        v = a / b
        _require_finite((v,))
        return v

    def _derivative(self):
        num = sub(mul(self.a.derivative(), self.b), mul(self.a, self.b.derivative()))
        return div(num, mul(self.b, self.b))


class _Unary(Profile):
    """Node whose value is `_op` of the value of a: a numpy function, or a
    method where the operation needs more. A number for a is made a
    Constant."""

    __slots__ = ("a",)

    def __init__(self, a):
        a = as_profile(a)
        super().__init__(a.domain)
        self.a = a

    def _eval(self, r, memo):
        return self._op(self.a._value(r, memo))


class Sin(_Unary):
    __slots__ = ()
    _op = np.sin

    def _derivative(self):
        return mul(cos(self.a), self.a.derivative())


class Cos(_Unary):
    __slots__ = ()
    _op = np.cos

    def _derivative(self):
        return mul(constant(-1.0), mul(sin(self.a), self.a.derivative()))


class Exp(_Unary):
    __slots__ = ()
    _op = np.exp

    def _derivative(self):
        return mul(exp(self.a), self.a.derivative())


class Arctan(_Unary):
    __slots__ = ()
    _op = np.arctan

    def _derivative(self):
        one = constant(1.0)
        return div(self.a.derivative(), add(one, mul(self.a, self.a)))


class Conj(_Unary):
    """Complex conjugate; commutes with d/dr since r is real."""

    __slots__ = ()
    _op = np.conjugate

    def _derivative(self):
        return conj(self.a.derivative())


class Pow(_Unary):
    """Integer power, exponent >= 2."""

    __slots__ = ("n",)

    def __init__(self, a, n):
        super().__init__(a)
        self.n = int(n)

    def _op(self, a):
        return a ** self.n

    def _derivative(self):
        return mul(mul(constant(float(self.n)), pow_int(self.a, self.n - 1)),
                   self.a.derivative())


class Antiderivative(Profile):
    """q(r) = c0 + integral of the integrand from r0 to r, by Chebyshev series.

    The quadrature works on fixed panels [r0 + k * panel, r0 + (k + 1) * panel],
    clipped to an `Interval` domain, whose end panels hold its ends. Each
    panel carries one Chebyshev series of the integral from its lower end
    (`_panel_series`), fitted to tol absolute per unit length. A value is c0
    plus the integrals of the panels from r0 to the lower end of r's panel,
    summed outward from r0 in a fixed order, plus the series of r's panel at
    r. Series and sums are cached, so a value re-integrates nothing and is a
    pure function of r, whatever else its batch holds or was evaluated
    before.

    The whole panel that holds r is sampled: with no domain or on a circle
    that reaches past r, so an integrand singular there raises
    QuadratureFailure.
    """

    __slots__ = ("integrand", "r0", "c0", "tol", "_cache")

    panel = 0.25

    def __init__(self, integrand, r0, c0, tol=1e-12):
        super().__init__(integrand.domain)
        self.integrand = integrand
        self.r0 = float(r0)
        self.c0 = c0
        self.tol = float(tol)
        # (first panel index, one zero-padded series per row, series lengths,
        # integrals from r0 to each row's lower end and past the last row);
        # replaced whole when extended, so readers never see a partial update
        self._cache = (0, np.zeros((0, 1)), np.zeros(0, dtype=np.int64), np.zeros(1))

    def _bounds(self):
        """Where panels are clipped: an interval domain's ends, widened to r0."""
        if isinstance(self.domain, Interval):
            return min(self.domain.r0, self.r0), max(self.domain.r1, self.r0)
        return -np.inf, np.inf

    def _ends(self, k):
        lo, hi = self._bounds()
        return (np.maximum(self.r0 + k * self.panel, lo),
                np.minimum(self.r0 + (k + 1) * self.panel, hi))

    def _eval(self, r, memo):
        x = np.asarray(r, dtype=float)
        flat = x.ravel()
        k = np.floor((flat - self.r0) / self.panel)
        if not np.all(np.abs(k) <= _MAX_PANELS):  # nan included
            raise QuadratureFailure(
                f"coordinate {r!r} is too far from r0 = {self.r0} to integrate")
        lo, hi = self._bounds()
        k = np.clip(k, np.floor((lo - self.r0) / self.panel),
                    np.ceil((hi - self.r0) / self.panel) - 1).astype(np.int64)
        first, series, size, prefix = self._extend(k.min(initial=0), k.max(initial=0))
        a, b = self._ends(k)
        i = k - first
        t = 2.0 * (flat - a) / (b - a) - 1.0
        part = chebyshev.chebval(t, series[i, :size[i].max(initial=1)].T, tensor=False)
        return (self.c0 + (prefix[i] + 0.5 * (b - a) * part)).reshape(x.shape)[()]

    def _extend(self, kmin, kmax):
        """The cache, extended to hold panels kmin..kmax and all panels
        between them and r0."""
        first, series, size, prefix = self._cache
        right = np.arange(first + len(size), kmax + 1)
        left = np.arange(first - 1, kmin - 1, -1)   # outward from r0
        if not (len(right) or len(left)):
            return self._cache
        a, b = self._ends(np.concatenate((right, left)))
        fits = _panel_series(lambda t: self.integrand._value(t, {}), a, b, self.tol)
        whole = 0.5 * (b - a) * np.array([chebyshev.chebval(1.0, s) for s in fits])
        # running sums that add one panel at a time, continued from the cache
        up = np.cumsum(np.concatenate((prefix[-1:], whole[:len(right)])))
        down = np.cumsum(np.concatenate((prefix[:1], -whole[len(right):])))
        rows = fits[len(right):][::-1] + [s[:n] for s, n in zip(series, size)] \
            + fits[:len(right)]
        sizes = np.array([len(s) for s in rows])
        padded = np.array([np.pad(s, (0, sizes.max() - len(s))) for s in rows])
        self._cache = (first - len(left), padded, sizes,
                       np.concatenate((down[:0:-1], prefix, up[1:])))
        return self._cache

    def _derivative(self):
        return self.integrand


_MAX_POINTS = 257       # Chebyshev points per panel before QuadratureFailure
_MAX_PANELS = 100_000   # panels between r0 and a value before QuadratureFailure


def _cheb_coeffs(v):
    """Chebyshev coefficients of the interpolants of the rows of v, sampled
    at the n first-kind points cos(pi (j + 1/2) / n), j = 0..n-1: a DCT-II,
    one FFT of each row's even extension."""
    n = v.shape[1]
    y = np.fft.fft(np.concatenate((v, v[:, ::-1]), axis=1), axis=1)[:, :n]
    c = y * (np.exp(-0.5j * np.pi * np.arange(n) / n) / n)
    c[:, 0] *= 0.5
    return c if np.iscomplexobj(v) else c.real


def _panel_series(f, a, b, tol):
    """For each panel [a[i], b[i]], the Chebyshev series in x in [-1, 1] of
    the integral of f from a[i], in units of half the panel width.

    f is sampled at n = 17, 33, ..., _MAX_POINTS first-kind Chebyshev points
    of every panel not yet resolved, one call of f per n. A panel is resolved
    at the first n whose last four coefficients sum to at most
    max(tol, 1e-14 * the largest) (Aurentz & Trefethen 2017, "Chopping a
    Chebyshev series"); its series is then integrated exactly. Each row is
    transformed on its own, so a panel's series does not depend on the other
    panels. Raises QuadratureFailure when a panel is unresolved at
    _MAX_POINTS.
    """
    fits = [None] * len(a)
    todo = np.arange(len(a))
    n = 17
    while len(todo) and n <= _MAX_POINTS:
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        lo, hi = a[todo, None], b[todo, None]
        c = _cheb_coeffs(f(0.5 * (lo + hi) + 0.5 * (hi - lo) * x))
        mag = np.abs(c)
        done = mag[:, -4:].sum(axis=1) <= np.maximum(tol, 1e-14 * mag.max(axis=1))
        for j, s in zip(todo[done], chebyshev.chebint(c[done], lbnd=-1, axis=1)):
            fits[j] = s
        todo = todo[~done]
        n = 2 * n - 1
    if len(todo):
        raise QuadratureFailure(
            f"no Chebyshev series of {_MAX_POINTS} points resolves the integrand "
            f"on [{a[todo[0]]}, {b[todo[0]]}]")
    return fits


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
    from scipy import sparse
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

    def deriv_matrix(self, m, order=STENCIL_ORDER):
        """Sparse differentiation matrix of the given order for derivative m."""
        return stencil_operator(self.n, self.dr, self.periodic, m, order)


class Sampled(Profile):
    """Profile backed by values on the nodes of a uniform `Mesh`.

    Jets are only available at mesh nodes and are computed with
    finite-difference stencils of order `STENCIL_ORDER`: centered where the
    window fits, shifted (one-sided) near interval ends, periodic wrap on a
    circle, on a mesh of at least `MIN_NODES` nodes. Each derivative is one
    product with a shared `Mesh.deriv_matrix`.
    """

    __slots__ = ("values", "mesh")

    def __init__(self, domain, values):
        if domain is None:
            raise InvalidGeometry("a Sampled profile needs an explicit domain")
        super().__init__(domain)
        self.values = np.asarray(values)
        if len(self.values) < MIN_NODES:
            raise InvalidGeometry(f"mesh smaller than MIN_NODES = {MIN_NODES}")
        self.mesh = Mesh.from_domain(domain, len(self.values))

    n = property(lambda self: self.mesh.n)
    dr = property(lambda self: self.mesh.dr)
    nodes = property(lambda self: self.mesh.nodes)

    def _jet_terms(self):
        # direct m-th derivative stencils, not repeated first-derivative ones
        return [self] + [Sampled(self.domain, self.mesh.deriv_matrix(m) @ self.values)
                         for m in range(1, JET_ORDER + 1)]

    def _eval(self, r, memo):
        return self.values[self.mesh.index(r)]

    def derivative(self):
        # one stencil product, not kept: a grid's jet uses the direct stencils
        return Sampled(self.domain, self.mesh.deriv_matrix(1) @ self.values)


def sample_points(domain, members, n):
    """n interior evaluation points for profiles on `domain`; when one of
    `members` is grid-backed, every (nodes // n)-th node of the first such one."""
    for p in members:
        if isinstance(p, Sampled):
            return p.nodes[:: max(1, len(p.nodes) // n)]
    return domain.sample_points(n, interior=True)


# ---------------------------------------------------------------------------
# smart constructors and the public operation set
# ---------------------------------------------------------------------------

constant, coordinate = Constant, Coordinate
sin, cos, exp, arctan = Sin, Cos, Exp, Arctan


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


def conj(a):
    a = as_profile(a)
    if _is_const(a):
        return Constant(np.conjugate(a.c), a.domain)
    return Conj(a)


antiderivative = Antiderivative


def intern(terms):
    """The terms with each set of structurally equal subtrees made one node
    (hash-consing; Filliatre & Conchon 2006), for templates built once and
    evaluated often. A node's key is its class, its interned children and a
    Pow's exponent; a leaf's is its name and order, a constant's the type
    and repr of its value and its domain, so -0.0, 0.0 and 0j stay apart.
    Any other node is its own key."""
    table = {}

    @functools.cache   # a profile hashes by identity: each node is visited once
    def visit(p):
        kids = tuple(getattr(p, k) for k in ("a", "b") if hasattr(p, k))   # operands
        new = tuple(map(visit, kids)) + ((p.n,) if isinstance(p, Pow) else ())
        key = ((Leaf, p.name, p.order) if isinstance(p, Leaf)
               else (Constant, type(p.c), repr(p.c), p.domain) if isinstance(p, Constant)
               else (type(p), *new) if kids else p)   # children compare by identity
        if key not in table:
            table[key] = p if new[:len(kids)] == kids else type(p)(*new)
        return table[key]

    return [visit(p) for p in terms]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header, columns):
    """Columns as full-precision rows under a header, with CRLF line ends.

    Header names are written as given, unquoted. Rows are zipped from one
    float list per column rather than built as one list per row: lists are
    tracked by the cyclic garbage collector, and a collection that meets
    hundreds of live row lists moves them to the oldest generation, whose
    pending count then sets off a full collection of the whole heap every
    few dozen written files.
    """
    data = np.column_stack(columns).astype(float)
    fmt = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)] + [fmt % row for row in zip(*data.T.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")

