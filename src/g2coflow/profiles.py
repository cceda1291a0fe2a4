"""Scalar functions of the coordinate r with derivative jets up to order 4.

Two interchangeable backends share one algebra. Closed-form expression trees
(constants, r, arithmetic, sin/cos/exp/arctan, integer powers, antiderivatives
by quadrature) produce jets exact to rounding. Uniformly sampled grids produce
jets through finite-difference stencils of configurable order, centered in the
interior and one-sided at interval ends; the stencils are built once per mesh
as cached sparse matrices (`stencil_operator`), which the coflow mesh shares.

Profiles are immutable after construction; every operation returns a new
object, so they are safe to share between threads.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
from scipy import sparse

from .errors import DomainError, InvalidGeometry, QuadratureFailure, SingularEval

JET_ORDER = 4

_BINOM = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))


def _require_finite(components):
    for c in components:
        if not np.all(np.isfinite(c)):
            raise SingularEval("non-finite value in evaluation")


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def _lift(x):
    return (x, 0.0, 0.0, 0.0, 0.0)


def _add_c(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub_c(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mul_c(a, b):
    return tuple(
        sum(_BINOM[n][k] * a[k] * b[n - k] for k in range(n + 1))
        for n in range(JET_ORDER + 1)
    )


def _div_c(a, b):
    # solve a = c*b order by order
    c = []
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            for n in range(JET_ORDER + 1):
                acc = a[n]
                for k in range(n):
                    acc = acc - _BINOM[n][k] * c[k] * b[n - k]
                c.append(acc / b[0])
    except ZeroDivisionError:
        raise SingularEval("division by zero") from None
    _require_finite(c)
    return tuple(c)


def _pow_c(a, n):
    if n == 0:
        return _lift(1.0)
    if n < 0:
        return _div_c(_lift(1.0), _pow_c(a, -n))
    out = a
    for _ in range(n - 1):
        out = _mul_c(out, a)
    return out


def _compose_c(outer, a):
    """Chain rule through order 4: outer = (f, f', f'', f''', f'''') at a[0]."""
    s0, s1, s2, s3, s4 = outer
    a1, a2, a3, a4 = a[1], a[2], a[3], a[4]
    return (
        s0,
        s1 * a1,
        s1 * a2 + s2 * a1 * a1,
        s1 * a3 + 3 * s2 * a1 * a2 + s3 * a1 * a1 * a1,
        s1 * a4 + s2 * (4 * a1 * a3 + 3 * a2 * a2) + 6 * s3 * a1 * a1 * a2 + s4 * a1 ** 4,
    )


def _sin_outer(x):
    s, c = np.sin(x), np.cos(x)
    return (s, c, -s, -c, s)


def _cos_outer(x):
    s, c = np.sin(x), np.cos(x)
    return (c, -s, -c, s, c)


def _exp_outer(x):
    e = np.exp(x)
    return (e, e, e, e, e)


def _arctan_outer(x):
    d = 1.0 + x * x
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            s1 = 1.0 / d
    except ZeroDivisionError:
        raise SingularEval("arctan derivative pole") from None
    _require_finite((s1,))
    s2 = -2.0 * x * s1 * s1
    s3 = (6.0 * x * x - 2.0) * s1 * s1 * s1
    s4 = (24.0 * x - 24.0 * x ** 3) * s1 ** 4
    return (np.arctan(x), s1, s2, s3, s4)


class Jet:
    """Value and first four derivatives of a scalar function at a point.

    A container for what `Profile.jet` returns: ``c`` holds the
    components (value, d1, ..., d4), each a real or complex scalar or a
    numpy array of either. Profiles do their jet arithmetic on component
    tuples (`_mul_c`, `_compose_c`, ...), not on Jet objects.
    """

    __slots__ = ("c",)

    def __init__(self, value, derivs):
        derivs = tuple(derivs)
        if len(derivs) != JET_ORDER:
            raise ValueError(f"expected {JET_ORDER} derivatives, got {len(derivs)}")
        self.c = (value,) + derivs

    @property
    def value(self):
        return self.c[0]

    @property
    def derivs(self):
        return self.c[1:]

    @classmethod
    def from_components(cls, comps):
        return cls(comps[0], comps[1:])

    def __repr__(self):
        return f"Jet(value={self.c[0]!r}, derivs={self.c[1:]!r})"


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

class Circle:
    """Periodic domain of the given period, with origin r0."""

    __slots__ = ("period", "r0")

    def __init__(self, period, r0=0.0):
        if period <= 0:
            raise InvalidGeometry("period must be positive")
        self.period = float(period)
        self.r0 = float(r0)

    def contains(self, r):
        return np.full(np.shape(r), True) if np.ndim(r) else True

    def sample_points(self, n, interior=False):
        # a circle has no boundary; interior flag kept for API symmetry
        return self.r0 + self.period * (np.arange(n) + (0.5 if interior else 0.0)) / n

    @property
    def length(self):
        return self.period

    def __eq__(self, other):
        return (
            isinstance(other, Circle)
            and other.period == self.period
            and other.r0 == self.r0
        )

    def __hash__(self):
        return hash(("circle", self.period, self.r0))

    def __repr__(self):
        return f"Circle(period={self.period}, r0={self.r0})"

    def to_json(self):
        return {"kind": "circle", "period": self.period, "r0": self.r0}


class Interval:
    """Closed interval [r0, r1]."""

    __slots__ = ("r0", "r1")

    def __init__(self, r0, r1):
        if not r1 > r0:
            raise InvalidGeometry("need r1 > r0")
        self.r0 = float(r0)
        self.r1 = float(r1)

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

    def __eq__(self, other):
        return isinstance(other, Interval) and (other.r0, other.r1) == (self.r0, self.r1)

    def __hash__(self):
        return hash(("interval", self.r0, self.r1))

    def __repr__(self):
        return f"Interval({self.r0}, {self.r1})"

    def to_json(self):
        return {"kind": "interval", "r0": self.r0, "r1": self.r1}


def domain_from_json(obj):
    kind = obj.get("kind")
    if kind == "circle":
        return Circle(obj["period"], obj.get("r0", 0.0))
    if kind == "interval":
        return Interval(obj["r0"], obj["r1"])
    raise ValueError(f"unknown domain kind {kind!r}")


def _merge_domain(a, b):
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise ValueError(f"incompatible domains {a!r} and {b!r}")


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
        self._check_domain(r)
        comps = self._components(r, {})
        _require_finite(comps)
        return Jet.from_components(comps)

    def value(self, r):
        self._check_domain(r)
        v = self._value(r, {})
        _require_finite((v,))
        return v

    __call__ = value

    def _check_domain(self, r):
        if self.domain is not None and not np.all(self.domain.contains(r)):
            raise DomainError(f"coordinate {r!r} outside {self.domain!r}")

    # tree plumbing, overridden by nodes ------------------------------------
    def _components(self, r, memo):  # pragma: no cover - abstract
        raise NotImplementedError

    def _value(self, r, memo):  # pragma: no cover - abstract
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

    def _components(self, r, memo):
        shape = np.shape(r)
        v = np.full(shape, self.c) if shape else self.c
        z = np.zeros(shape) if shape else 0.0
        return (v, z, z, z, z)

    def _value(self, r, memo):
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

    def _components(self, r, memo):
        shape = np.shape(r)
        one = np.ones(shape) if shape else 1.0
        zero = np.zeros(shape) if shape else 0.0
        v = np.asarray(r, dtype=float) if shape else float(r)
        return (v, one, zero, zero, zero)

    def _value(self, r, memo):
        return np.asarray(r, dtype=float) if np.shape(r) else float(r)

    def derivative(self):
        return Constant(1.0, self.domain)

    def _json(self):
        return {"type": "coord"}


class _Binary(Profile):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        super().__init__(_merge_domain(a.domain, b.domain))
        self.a = a
        self.b = b

    def _memoized(self, r, memo):
        key = id(self)
        if key not in memo:
            memo[key] = self._compute(self.a._components(r, memo), self.b._components(r, memo))
        return memo[key]

    _components = _memoized

    def _value(self, r, memo):
        key = (id(self), "v")
        if key not in memo:
            memo[key] = self._compute_value(self.a._value(r, memo), self.b._value(r, memo))
        return memo[key]

    def _json(self):
        return {"type": self._tag, "args": [self.a._json(), self.b._json()]}


class Add(_Binary):
    __slots__ = ()
    _tag = "add"

    def _compute(self, a, b):
        return _add_c(a, b)

    def _compute_value(self, a, b):
        return a + b

    def derivative(self):
        return add(self.a.derivative(), self.b.derivative())


class Sub(_Binary):
    __slots__ = ()
    _tag = "sub"

    def _compute(self, a, b):
        return _sub_c(a, b)

    def _compute_value(self, a, b):
        return a - b

    def derivative(self):
        return sub(self.a.derivative(), self.b.derivative())


class Mul(_Binary):
    __slots__ = ()
    _tag = "mul"

    def _compute(self, a, b):
        return _mul_c(a, b)

    def _compute_value(self, a, b):
        return a * b

    def derivative(self):
        return add(mul(self.a.derivative(), self.b), mul(self.a, self.b.derivative()))


class Div(_Binary):
    __slots__ = ()
    _tag = "div"

    def _compute(self, a, b):
        return _div_c(a, b)

    def _compute_value(self, a, b):
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
    __slots__ = ("a",)

    def __init__(self, a):
        super().__init__(a.domain)
        self.a = a

    def _components(self, r, memo):
        key = id(self)
        if key not in memo:
            memo[key] = self._compute(self.a._components(r, memo))
        return memo[key]

    def _value(self, r, memo):
        key = (id(self), "v")
        if key not in memo:
            memo[key] = self._compute_value(self.a._value(r, memo))
        return memo[key]

    def _json(self):
        return {"type": self._tag, "args": [self.a._json()]}


class Sin(_Unary):
    __slots__ = ()
    _tag = "sin"

    def _compute(self, a):
        return _compose_c(_sin_outer(a[0]), a)

    def _compute_value(self, a):
        return np.sin(a)

    def derivative(self):
        return mul(cos(self.a), self.a.derivative())


class Cos(_Unary):
    __slots__ = ()
    _tag = "cos"

    def _compute(self, a):
        return _compose_c(_cos_outer(a[0]), a)

    def _compute_value(self, a):
        return np.cos(a)

    def derivative(self):
        return mul(constant(-1.0), mul(sin(self.a), self.a.derivative()))


class Exp(_Unary):
    __slots__ = ()
    _tag = "exp"

    def _compute(self, a):
        return _compose_c(_exp_outer(a[0]), a)

    def _compute_value(self, a):
        return np.exp(a)

    def derivative(self):
        return mul(exp(self.a), self.a.derivative())


class Arctan(_Unary):
    __slots__ = ()
    _tag = "arctan"

    def _compute(self, a):
        return _compose_c(_arctan_outer(a[0]), a)

    def _compute_value(self, a):
        return np.arctan(a)

    def derivative(self):
        one = constant(1.0)
        return div(self.a.derivative(), add(one, mul(self.a, self.a)))


class Conj(_Unary):
    """Complex conjugate; commutes with d/dr since r is real."""

    __slots__ = ()
    _tag = "conj"

    def _compute(self, a):
        return tuple(np.conjugate(x) for x in a)

    def _compute_value(self, a):
        return np.conjugate(a)

    def derivative(self):
        return conj(self.a.derivative())


class Pow(_Unary):
    """Integer power, exponent >= 2."""

    __slots__ = ("n",)
    _tag = "pow"

    def __init__(self, a, n):
        super().__init__(a)
        self.n = int(n)

    def _compute(self, a):
        return _pow_c(a, self.n)

    def _compute_value(self, a):
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

    def _integrals(self, r):
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

    def _value(self, r, memo):
        key = (id(self), "v")
        if key not in memo:
            memo[key] = self._integrals(r)
        return memo[key]

    def _components(self, r, memo):
        key = id(self)
        if key not in memo:
            g = self.integrand._components(r, memo)
            memo[key] = (self._value(r, memo), g[0], g[1], g[2], g[3])
        return memo[key]

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


class Sampled(Profile):
    """Profile backed by values on a uniform mesh.

    Jets are only available at mesh nodes and are computed with
    finite-difference stencils of the configured order: centered where the
    window fits, shifted (one-sided) near interval ends, periodic wrap on a
    circle. Each derivative is one product with a shared `stencil_operator`.
    """

    __slots__ = ("values", "order", "n", "dr", "_r0", "_periodic")

    def __init__(self, domain, values, order=4):
        if domain is None:
            raise ValueError("a Sampled profile needs an explicit domain")
        super().__init__(domain)
        self.values = np.asarray(values)
        self.n = len(self.values)
        if self.n < order + JET_ORDER:
            raise ValueError("mesh too small for the configured stencil order")
        self.order = int(order)
        self._periodic = isinstance(domain, Circle)
        if self._periodic:
            self.dr = domain.period / self.n
            self._r0 = domain.r0
        else:
            self.dr = (domain.r1 - domain.r0) / (self.n - 1)
            self._r0 = domain.r0

    @classmethod
    def from_function(cls, f, domain, n, order=4):
        nodes = mesh_nodes(domain, n)
        vals = f(nodes) if callable(f) and not isinstance(f, Profile) else f.value(nodes)
        return cls(domain, vals, order)

    @property
    def nodes(self):
        return self._r0 + self.dr * np.arange(self.n)

    def _node_index(self, r):
        """Mesh index of r, elementwise with the shape of r."""
        rs = np.asarray(r, dtype=float)
        t = (rs - self._r0) / self.dr
        idx = np.rint(t).astype(int)
        off = np.abs(t - idx) > 1e-8
        if np.any(off):
            raise DomainError(
                f"r={float(rs[off][0])!r} is not a mesh node of the sampled profile")
        if self._periodic:
            return idx % self.n
        outside = (idx < 0) | (idx >= self.n)
        if np.any(outside):
            raise DomainError(f"r={float(rs[outside][0])!r} outside the sampled mesh")
        return idx

    def _operator(self, m):
        return stencil_operator(self.n, self.dr, self._periodic, m, self.order)

    def _components(self, r, memo):
        key = id(self)
        if key not in memo:
            idx = self._node_index(r)
            memo[key] = (self.values[idx],) + tuple(
                (self._operator(m) @ self.values)[idx] for m in range(1, JET_ORDER + 1))
        return memo[key]

    def _value(self, r, memo):
        return self.values[self._node_index(r)]

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


def mesh_nodes(domain, n):
    """The n uniform mesh nodes a Sampled profile on this domain would use."""
    if isinstance(domain, Circle):
        return domain.r0 + domain.period * np.arange(n) / n
    return np.linspace(domain.r0, domain.r1, n)


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
        raise ValueError(f"unknown profile node type {t!r}")

    root = build(obj["root"])
    if root.domain is None:
        root.domain = domain
    return root


def sample_table(p, rs):
    """(len(rs), 6) array of r, value, d1..d4 for CSV export."""
    jet = p.jet(np.asarray(rs, dtype=float))
    cols = [np.asarray(rs, dtype=float)] + [np.real_if_close(np.asarray(c)) for c in jet.c]
    return np.column_stack(cols)


def write_sample_csv(p, rs, path):
    """Write the sample table of p to path with full double precision."""
    import csv

    table = sample_table(p, rs)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "value", "d1", "d2", "d3", "d4"])
        for row in table:
            w.writerow([f"{float(np.real(x)):.17g}" for x in row])
