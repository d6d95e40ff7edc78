"""Expression trees for analytic functions on the unit disk.

Functions are represented structurally (polynomials, Moebius maps, sums,
products, compositions, reciprocals, real powers) and expanded by one
Taylor rule per node, to any order: truncated power-series arithmetic
(Knuth, TAOCP vol. 2, 4.7).  The same rules give the derivatives at a
grid of points and the power series at 0.  Trees are immutable;
evaluation is vectorized over numpy arrays of points.  Families evaluate many
expressions at once, their derivatives stacked along a leading axis.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import operator

import numpy as np

from .errors import BranchError, ContourZero, DomainError, ParameterError

# Closed validation disk: construction checks sample the circle of this
# radius, evaluation only requires |z| < 1 strictly.
R_MAX = 1.0 - 1e-6

# Circle samples used by cheap construction-time checks.
_VALIDATION_SAMPLES = 256

# Moduli at most this fraction of the largest modulus on the same samples
# are treated as zeros: relative, since c·F has the zeros of F.
ZERO_THRESHOLD = 1e-9

# Families evaluate a 2-D grid in blocks of rows so that no stacked
# intermediate (one complex array over members x block) exceeds this;
# a block still holds at least one whole row, which reductions need.
BLOCK_BYTES = 1 << 20


def _checked_points(z, what: str = "evaluation point") -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    # The comparison fails for NaN and inf too; only then is finiteness tested.
    if arr.size and not np.max(np.abs(arr)) < 1.0:
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} is not finite")
        raise DomainError(f"{what} lies outside the open unit disk")
    return arr


def _require_finite(c: complex, what: str) -> complex:
    c = complex(c)
    if not (np.isfinite(c.real) and np.isfinite(c.imag)):
        raise ParameterError(f"{what} must have finite real and imaginary parts")
    return c


@dataclasses.dataclass(frozen=True)
class MoebiusMap:
    """The disk automorphism z ↦ lam·(a − z)/(1 − conj(a)·z).

    Requires |a| < 1 and |lam| = 1; every automorphism of the disk has
    this shape.  With lam = 1 the map is the standard involution that
    swaps 0 and a.
    """

    a: complex
    lam: complex = 1.0 + 0.0j

    def __post_init__(self):
        a = _require_finite(self.a, "Moebius parameter a")
        lam = _require_finite(self.lam, "Moebius parameter lam")
        if abs(a) >= 1.0:
            raise ParameterError(f"Moebius parameter a must satisfy |a| < 1, got |a| = {abs(a)}")
        if abs(abs(lam) - 1.0) > 1e-9:
            raise ParameterError(f"Moebius parameter lam must be unimodular, got |lam| = {abs(lam)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam / abs(lam))

    def __call__(self, z):
        return self.lam * (self.a - z) / (1.0 - np.conj(self.a) * z)


def moebius_inverse(m: MoebiusMap) -> MoebiusMap:
    """Inverse automorphism, again in (a, lam) form.

    Solving w = lam·(a − z)/(1 − conj(a)·z) for z gives parameters
    a' = lam·a and lam' = conj(lam).  In particular a map with lam = 1
    is its own inverse.
    """
    return MoebiusMap(m.lam * m.a, np.conj(m.lam))


def rotation_map(theta: float) -> MoebiusMap:
    """The rotation z ↦ e^{iθ}·z encoded as a MoebiusMap (a = 0, lam = −e^{iθ})."""
    return MoebiusMap(0.0, -np.exp(1j * theta))


def _sum(terms):
    # Adds in order into the first term, a fresh product: sum() would
    # start from 0, copy the first array and turn a -0.0 into 0.0.
    return functools.reduce(operator.iadd, terms)


def _coefficient(u: list, v: list, k: int):
    """Coefficient k of the product of the truncated series u and v, the largest index of u first."""
    hi, lo = min(k, len(u) - 1), max(0, k - len(v) + 1)
    return _sum(u[j] * v[k - j] for j in range(hi, lo - 1, -1))


class AnalyticExpr:
    """Base class of expression-tree nodes.

    Each subclass has one evaluator, _taylor(z, n) on a numpy array of
    points, which returns the Taylor coefficients [f, f', f''/2, ...,
    f^(n)/n!] about every point for any n >= 0 and computes none beyond
    order n; a coefficient does not depend on the order asked for.
    Public evaluation goes through derivatives, __call__ and series,
    which validate the points and convert scalars.
    Nodes carry no arithmetic operators: a tree is built from the node
    classes, as Add(f, Const(c)) or Mul(F, Compose(f, phi)).
    """

    def _taylor(self, z: np.ndarray, n: int) -> list:
        raise NotImplementedError

    def derivatives(self, z, n: int) -> list:
        """[f, f', ..., f^(n)] at z for n in {0, 1, 2}; z a complex scalar or array, |z| < 1."""
        if n not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {n!r}")
        arr = _checked_points(z)
        out = _derivatives_at(self, arr, n)
        return [complex(d) for d in out] if arr.ndim == 0 else out

    def jet(self, z) -> list:
        """derivatives(z, 2): only perfbench/tracer.py's patch point, until the tracer reads spans (ROADMAP)."""
        return self.derivatives(z, 2)

    def __call__(self, z):
        """Value at z; z a complex scalar or array, |z| < 1."""
        return self.derivatives(z, 0)[0]


# An overflow in a node rule leaves a non-finite value, which the point
# checks reject; numpy's warning about it would only reach stderr.  Each
# evaluation enters one such scope, here or in series, at about 1.5 µs.
@np.errstate(all="ignore")
def _derivatives_at(f: AnalyticExpr, z: np.ndarray, n: int) -> list:
    """[f, f', ..., f^(n)] at the checked points z, n <= 2: the Taylor coefficients times k!."""
    out = f._taylor(z, n)
    if n == 2:
        # In place: every rule returns a fresh array, and a grid-sized
        # result would be one more allocation per evaluation.
        out[2] *= 2.0
    return out


@np.errstate(all="ignore")
def series(f: AnalyticExpr, N: int) -> np.ndarray:
    """The first N Taylor coefficients of f at 0."""
    if N < 1:
        raise ParameterError(f"series length must be at least 1, got {N!r}")
    return np.array(f._taylor(np.zeros((), dtype=complex), N - 1), dtype=complex)


@dataclasses.dataclass(frozen=True)
class Const(AnalyticExpr):
    """Constant function."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "Const value"))

    def _taylor(self, z, n):
        return [np.full_like(z, self.value)] + [np.zeros_like(z) for _ in range(n)]


@dataclasses.dataclass(frozen=True)
class Poly(AnalyticExpr):
    """Polynomial c0 + c1 z + ... + cN z^N given by its coefficients."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_require_finite(c, "Poly coefficient") for c in self.coeffs)
        if not cs:
            raise ParameterError("Poly requires at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    def _taylor(self, z, n):
        # Horner's rule for the Taylor shift: after coefficient c, t[k] is
        # coefficient k about z of the polynomial read so far.  No array
        # outlives its first update: one kept alive through the loop slows
        # every product on a large grid by about a third.
        t = [np.zeros_like(z) for _ in range(n + 1)]
        for c in reversed(self.coeffs):
            for k in range(n, 0, -1):
                t[k] = t[k] * z + t[k - 1]
            t[0] = t[0] * z + c
        return t


@dataclasses.dataclass(frozen=True)
class Moebius(AnalyticExpr):
    """A MoebiusMap wrapped as an expression node."""

    map: MoebiusMap

    def _taylor(self, z, n):
        out = [self.map(z)]
        if n:
            # A geometric series: c_1 = lam (|a|^2 - 1) q^2 and c_(k+1) = conj(a) c_k q,
            # q = 1 / (1 - conj(a) z); one complex division for all of them.
            a = self.map.a
            q = 1.0 / (1.0 - np.conj(a) * z)
            out.append(self.map.lam * (abs(a) ** 2 - 1.0) * q * q)
            for _ in range(1, n):
                out.append(np.conj(a) * out[-1] * q)
        return out


@dataclasses.dataclass(frozen=True)
class Add(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr

    def _taylor(self, z, n):
        # Terms popped off their lists are temporaries, which numpy sums
        # in place instead of allocating a grid-sized result.
        u, v = self.left._taylor(z, n), self.right._taylor(z, n)
        return [u.pop(0) + v.pop(0) for _ in range(n + 1)]


@dataclasses.dataclass(frozen=True)
class Mul(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr

    def _taylor(self, z, n):
        # The truncated product of the two series.  The values go last,
        # popped, so that numpy multiplies them in place as in Add.
        u, v = self.left._taylor(z, n), self.right._taylor(z, n)
        out = [_coefficient(u, v, k) for k in range(1, n + 1)]
        return [u.pop(0) * v.pop(0)] + out


@dataclasses.dataclass(frozen=True)
class Compose(AnalyticExpr):
    """outer∘inner; the inner function must map the disk into itself."""

    outer: AnalyticExpr
    inner: AnalyticExpr

    def __post_init__(self):
        validation_values(self.inner, "composition inner function is not a disk self-map", 1.0)

    def _taylor(self, z, n):
        # The outer series about the inner values, summed by Horner's rule
        # in powers of inner - inner(z), whose series is v[1:].  Step k
        # keeps the orders up to n - k, all that k more products can use.
        v = self.inner._taylor(z, n)
        u = self.outer._taylor(_checked_points(v[0], "composition inner value"), n)
        out = [u[n]]
        for k in range(n - 1, -1, -1):
            out = [u[k]] + [_coefficient(out, v[1:], i) for i in range(n - k)]
        return out


@dataclasses.dataclass(frozen=True)
class Recip(AnalyticExpr):
    """1/inner for inner non-vanishing on the closed grid disk.

    Construction samples the circle of radius R_MAX: the winding number
    there must be 0 (no zeros inside, by the argument principle) and the
    minimum modulus must clear the zero threshold times the maximum.
    """

    inner: AnalyticExpr

    def __post_init__(self):
        _check_nonvanishing(self.inner, "Recip")

    def _taylor(self, z, n):
        v = self.inner._taylor(z, n)
        if not np.all(v[0]):
            raise DomainError("reciprocal evaluated at a zero of the inner function")
        inv = 1.0 / v[0]
        out = [inv]
        # c_k = -(v_k c_0 + ... + v_1 c_(k-1)) / v_0.  Each product pairs a
        # v_j with a c_i, which carries one factor of inv, so no intermediate
        # overflows or underflows where the coefficient itself fits.
        for k in range(1, n + 1):
            out.append(-_coefficient(v[1:], out, k - 1) * inv)
        return out


@dataclasses.dataclass(frozen=True)
class Pow(AnalyticExpr):
    """inner^exponent on the principal branch.

    Valid when inner has no zeros on the closed grid disk and winding
    number 0 around the origin, so a continuous logarithm exists.
    Construction checks both as Recip does.
    """

    inner: AnalyticExpr
    exponent: float

    def __post_init__(self):
        e = float(self.exponent)
        if not np.isfinite(e):
            raise ParameterError("Pow exponent must be finite")
        object.__setattr__(self, "exponent", e)
        _check_nonvanishing(self.inner, "Pow")

    def _taylor(self, z, n):
        v = self.inner._taylor(z, n)
        u = np.asarray(v[0])
        if np.any((u.real <= 0.0) & (u.imag == 0.0)):
            raise BranchError("Pow encountered a value on the branch cut (−∞, 0]")
        alpha = self.exponent
        # |u|^alpha e^(i alpha arg u) from real kernels: numpy's complex log
        # and exp cost several times more, most of all near |u| = 1.
        modulus = np.abs(u) ** alpha
        angle = alpha * np.arctan2(u.imag, u.real)
        f = np.empty_like(u)
        f.real = modulus * np.cos(angle)
        f.imag = modulus * np.sin(angle)
        out = [f]
        # Miller's recurrence k c_k = sum over j of ((alpha + 1) j - k) v_j c_(k-j) / v_0,
        # with each c_i / v_0 formed once: c_1 = alpha (f / u) v_1.
        ratios = []
        for k in range(1, n + 1):
            ratios.append(out[-1] / u)
            out.append(_sum((alpha * j - (k - j)) / k * ratios[k - j] * v[j] for j in range(k, 0, -1)))
        return out


class Family:
    """Expressions evaluated together, their values stacked on a leading axis.

    Member k's derivative of order 0, 1 or 2 comes out at index k.  The
    points are shared by every member, or given row by row with the
    member of each row (derivative_at).  Indexing and iteration give the
    members as expression trees, the reference that family evaluation
    must match.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, k: int) -> AnalyticExpr:
        raise NotImplementedError

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def _evaluate(self, z: np.ndarray, orders: tuple, members=None) -> list:
        """Stacked derivatives of the given orders at z.

        Without members, z of shape (1, n) holds points shared by every
        member.  With an integer array members, z has one row per entry
        and row i holds the points of member members[i].
        """
        raise NotImplementedError

    def _height(self, order: int) -> int:
        """Rows of the tallest stacked array one evaluation of this order holds, per point."""
        raise NotImplementedError

    def _shared(self, z, orders: tuple) -> list:
        """Stacked derivatives of the given orders at the shared points z, each of shape (len(self),) + z.shape."""
        z = np.asarray(z, dtype=complex)
        shape = (len(self),) + z.shape
        return [d.reshape(shape) for d in self._evaluate(z.reshape(1, -1), orders)]

    def derivative(self, z, order: int) -> np.ndarray:
        """Derivative of the given order of every member at the shared points z."""
        return self._shared(z, (order,))[0]

    def derivative_at(self, z, order: int, members) -> np.ndarray:
        """Derivative of the given order of member members[i] at the points z[i]."""
        z = np.asarray(z, dtype=complex)
        return self._evaluate(z.reshape(len(z), -1), (order,), np.asarray(members))[0].reshape(z.shape)

    def row_blocks(self, z: np.ndarray, order: int) -> list:
        """Row slices of the 2-D grid z that keep a stacked array of the order under BLOCK_BYTES."""
        n_rows, n_cols = z.shape
        step = max(1, BLOCK_BYTES // (max(1, self._height(order)) * n_cols * 16))
        return [slice(i, i + step) for i in range(0, n_rows, step)]

    def rowwise(self, z, order: int, reduce) -> np.ndarray:
        """reduce(values, rows) over the row blocks of the 2-D grid z, joined on axis 1.

        values holds the members' derivatives of the given order at z[rows];
        reduce returns an array of shape (len(self), number of rows, ...).
        """
        z = np.asarray(z, dtype=complex)
        blocks = self.row_blocks(z, order)
        if len(blocks) == 1:
            return reduce(self.derivative(z, order), blocks[0])
        out = None
        for rows in blocks:
            part = reduce(self.derivative(z[rows], order), rows)
            if out is None:
                out = np.empty((part.shape[0], z.shape[0]) + part.shape[2:], dtype=part.dtype)
            out[:, rows] = part
        return out


def _stacked(arrays: list) -> np.ndarray:
    # A single member keeps its own array, viewed with a leading axis.
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _node_count(f: AnalyticExpr) -> int:
    return 1 + sum(_node_count(v) for v in vars(f).values() if isinstance(v, AnalyticExpr))


class TreeFamily(Family):
    """Any expressions, each evaluated by its own derivatives up to the highest order asked."""

    def __init__(self, members):
        self.members = tuple(members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, k):
        return self.members[k]

    def _height(self, order):
        # Each node of a tree holds its derivatives up to the order asked.
        return max(len(self), max((_node_count(f) for f in self.members), default=0) * (order + 1))

    def _evaluate(self, z, orders, members=None):
        if members is None:
            derivs = [f.derivatives(z[0], max(orders)) for f in self.members]
            return [_stacked([d[order] for d in derivs]) for order in orders]
        # Each distinct member is walked once, over all of its rows.
        out = [np.empty(z.shape, dtype=complex) for _ in orders]
        for k in dict.fromkeys(members.tolist()):
            rows = members == k
            derivs = self.members[k].derivatives(z[rows], max(orders))
            for o, order in zip(out, orders):
                o[rows] = derivs[order]
        return out


class PolyFamily(Family):
    """Polynomials f whose coefficients are stacked as a matrix, or their images F * (f o phi).

    F and phi are None for the polynomials themselves; image_family sets
    them, and with phi None the images are F * f, with F None f o phi.
    Every member's derivative of order d at shared points comes from one
    power table, of the points or of their phi values, and one matrix
    product.  The product and chain rules give it as factors times the
    polynomials' derivatives of orders 0 .. d: each order stacks the
    table rows of each term, scaled by its factor, against the
    coefficient matrices of those orders placed side by side.  A factor
    zero at every point, such as F' of a constant F, drops its term.
    F and phi are evaluated once per call, up to the order asked, phi
    with the disk check that Compose makes.
    """

    def __init__(self, polys):
        self.polys = tuple(polys)
        self.F = self.phi = None
        width = max(len(p.coeffs) for p in self.polys)
        coeffs = np.zeros((len(self.polys), width), dtype=complex)
        for k, p in enumerate(self.polys):
            coeffs[k, : len(p.coeffs)] = p.coeffs
        n = np.arange(width)
        # Coefficients of f, f' and f'' against z^0, z^1, ...
        self._matrices = (coeffs, coeffs[:, 1:] * n[1:], coeffs[:, 2:] * (n[2:] * (n[2:] - 1)))
        # Side-by-side matrices by the tuple of their orders, built on first use.
        self._joined = {}
        self._width = width

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, k):
        return _image(self.F, self.phi, self.polys[k])

    def _rows(self, k: int) -> int:
        # Powers z^0 .. z^(width-k-1) meet the coefficients of the k-th derivatives.
        return max(self._width - k, 0)

    def _height(self, order):
        # Only a missing F or phi makes a factor zero for sure.
        F = [1, 0, 0] if self.F is None else [1, 1, 1]
        d = [1, 1, 0] if self.phi is None else [1, 1, 1]
        rows = sum(self._rows(k) for k, _ in _chain_terms(F, d, order))
        return max(len(self), self._width, rows)

    def _evaluate(self, z, orders, members=None):
        z = _checked_points(z)
        top = max(orders)
        d = [z, 1, 0] if self.phi is None else _derivatives_at(self.phi, z, top)
        F = [1, 0, 0] if self.F is None else _derivatives_at(self.F, z, top)
        base = z if self.phi is None else _checked_points(d[0], "composition inner value")
        powers = np.empty((self._width,) + base.shape, dtype=complex)
        powers[0] = 1.0
        for j in range(1, self._width):
            np.multiply(powers[j - 1], base, out=powers[j])
        out = []
        for order in orders:
            terms = _chain_terms(F, d, order)
            # A scalar factor is the 1 of a missing F or phi.
            if len(terms) == 1 and not isinstance(terms[0][1], np.ndarray):
                table = powers[: self._rows(terms[0][0])]
            else:
                # Factor first: numpy's complex multiply is not bitwise
                # commutative, and a one-term order keeps factor * powers.
                table = np.empty((sum(self._rows(k) for k, _ in terms),) + z.shape, dtype=complex)
                start = 0
                for k, g in terms:
                    rows = self._rows(k)
                    np.multiply(g, powers[:rows], out=table[start : start + rows])
                    start += rows
            js = tuple(k for k, _ in terms)
            if js not in self._joined:
                self._joined[js] = np.concatenate([self._matrices[0][:, :0]] + [self._matrices[k] for k in js], axis=1)
            matrix = self._joined[js]
            out.append(matrix @ table[:, 0] if members is None else np.einsum("kd,dkn->kn", matrix[members], table))
        return out


def _chain_terms(F: list, d: list, order: int) -> list:
    """Pairs (k, factor): the derivative of this order of F * (g o phi) sums factor * g^(k) o phi.

    Factors zero at every point are left out; the scalars that stand for the
    derivatives of a missing F or phi are tested without numpy, slow on them.
    """
    if order == 0:
        factors = [F[0]]
    elif order == 1:
        factors = [F[1], F[0] * d[1]]
    elif order == 2:
        factors = [F[2], 2.0 * F[1] * d[1] + F[0] * d[2], F[0] * d[1] * d[1]]
    else:
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {order!r}")
    return [(k, g) for k, g in enumerate(factors) if (g.any() if isinstance(g, np.ndarray) else g)]


def _image(F: AnalyticExpr | None, phi: AnalyticExpr | None, f: AnalyticExpr) -> AnalyticExpr:
    # F * (f o phi) as an expression tree, without the factors that are None
    if phi is not None:
        f = Compose(f, phi)
    return f if F is None else Mul(F, f)


def image_family(F: AnalyticExpr | None, phi: AnalyticExpr | None, base: Family) -> Family:
    """The images F * (f o phi) of a family's members.

    A None F or phi drops that factor: the images are then f o phi or
    F * f.  Images of a PolyFamily are a shallow copy of it with F and
    phi set, which shares its coefficient matrices and their side-by-side
    cache.  Images of images F0 * (f o phi0) fold into one level, with
    weight F * (F0 o phi) and map phi0 o phi.  Images of any other family
    are expression trees, each evaluated by its own derivatives.
    """
    if not isinstance(base, PolyFamily):
        return TreeFamily(_image(F, phi, f) for f in base)
    images = copy.copy(base)
    images.F = F if base.F is None else _image(F, phi, base.F)
    images.phi = phi if base.phi is None else _image(None, phi, base.phi)
    return images


def as_family(obj) -> Family:
    """obj as a Family: one expression is a one-member family.

    A sequence of polynomials becomes a PolyFamily, any other sequence a
    TreeFamily; a Family is returned as it is.
    """
    if isinstance(obj, Family):
        return obj
    if isinstance(obj, AnalyticExpr):
        return TreeFamily((obj,))
    members = tuple(obj)
    if members and all(type(f) is Poly for f in members):
        return PolyFamily(members)
    return TreeFamily(members)


@functools.lru_cache(maxsize=32)
def unit_circle(n: int) -> np.ndarray:
    """n equispaced points on the unit circle, starting at 1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def validation_values(f: AnalyticExpr, what: str, bound: float = np.inf) -> np.ndarray:
    """f on the circle |z| = R_MAX; DomainError unless every modulus is below bound, which NaN is not."""
    vals = _derivatives_at(f, R_MAX * unit_circle(_VALIDATION_SAMPLES), 0)[0]
    worst = float(np.max(np.abs(vals)))
    if not worst < bound:
        raise DomainError(f"{what} on the validation circle (max modulus {worst})")
    return vals


def winding_number(f: AnalyticExpr, r: float, n: int = _VALIDATION_SAMPLES) -> int:
    """Winding number of f along |z| = r, sampled at n angles, by phase unwrapping.

    By the argument principle this counts zeros of f inside the circle.
    Raises ContourZero when a sample is not finite or the modulus dips to
    the zero threshold times its largest sample, where the phase is
    unreliable; the count of c·f is that of f for every c != 0.
    """
    if not 0.0 < r <= R_MAX:
        raise ParameterError(f"contour radius must lie in (0, {R_MAX}]")
    vals = f(r * unit_circle(n))
    modulus = np.abs(vals)
    low, high = float(np.min(modulus)), float(np.max(modulus))
    # The comparison fails for NaN and inf, which give no phase either.
    if not high < np.inf:
        raise ContourZero(f"function is not finite on the circle of radius {r}")
    if not low > ZERO_THRESHOLD * high:
        raise ContourZero(f"function modulus below {ZERO_THRESHOLD} of its maximum on the circle of radius {r}")
    phases = np.angle(vals)
    jumps = np.diff(np.concatenate([phases, phases[:1]]))
    jumps = (jumps + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.round(jumps.sum() / (2.0 * np.pi)))


def _check_nonvanishing(inner: AnalyticExpr, node_name: str) -> None:
    try:
        w = winding_number(inner, R_MAX)
    except ContourZero as exc:
        raise DomainError(f"{node_name} inner {exc}") from exc
    if w != 0:
        raise DomainError(f"{node_name} inner function has winding number {w} on the validation circle, expected 0")
