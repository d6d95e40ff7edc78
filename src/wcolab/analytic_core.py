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

import cmath
import copy
import ctypes
import dataclasses
import functools

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


def _keep_freed_heap() -> bool:
    # glibc serves requests above M_MMAP_THRESHOLD (-3) from new mappings
    # and returns the freed top of the heap above M_TRIM_THRESHOLD (-1) to
    # the system.  Both start at 128 KB and rise only once a larger mapping
    # is freed, so the few MB of buffers that each grid sweep frees when it
    # ends went back to the system and were faulted in again by the next
    # sweep: 12,000 minor faults in one bloch:1 axiom suite.  Fixed
    # thresholds keep such buffers in the heap.  Another C library, or none
    # found, is left as it is.  Returns whether the thresholds were set.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt(-3, 32 << 20)
    mallopt(-1, 64 << 20)
    return True


_HEAP_KEPT = _keep_freed_heap()


def _checked_points(z, what: str = "evaluation point") -> np.ndarray:
    arr = np.asarray(z, dtype=complex)
    # The comparison fails for NaN and inf too; only then is finiteness tested.
    if arr.size and not np.max(np.abs(arr)) < 1.0:
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{what} is not finite")
        raise DomainError(f"{what} lies outside the open unit disk")
    return arr


def _checked_circles(radii, circle) -> None:
    # |r e^(it)| and its rounded parts grow with |r|: the outermost circle holds each column's largest modulus.
    _checked_points(np.max(np.abs(radii)) * circle)


def _require_finite(c: complex, what: str) -> complex:
    c = complex(c)
    if not cmath.isfinite(c):
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


def moebius_from_jet(p0: complex, dp0: complex) -> MoebiusMap | None:
    """The only automorphism with value p0 and derivative dp0 at 0, or None.

    phi(0) = lam a and phi'(0) = lam (|a|^2 - 1) (Schwarz-Pick; Conway,
    Functions of One Complex Variable, VI.2), so the unimodular lam is the
    direction of -phi'(0) and a = conj(lam) phi(0).  A p0 off the disk, or
    a dp0 that leaves |lam| below 1e-12 (c z^2), has none.
    """
    if abs(p0) >= 1.0 or abs(dp0) < 1e-12 * (1.0 - abs(p0) ** 2):
        return None
    lam = -dp0 / abs(dp0) + 0j  # + 0j turns a signed zero -0.0 in lam into 0.0
    return MoebiusMap(lam.conjugate() * p0, lam)


def rotation_map(theta: float) -> MoebiusMap:
    """The rotation z ↦ e^{iθ}·z encoded as a MoebiusMap (a = 0, lam = −e^{iθ})."""
    return MoebiusMap(0.0, -np.exp(1j * theta))


def _product(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows 0 .. n of the series u v into out, which may be u: u[j] times v goes into rows j .. n, j from n down."""
    n = len(out) - 1
    for j in range(n, -1, -1):
        if j < n:
            out[j + 1 :] += u[j] * v[1 : n + 1 - j]
        np.multiply(u[j], v[0], out=out[j, ...])
    return out


class AnalyticExpr:
    """Base class of expression-tree nodes.

    Each subclass has one evaluator, _taylor(z, n) on a numpy array of
    points, which returns a fresh array of shape (n + 1,) + z.shape whose
    row k is f^(k)/k! about every point, for any n >= 0, computing no
    order beyond n; a coefficient does not depend on the order asked for.
    Public evaluation goes through derivatives, __call__ and series,
    which validate the points and convert scalars.
    Nodes carry no arithmetic operators: a tree is built from the node
    classes, as Add(f, Const(c)) or Mul(F, Compose(f, phi)).
    """

    def _taylor(self, z: np.ndarray, n: int) -> np.ndarray:
        raise NotImplementedError

    def derivatives(self, z, n: int) -> list:
        """[f, f', ..., f^(n)] at z for n in {0, 1, 2}; z a complex scalar or array, |z| < 1."""
        arr = _checked_points(z)
        out = _derivatives_at(self, arr, n)
        return [complex(d) for d in out] if arr.ndim == 0 else list(out)

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
def _derivatives_at(f: AnalyticExpr, z: np.ndarray, n: int) -> np.ndarray:
    """Rows f, f', ..., f^(n) at the checked points z, n in {0, 1, 2}: the Taylor coefficients times k!."""
    if n not in (0, 1, 2):
        raise ParameterError(f"derivative order must be 0, 1 or 2, got {n!r}")
    out = f._taylor(z, n)
    if n == 2:
        out[2] *= 2.0
    return out


@np.errstate(all="ignore")
def series(f: AnalyticExpr, N: int) -> np.ndarray:
    """The first N Taylor coefficients of f at 0; N an integer, not a bool or a float."""
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ParameterError(f"series length must be an integer of at least 1, got {N!r}")
    return f._taylor(np.zeros((), dtype=complex), N - 1)


@dataclasses.dataclass(frozen=True)
class Const(AnalyticExpr):
    """Constant function."""

    value: complex

    def __post_init__(self):
        object.__setattr__(self, "value", _require_finite(self.value, "Const value"))

    def _taylor(self, z, n):
        out = np.zeros((n + 1,) + z.shape, dtype=complex)
        out[0] = self.value
        return out


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
        # Horner's rule for the Taylor shift, in place through row views: after
        # coefficient c, row k is coefficient k about z of the polynomial so far.
        t = np.zeros((n + 1,) + z.shape, dtype=complex)
        rows = [t[k, ...] for k in range(min(n, len(self.coeffs) - 1) + 1)]
        for c in reversed(self.coeffs):
            for k in range(len(rows) - 1, 0, -1):
                rows[k] *= z
                rows[k] += rows[k - 1]
            rows[0] *= z
            rows[0] += c
        return t


@dataclasses.dataclass(frozen=True)
class Moebius(AnalyticExpr):
    """A MoebiusMap wrapped as an expression node."""

    map: MoebiusMap

    def _taylor(self, z, n):
        out = np.empty((n + 1,) + z.shape, dtype=complex)
        out[0] = self.map(z)
        if n:
            # A geometric series: c_1 = lam (|a|^2 - 1) q^2 and c_(k+1) = conj(a) c_k q,
            # q = 1 / (1 - conj(a) z); one complex division for all of them.
            a = self.map.a
            q = 1.0 / (1.0 - np.conj(a) * z)
            out[1] = self.map.lam * (abs(a) ** 2 - 1.0) * q * q
            for k in range(1, n):
                out[k + 1] = np.conj(a) * out[k] * q
        return out


@dataclasses.dataclass(frozen=True)
class Add(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr

    def _taylor(self, z, n):
        out = self.left._taylor(z, n)
        out += self.right._taylor(z, n)
        return out


@dataclasses.dataclass(frozen=True)
class Mul(AnalyticExpr):
    left: AnalyticExpr
    right: AnalyticExpr

    def _taylor(self, z, n):
        u = self.left._taylor(z, n)
        return _product(u, self.right._taylor(z, n), u)


@dataclasses.dataclass(frozen=True)
class Compose(AnalyticExpr):
    """outer∘inner; the inner function must map the disk into itself."""

    outer: AnalyticExpr
    inner: AnalyticExpr

    def __post_init__(self):
        validation_values(self.inner, "composition inner function is not a disk self-map", 1.0)

    def _taylor(self, z, n):
        # The outer series about the inner values, summed by Horner's rule in
        # powers of inner - inner(z), whose series is v[1:], from the outer's last
        # nonzero row: after step k, rows k .. n of u hold the sum to order n - k.
        v = self.inner._taylor(z, n)
        u = self.outer._taylor(_checked_points(v[0], "composition inner value"), n)
        top = n
        while top and not u[top].any():
            top -= 1
        for k in range(top - 1, -1, -1):
            _product(u[k + 1 :], v[1:], u[k + 1 :])
        return u


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
        out = np.empty_like(v)
        np.divide(1.0, v[0], out=out[0, ...])
        # c_k = -(v_k c_0 + ... + v_1 c_(k-1)) / v_0.  Each product pairs a
        # v_j with a c_i, which carries one factor of 1 / v_0, so no
        # intermediate overflows or underflows where the coefficient fits.
        for k in range(1, n + 1):
            np.multiply(np.add.reduce(v[k:0:-1] * out[:k], axis=0), -out[0], out=out[k, ...])
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
        u = v[0, ...]
        if np.any((u.real <= 0.0) & (u.imag == 0.0)):
            raise BranchError("Pow encountered a value on the branch cut (−∞, 0]")
        alpha = self.exponent
        # |u|^alpha e^(i alpha arg u) from real kernels: numpy's complex log
        # and exp cost several times more, most of all near |u| = 1.
        modulus = np.abs(u) ** alpha
        angle = alpha * np.arctan2(u.imag, u.real)
        out = np.empty_like(v)
        np.multiply(modulus, np.cos(angle), out=out.real[0, ...])
        np.multiply(modulus, np.sin(angle), out=out.imag[0, ...])
        # Miller's recurrence k c_k = sum over j of ((alpha + 1) j - k) v_j c_(k-j) / v_0,
        # with each c_i / v_0 formed once: c_1 = alpha (f / u) v_1.
        ratios = np.empty_like(v[:n])
        j = np.arange(n, 0, -1).reshape((n,) + (1,) * u.ndim)
        for k in range(1, n + 1):
            np.divide(out[k - 1], u, out=ratios[k - 1, ...])
            weights = ((alpha * j[n - k :] - (k - j[n - k :])) / k).astype(complex)
            np.add.reduce(weights * ratios[:k] * v[k:0:-1], axis=0, out=out[k, ...])
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

    def _evaluate(self, z: np.ndarray, order: int, members=None) -> np.ndarray:
        """Stacked derivatives of the given order at z, points that the caller has checked.

        Without members, z of shape (1, n) holds points shared by every
        member.  With an integer array members, z has one row per entry
        and row i holds the points of member members[i].
        """
        raise NotImplementedError

    def _height(self, order: int) -> int:
        """Rows of the tallest stacked array one evaluation of this order holds, per point."""
        raise NotImplementedError

    def z_coefficients(self, order: int) -> np.ndarray | None:
        """Taylor coefficients at 0 of every member's derivative of the given order, or None.

        Row k holds member k's coefficients against z^0, z^1, ...  A
        PolyFamily's polynomials, c f, F f for a Poly F, and c f under a
        rotation answer with polynomials in z.  Other images
        F (f o phi) give their Taylor series, cut where its tail on the
        closed disk falls below rounding (_series_length), where F is 1, a
        constant, or certified by _disk_bounds on a circle of radius above
        1, unless the table would exceed BLOCK_BYTES.  Every other family
        returns None, and is sampled on grids instead.  The n-point angular rule on
        |z| = r is exact for z^j conj(z)^l with |j - l| < n, so angular
        means summed from these coefficients equal the sampled ones up to
        rounding until the degree reaches n; past it the rule aliases and
        the sums do not.
        """
        return None

    def subset(self, members, scales=None) -> "Family":
        """The members named by the integer array members, in its order, as a family of their own; member i times scales[i], a power of two, with scales."""
        raise NotImplementedError

    def degree_bounds(self) -> np.ndarray:
        """A bound on each member's degree as a polynomial, inf where none is known.

        A PolyFamily's is its width, the degree of its images in w = z or
        phi(z); under a weight left to Leibniz's rule, and for a tree, it
        is inf.  The nested angular rule (quadrature._power_means) takes
        no mean on L <= bound angles, where z^L aliases at two levels alike.
        """
        return np.full(len(self), np.inf)

    def circle_bounds(self, radii, order: int) -> np.ndarray:
        """Bounds on each member's derivative of the order as evaluated on |z| = r, one row per member, inf where none is known."""
        return np.full((len(self), len(radii)), np.inf)

    def derivative(self, z, order: int) -> np.ndarray:
        """Derivative of the given order of every member at the shared points z, of shape (len(self),) + z.shape."""
        z = _checked_points(z)
        return self._evaluate(z.reshape(1, -1), order).reshape((len(self),) + z.shape)

    def derivative_at(self, z, order: int, members) -> np.ndarray:
        """Derivative of the given order of member members[i] at the points z[i]."""
        z = _checked_points(z)
        return self._evaluate(z.reshape(len(z), -1), order, np.asarray(members)).reshape(z.shape)

    def row_blocks(self, shape: tuple, order: int) -> list:
        """Row slices of a 2-D grid of the given shape that keep a stacked array of the order under BLOCK_BYTES."""
        n_rows, n_cols = shape
        step = max(1, BLOCK_BYTES // (max(1, self._height(order)) * n_cols * 16))
        return [slice(i, i + step) for i in range(0, n_rows, step)]

    def rowwise(self, radii, circle, order: int, reduce):
        """reduce(values, rows) over the row blocks of the grid radii[:, None] * circle, joined on axis 1.

        values holds the members' derivatives of the given order at the
        points of radii[rows]; reduce returns an array of shape
        (len(self), number of rows, ...), or None for a sweep that keeps
        its own totals, and then rowwise returns None.  The points are
        checked once, on the outermost circle.  Each block's points and
        values are fresh arrays that nothing here holds while the next
        block is evaluated: for a sweep to hold nothing of grid size,
        reduce keeps only what it reduces them to.  The heap setting at
        import (_keep_freed_heap) keeps freed blocks resident for the next.
        """
        radii = np.asarray(radii, dtype=float)
        circle = np.asarray(circle, dtype=complex)
        _checked_circles(radii, circle)
        parts = []
        for rows in self.row_blocks((len(radii), len(circle)), order):
            parts.append(reduce(
                self._evaluate((radii[rows, None] * circle).reshape(1, -1), order).reshape(len(self), -1, len(circle)),
                rows,
            ))
        if parts[0] is None or len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=1)


def _node_count(f: AnalyticExpr) -> int:
    return 1 + sum(_node_count(v) for v in vars(f).values() if isinstance(v, AnalyticExpr))


class TreeFamily(Family):
    """Any expressions, each evaluated by its own derivatives up to the order asked."""

    def __init__(self, members):
        self.members = tuple(members)

    def __len__(self):
        return len(self.members)

    def __getitem__(self, k):
        return self.members[k]

    def subset(self, members, scales=None):
        part = [self.members[k] for k in members]
        return TreeFamily(part if scales is None else (Mul(Const(c), f) for c, f in zip(scales, part)))

    def _height(self, order):
        # The members' values, and the derivatives up to the order asked
        # that each node of the member being evaluated holds.
        return len(self) + max((_node_count(f) for f in self.members), default=0) * (order + 1)

    def _evaluate(self, z, order, members=None):
        if members is None:
            # Member by member into one array: each member's rows of lower
            # order are freed before the next is evaluated.
            out = np.empty((len(self),) + z.shape[1:], dtype=complex)
            for k, f in enumerate(self.members):
                out[k] = _derivatives_at(f, z[0], order)[order]
            return out
        # Each distinct member is walked once, over all of its rows.
        out = np.empty(z.shape, dtype=complex)
        for k in dict.fromkeys(members.tolist()):
            rows = members == k
            out[rows] = _derivatives_at(self.members[k], z[rows], order)[order]
        return out


class PolyFamily(Family):
    """Polynomials f whose coefficients are stacked as a matrix, or their images F * (f o phi).

    F and phi are None for the polynomials themselves; image_family sets
    them, phi to None or one Moebius node.  phi, and F None, a Const, or a
    Poly with phi None (the product polynomial), fold into coefficient
    matrices built once per image.  A rotation, a = 0, maps z to
    w = -lam z, so f o phi has the coefficients (-lam)^j c_j: its images
    are polynomials in z, evaluated like the polynomials themselves.
    Under any other map, order d of g = c (f o phi) is one pointwise
    factor, 1, phi' or phi' q, times a matrix product against the power
    table of w = phi(z); the factor scales the table's rows where they
    are fewer than the members.  With q = 1/(1 - conj(a) z),
    1 - conj(a) conj(lam) w is (1 - |a|^2) q, so (f o phi)' = phi' f'(w) and
    (f o phi)'' = -lam phi' q ((1 - conj(a) conj(lam) w) f''(w) - (2 conj(a) / lam) f'(w)),
    unexpanded: powers of w would lose digits as |a| nears 1.  Any other F
    takes Leibniz's rule, (F g)^(n) = sum over k of C(n, k) F^(n-k) g^(k):
    the power table's rows, scaled by each term's factor, are stacked
    against the matrices of g, ..., g^(n) side by side; the images' Taylor
    series (z_coefficients) are F's series times that of f o phi.  phi's
    values are checked to lie in the disk, as Compose checks them.
    """

    def __init__(self, polys):
        self.polys = tuple(polys)
        width = max(len(p.coeffs) for p in self.polys)
        coeffs = np.zeros((len(self.polys), width), dtype=complex)
        for k, p in enumerate(self.polys):
            coeffs[k, : len(p.coeffs)] = p.coeffs
        # The polynomials' coefficients and those of f' and f'' against
        # z^0, z^1, ...: shared by every image.
        self._plain = _derivative_matrices(coeffs)
        self._set_symbols(None, None)

    def _set_symbols(self, F, phi):
        # The images' F and phi, the matrices that fold phi and a constant or
        # polynomial F, and the weight left to Leibniz's rule, or None.
        # The Moebius map left to evaluate, _map, is None for a rotation.
        self.F, self.phi = F, phi
        matrices, self._weight = self._plain, F
        self._map = None if phi is None or phi.map.a == 0 else phi.map
        if phi is not None and self._map is None:
            matrices = _derivative_matrices(matrices[0] * (-phi.map.lam) ** np.arange(matrices[0].shape[1]))
        if isinstance(F, Const):
            matrices, self._weight = tuple(F.value * m for m in matrices), None
        elif isinstance(F, Poly) and phi is None:
            product = np.array([np.convolve(F.coeffs, f) for f in matrices[0]])
            matrices, self._weight = _derivative_matrices(product), None
        if self._map is not None:
            a, lam = self._map.a, self._map.lam
            first, second = matrices[1:]
            # (1 - conj(a) conj(lam) w) f''(w) - (2 conj(a) / lam) f'(w), against w^0 .. w^(width-2)
            bracket = -2.0 * np.conj(a) / lam * first
            bracket[:, : second.shape[1]] += second
            bracket[:, 1 : second.shape[1] + 1] -= np.conj(a) * np.conj(lam) * second
            matrices = (matrices[0], first, -lam * bracket)
        self._matrices, self._width = matrices, matrices[0].shape[1]
        # Leibniz's rule for order n meets the matrices of orders 0 .. n side by side.
        self._joined = None if self._weight is None else [np.concatenate(matrices[: n + 1], axis=1) for n in range(3)]

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, k):
        return _image(self.F, self.phi, self.polys[k])

    def z_coefficients(self, order):
        # The folded images with no map and no weight left are polynomials
        # whose matrices these are.  Otherwise c (f o phi) = sum over j of
        # c c_j w^j, w = z or phi(z), and a weight left to Leibniz's rule
        # multiplies each power's series by its own.
        if self._map is None and self._weight is None:
            return self._matrices[order]
        n = _series_length(0.0 if self._map is None else abs(self._map.a), self._width, order, self._weight)
        if n is None or max(len(self), self._width) * n * 16 > BLOCK_BYTES:
            return None
        basis = np.eye(self._width, n) if self._map is None else _moebius_powers(self._map, self._width, n)
        if self._weight is not None:
            weight = series(self._weight, n)
            basis = np.array([np.convolve(row, weight)[:n] for row in basis])
        return _derivative_matrix(self._matrices[0] @ basis, order)

    def subset(self, members, scales=None):
        # The members' rows of every matrix, times their scales, and the scaled rows' polynomials: the symbols are shared.
        rows = (lambda m: m[members]) if scales is None else (lambda m: m[members] * scales[:, None])
        part = copy.copy(self)
        part._plain, part._matrices = tuple(map(rows, self._plain)), tuple(map(rows, self._matrices))
        part._joined = None if self._joined is None else list(map(rows, self._joined))
        polys = [self.polys[k] for k in members.tolist()]
        part.polys = tuple(polys if scales is None else (Poly(tuple(c[: len(f.coeffs)])) for f, c in zip(polys, part._plain[0])))
        return part

    def degree_bounds(self):
        # Every member is a sum of w^j, j below the width, with w = z or
        # phi(z), unless a weight is left to Leibniz's rule.
        return np.full(len(self), self._width if self._weight is None else np.inf)

    def _height(self, order):
        # The members' values and the power table, and Leibniz's stacked table.
        return max(len(self), self._width, (self._matrices if self._joined is None else self._joined)[order].shape[1])

    @np.errstate(all="ignore")  # a bound that overflows rules out nothing
    def circle_bounds(self, radii, order):
        # Cauchy's estimate: on |z| = r, |w| <= (r + s) / (1 + s r), s = |a| or 0, and the factor of g'
        # or g'' is at most (1 - s^2) / (1 - s r)^(order + 1).  The margin covers rounding, which grows
        # with the width and as 1 / (1 - s r).
        if self._weight is not None:
            return super().circle_bounds(radii, order)
        radii, C = np.asarray(radii, dtype=float), self._matrices[order]
        s = 0.0 if self._map is None else abs(self._map.a)
        near = 1.0 - s * radii
        factor = (1.0 + 64.0 * (C.shape[1] + 8) * np.finfo(float).eps / near) * ((1.0 - s * s) / near ** (order + 1) if order else 1.0)
        return factor * (np.abs(C) @ ((radii + s) / (1.0 + s * radii)) ** np.arange(C.shape[1])[:, None])

    def _evaluate(self, z, order, members=None):
        # Member k's derivative of the order at z is matrix[k] against a
        # table: the powers of w = z or phi(z), stacked once per term of
        # Leibniz's rule with each term's factor.  Only phi's values are
        # checked here.
        if order not in (0, 1, 2):
            raise ParameterError(f"derivative order must be 0, 1 or 2, got {order!r}")
        base = z if self._map is None else _checked_points(self._map(z), "composition inner value")
        powers = _powers(base, self._width)
        # The pointwise factors of g, g' and g'' up to the order: 1, phi' and
        # phi' q, None for 1.
        factors = [None] * 3
        if self._map is not None and order:
            a, lam = self._map.a, self._map.lam
            q = 1.0 / (1.0 - np.conj(a) * z)
            factors[1] = lam * (abs(a) ** 2 - 1.0) * q * q
            factors[2] = factors[1] * q if order == 2 else None
        if self._weight is None:
            matrix, factor = self._matrices[order], factors[order]
            table = powers[: matrix.shape[1]]
            # Fewer table rows than members per point: the factor scales the rows.
            if factor is not None and members is None and len(self) > matrix.shape[1]:
                table, factor = np.multiply(table, factor, out=table), None
            out = _contract(matrix, table, members)
            if factor is not None:
                out *= factor
            return out
        F = _derivatives_at(self._weight, z, order)
        table = np.empty((self._joined[order].shape[1],) + z.shape, dtype=complex)
        ends = np.cumsum([m.shape[1] for m in self._matrices[:order]])
        for k, rows in enumerate(np.split(table, ends)):
            # C(n, k) F^(n-k) times the pointwise factor of g^(k), on the
            # left: numpy's complex multiply is not bitwise commutative.
            factor = 2.0 * F[1] if (order, k) == (2, 1) else F[order - k]
            if factors[k] is not None:
                factor = factor * factors[k]
            np.multiply(factor, powers[: len(rows)], out=rows)
        return _contract(self._joined[order], table, members)


def _derivative_matrices(coeffs: np.ndarray) -> tuple:
    # Coefficients of f, f' and f'' against z^0, z^1, ..., one row per member
    return tuple(_derivative_matrix(coeffs, order) for order in range(3))


def _derivative_matrix(coeffs: np.ndarray, order: int) -> np.ndarray:
    # Coefficients of the derivative of the order (0, 1 or 2) against z^0, z^1, ...
    n = np.arange(order, coeffs.shape[1])
    return coeffs if order == 0 else coeffs[:, order:] * (n if order == 1 else n * (n - 1))


# A Recip or Pow is certified where the clearance from 0 or from the cut
# that it needs exceeds this fraction of the bound: a margin for rounding,
# as PolyFamily.circle_bounds keeps one, far above the few eps per term by
# which the sums of _disk_bounds can be off.
_CERTIFY_MARGIN = 1e-11


@np.errstate(all="ignore")
def _disk_bounds(f: AnalyticExpr, R) -> tuple | None:
    """Bounds (lo, hi) with lo <= log |f| <= hi on |z| <= R, or None where no rule certifies f.

    Arrays of radii give arrays, NaN where f is not certified; no samples
    are used.  A Poly lies within |c0| -+ sum over k >= 1 of |c_k| R^k.
    Recip(h) needs lo_h > -inf, Pow(h, alpha) of a Poly h that tail below
    c0's distance to the cut (-inf, 0], both by _CERTIFY_MARGIN; Moebius,
    Compose and other Pows are not certified.  Logarithms keep the bounds
    of (1 / s) (c u) finite where those of c u overflow.
    """
    if isinstance(f, Const):
        lo = hi = np.full(np.shape(R), np.log(abs(f.value)))
    elif isinstance(f, Poly) or (isinstance(f, Pow) and isinstance(f.inner, Poly)):
        c = np.asarray((f if isinstance(f, Poly) else f.inner).coeffs)
        size = np.abs(c)
        tail = np.asarray(R, dtype=float)[..., None] ** np.arange(1, len(c)) @ size[1:]
        lo, hi = np.log(np.maximum(0.0, size[0] - tail)), np.log(size[0] + tail)
        if isinstance(f, Pow):
            clear = (size[0] if c[0].real >= 0.0 else abs(c[0].imag)) - tail
            ends = np.sort([f.exponent * lo, f.exponent * hi], axis=0)
            lo, hi = np.where(clear > _CERTIFY_MARGIN * (size[0] + tail), ends, np.nan)
    elif isinstance(f, (Add, Mul)):
        left, right = _disk_bounds(f.left, R), _disk_bounds(f.right, R)
        if left is None or right is None:
            return None
        (lo, hi), (lo2, hi2) = left, right
        if isinstance(f, Mul):
            lo, hi = lo + lo2, hi + hi2
        else:
            a, b, a2, b2 = np.exp([lo, hi, lo2, hi2])
            lo, hi = np.log(np.maximum(0.0, np.maximum(a - b2, a2 - b))), np.log(b + b2)
    elif isinstance(f, Recip):
        if (inner := _disk_bounds(f.inner, R)) is None:
            return None
        lo, hi = np.where(inner[0] - inner[1] > np.log(_CERTIFY_MARGIN), [-inner[1], -inner[0]], np.nan)
    else:
        return None
    hi = np.where(hi < np.inf, hi, np.nan)
    return None if np.all(np.isnan(hi)) else (lo, hi)


# Circles |z| = rho on which _series_length bounds the tail of an image's
# series: equispaced in (1, 1/|a|) under a Moebius map, in (1, 4] without.
_CAUCHY_CIRCLES = 64


@functools.lru_cache(maxsize=64)
def _series_length(s: float, width: int, order: int, weight: AnalyticExpr | None = None) -> int | None:
    """Terms of the series of F (f o phi) past which its derivative of the order changes by rounding only.

    f has the given width, phi is a Moebius map with |a| = s, the
    identity for s = 0, and F the weight, 1 for None.  On |z| = rho,
    |phi| peaks at m = (rho - s) / (1 - s rho) and |F| at hi_F(rho), its
    _disk_bounds, so Cauchy's estimate bounds coefficient n of the image
    by hi_F(rho) m^(width-1) rho^(-n) times the sum of |c_j|, and hi_F(1)
    times that sum bounds it on the disk.  The derivative's tail on the
    closed disk is below N^order rho^(-N) / (1 - ((N + 1) / N)^order / rho)
    times the bound on the circle.  N is the least length that takes it
    below 2^-53 of the bound on the disk on one circle where F is
    certified, None on none.  On each, N rises from the bound without
    the order's factors until it meets the bound it gives.
    """
    k = np.arange(1, _CAUCHY_CIRCLES + 1)
    rho = 1.0 + (1.0 / s - 1.0) * k / (_CAUCHY_CIRCLES + 1) if s else 1.0 + 3.0 * k / _CAUCHY_CIRCLES
    scale = (width - 1) * np.log((rho - s) / (1.0 - s * rho)) + 53.0 * np.log(2.0)
    if weight is not None:
        on_circles, on_disk = _disk_bounds(weight, rho), _disk_bounds(weight, 1.0)
        if on_circles is None or on_disk is None or not np.isfinite(on_disk[1]):
            return None
        kept = np.isfinite(on_circles[1])
        rho, scale = rho[kept], scale[kept] + (on_circles[1][kept] - on_disk[1])
    log_rho = np.log(rho)
    n = np.ceil(scale / log_rho)
    while True:
        q = ((n + 1.0) / n) ** order / rho
        bound = np.ceil((scale + order * np.log(n) - np.log1p(-q)) / log_rho)
        if np.all(bound <= n):
            return int(n.min())
        n = np.maximum(n, bound)


def _moebius_powers(m: MoebiusMap, width: int, n: int) -> np.ndarray:
    # The first n Taylor coefficients of phi^0 .. phi^(width-1), one row
    # each.  Row j, the truncated product of row j - 1, u, with phi's series
    # lam a, lam (|a|^2 - 1) conj(a)^(k-1), is lam a u_k + lam (|a|^2 - 1) g_(k-1)
    # for g_k = sum over i <= k of conj(a)^(k-i) u_i: the convolution's terms,
    # summed by log2 n doubling steps g_k += conj(a)^d g_(k-d), d = 1, 2, 4, ...
    out = np.zeros((width, n), dtype=complex)
    out[0, 0] = 1.0
    head, tail = m.lam * m.a, m.lam * (abs(m.a) ** 2 - 1.0)
    for j in range(1, width):
        g = out[j - 1, :-1].copy()
        d, c = 1, np.conj(m.a)
        while d < len(g):
            g[d:] += c * g[:-d]
            d, c = 2 * d, c * c
        np.multiply(head, out[j - 1], out=out[j])
        out[j, 1:] += tail * g
    return out


def _powers(base: np.ndarray, n: int) -> np.ndarray:
    # base^0 .. base^(n-1), stacked on a leading axis
    out = np.empty((n,) + base.shape, dtype=complex)
    out[0] = 1.0
    for j in range(1, n):
        np.multiply(out[j - 1], base, out=out[j])
    return out


def _contract(matrix: np.ndarray, table: np.ndarray, members) -> np.ndarray:
    # One row of points shared by every member, or row i for member members[i]
    if members is None:
        return matrix @ table[:, 0]
    return np.einsum("kd,dkn->kn", matrix[members], table)


def _image(F: AnalyticExpr | None, phi: AnalyticExpr | None, f: AnalyticExpr) -> AnalyticExpr:
    # F * (f o phi) as an expression tree, without the factors that are None
    if phi is not None:
        f = Compose(f, phi)
    return f if F is None else Mul(F, f)


def _moebius_node(phi: AnalyticExpr) -> Moebius | None:
    # phi as one Moebius node when it is one, a composition of them or Poly((0, lam)), |lam| == 1; else None
    if isinstance(phi, Compose):
        outer, inner = _moebius_node(phi.outer), _moebius_node(phi.inner)
        return None if outer is None or inner is None else _composed(outer, inner)
    if isinstance(phi, Poly) and len(phi.coeffs) == 2 and phi.coeffs[0] == 0 and abs(phi.coeffs[1]) == 1.0:
        return Moebius(MoebiusMap(0.0, -phi.coeffs[1]))
    return phi if isinstance(phi, Moebius) else None


def _composed(outer: Moebius, inner: Moebius) -> Moebius:
    # outer o inner, an automorphism, from its 1-jet at 0
    w, dw = inner.derivatives(0j, 1)
    v, dv = outer.derivatives(w, 1)
    return Moebius(moebius_from_jet(v, dv * dw))


def image_family(F: AnalyticExpr | None, phi: AnalyticExpr | None, base: Family) -> Family:
    """The images F * (f o phi) of a family's members.

    A None F or phi drops that factor: the images are then f o phi or
    F * f.  Images of a PolyFamily are a copy of it with F and phi set,
    and images of its images F0 * (f o phi0) fold into one level, with
    weight F * (F0 o phi) and map phi0 o phi.  That map must reduce to
    one Moebius node: automorphisms are closed under composition, so a
    Compose of them does, by its 1-jet at 0.  Under any other map, and
    for any other family, the images are expression trees (TreeFamily).
    """
    if isinstance(base, PolyFamily):
        maps = [_moebius_node(m) for m in (base.phi, phi) if m is not None]
        if all(m is not None for m in maps):
            images = copy.copy(base)
            weight = F if base.F is None else _image(F, phi, base.F)
            images._set_symbols(weight, functools.reduce(_composed, maps) if maps else None)
            return images
    return TreeFamily(_image(F, phi, f) for f in base)


def as_family(obj) -> Family:
    """obj as a Family: one expression is a sequence of one member.

    A sequence of polynomials and constants becomes a PolyFamily, a
    constant c as Poly((c,)); any other sequence becomes a TreeFamily.
    A Family is returned as it is.
    """
    if isinstance(obj, Family):
        return obj
    members = (obj,) if isinstance(obj, AnalyticExpr) else tuple(obj)
    if members and all(type(f) in (Poly, Const) for f in members):
        return PolyFamily(Poly((f.value,)) if type(f) is Const else f for f in members)
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
