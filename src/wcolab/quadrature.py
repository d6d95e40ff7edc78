"""Grids and quadrature engines over the disk and its circles.

Everything funnels through a GridConfig: angular trapezoid nodes (exact
for trigonometric polynomials below the Nyquist degree), Gauss-Legendre
radial nodes in t = r^2, a Gauss-Jacobi rule for weighted radial
integrals with an endpoint weight, a refined grid supremum, and
Cauchy coefficient extraction on circles.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np
# numpy imports its submodules on first attribute access; importing them
# here keeps that cost out of the first call of a process.
import numpy.fft
import numpy.polynomial.legendre

from .analytic_core import R_MAX, Family, as_family, unit_circle
from .errors import ParameterError


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """Grid sizes shared by all quadrature routines.

    n_theta angular nodes (a power of two, so coefficient extraction can
    use the FFT), n_radial Gauss-Legendre nodes, and the outermost radius
    r_max, which fixes the ladder of radii approaching it (sup_radii).
    """

    n_theta: int = 512
    n_radial: int = 64
    r_max: float = R_MAX

    def __post_init__(self):
        n = int(self.n_theta)
        if n < 64 or (n & (n - 1)) != 0:
            raise ParameterError(f"n_theta must be a power of two and at least 64, got {n}")
        m = int(self.n_radial)
        if m < 4:
            raise ParameterError(f"n_radial must be at least 4, got {m}")
        r_max = float(self.r_max)
        if not 0.0 < r_max < 1.0:
            raise ParameterError(f"r_max must lie in (0, 1), got {r_max}")
        object.__setattr__(self, "n_theta", n)
        object.__setattr__(self, "n_radial", m)
        object.__setattr__(self, "r_max", r_max)

    @functools.cached_property
    def sup_radii(self) -> tuple:
        """Radii min(1 - 2^-k, r_max), k = 1 .. 20, without repeats: the supremum and trend ladder."""
        return tuple(sorted({min(1.0 - 2.0 ** (-k), self.r_max) for k in range(1, 21)}))

    def refined(self) -> "GridConfig":
        """A copy with twice the angular and radial nodes."""
        return GridConfig(2 * self.n_theta, 2 * self.n_radial, self.r_max)


def default_config() -> GridConfig:
    """The default grid: 512 angles, 64 radial nodes, r_max = R_MAX."""
    return GridConfig()


@functools.lru_cache(maxsize=32)
def gauss01(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@functools.lru_cache(maxsize=64)
def _jacobi01(n: int, alpha: float):
    # Nodes and weights so that sum w_i g(t_i) = int_0^1 g(t) (1-t)^alpha dt
    # for smooth g, exact when g is a polynomial of degree < 2n: the
    # Golub-Welsch rule (Math. Comp. 23, 1969) for (1-x)^alpha on [-1, 1],
    # moved to [0, 1].  The nodes are the eigenvalues of the Jacobi
    # matrix, the weights the squared first components of its unit
    # eigenvectors, scaled to the mass 1/(alpha+1).  The first diagonal
    # entry -alpha^2 / (alpha (alpha+2)) is written reduced, so that
    # alpha = 0 is no 0/0.
    a = float(alpha)
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * j * (j + a) / (s * np.sqrt(s * s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    w = v[0] ** 2
    return 0.5 * (x + 1.0), w / (w.sum() * (a + 1.0))


def weighted_radial_integral(h, exponent: float, cfg: GridConfig) -> float | np.ndarray:
    """Integral of aq (1-r^2)^(aq-1) h(r) 2r dr over [0, 1], aq = exponent + 1.

    The rule runs in r, not t = r^2: Gauss-Jacobi nodes absorb the
    (1-r)^(aq-1) endpoint factor exactly for every aq > 0, and the
    remaining 2 aq r (1+r)^(aq-1) factor is analytic on [0, 1], so
    convergence is spectral in h.  Working in t instead would turn odd
    circle means like M_1(r) = r into half powers of t and cost the rule
    its accuracy at the origin.  h takes an array of radii and returns
    one profile, or stacked profiles (one row each) for one integral per
    row.
    """
    aq = float(exponent) + 1.0
    if aq <= 0.0:
        raise ParameterError(f"weighted radial integral requires exponent > -1, got {exponent}")
    r, w = _jacobi01(cfg.n_radial, aq - 1.0)
    vals = np.asarray(h(r), dtype=float)
    return aq * ((2.0 * r * (1.0 + r) ** (aq - 1.0) * vals) @ w)


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# omega = 1 and the derivative of its logarithm, for refined_modulus_sup.
FLAT_WEIGHT = (np.ones_like, np.zeros_like)


@functools.lru_cache(maxsize=32)
def scan_radii(cfg: GridConfig) -> np.ndarray:
    # Interior radii fill the gaps of the sup_radii ladder, which is
    # dense only near the boundary; gaps stay below basin widths of the
    # integrands in scope.  No radius lies past r_max.
    interior = np.linspace(0.025, 0.95, 38)
    base = np.sort(np.concatenate([[0.0], interior[interior <= cfg.r_max], cfg.sup_radii]))
    # np.unique would load numpy.ma on the first call of a process.
    return base[np.concatenate([[True], base[1:] != base[:-1]])]


@functools.lru_cache(maxsize=32)
def scan_grid(cfg: GridConfig) -> np.ndarray:
    """The scan radii times the angular nodes: the grid that the checks sample.

    Cached, like scan_radii: a check scans it up to three times, and a
    fresh 512 KB array per scan page-faults in a small heap.
    """
    return scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]


def _golden_max_batch(fun, lo, hi, iters: int):
    """Vectorized golden-section maximization on a batch of brackets.

    fun maps an array of abscissae (one per bracket) to values.  Returns
    the best value seen in each bracket over all iterations.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    best_f = np.maximum(fc, fd)
    for _ in range(iters):
        cond = fc >= fd
        new_lo = np.where(cond, lo, c)
        new_hi = np.where(cond, d, hi)
        carried = np.where(cond, c, d)
        f_carried = np.where(cond, fc, fd)
        width = new_hi - new_lo
        x = np.where(cond, new_hi - _INVPHI * width, new_lo + _INVPHI * width)
        fx = fun(x)
        best_f = np.where(fx > best_f, fx, best_f)
        c = np.where(cond, x, carried)
        fc = np.where(cond, fx, f_carried)
        d = np.where(cond, carried, x)
        fd = np.where(cond, f_carried, fx)
        lo, hi = new_lo, new_hi
    return best_f


def _select_candidates(vals: np.ndarray, k: int):
    """Indices of up to k large grid values, spread out over the grid."""
    n_r, n_t = vals.shape
    flat = vals.ravel()
    top = min(8 * k, flat.size)
    order = np.argpartition(flat, -top)[-top:]
    order = order[np.argsort(flat[order])[::-1]]
    picked = []
    for idx in order:
        i, j = divmod(int(idx), n_t)
        close = False
        for (pi, pj) in picked:
            dj = abs(j - pj)
            dj = min(dj, n_t - dj)
            if abs(i - pi) <= 1 and dj <= 2:
                close = True
                break
        if not close:
            picked.append((i, j))
        if len(picked) == k:
            break
    return picked


def refined_modulus_sup(family, order: int, omega, dlog_omega, cfg: GridConfig) -> np.ndarray:
    """Supremum over the disk of omega(|z|^2) * |h(z)| for every member.

    h is the member itself (order 0) or its derivative (order 1); a
    single expression counts as a one-member family.  omega and
    dlog_omega are the radial weight and the derivative of its logarithm
    in t = |z|^2.  The grid scan reduces the family's stacked values.  Up
    to _POLISH_CANDIDATES of each member's leading grid maxima, spread
    over the grid, are then polished together in a box of one ladder step
    in r and two grid steps in theta around each (see _polish): having the
    exact gradient lets a Newton step converge into each maximum, where
    plain coordinate search stalls on diagonal ridges.  Each result is
    the largest value at an evaluated point, so still a lower bound for
    the sup.
    """
    family = as_family(family)
    radii = scan_radii(cfg)
    angles = 2.0 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    weight = omega(radii[:, None] ** 2)
    vals = family.rowwise(z, order, lambda h, rows: weight[rows] * np.abs(h))
    best = vals.reshape(len(family), -1).max(axis=1)
    dtheta = 2.0 * np.pi / cfg.n_theta
    picks = [_select_candidates(v, _POLISH_CANDIDATES) for v in vals]
    # Members with fewer picks repeat their first one, so that every
    # member has the same number of boxes.
    n_boxes = max(len(p) for p in picks)
    i, j = np.array([p + p[:1] * (n_boxes - len(p)) for p in picks]).transpose(2, 0, 1)
    ladder = np.concatenate([[0.0], radii, [cfg.r_max]])
    lo = np.stack([ladder[i], angles[j] - 2.0 * dtheta], axis=-1)
    hi = np.stack([ladder[i + 2], angles[j] + 2.0 * dtheta], axis=-1)

    def log_weighted(x):
        # phi = omega(r^2) |h| at the points x[k, :] = (r, theta) of member
        # k, and the gradient of log phi there: zero where h vanishes.
        r, th = x[..., 0], x[..., 1]
        unit = np.exp(1j * th)
        h, dh = family.derivative_at(r * unit, (order, order + 1))
        mod = np.abs(h)
        q = dh / np.where(mod < 1e-300, 1.0, h)
        grad = np.stack([2.0 * r * dlog_omega(r * r) + (q * unit).real, -(q * r * unit).imag], axis=-1)
        grad[mod < 1e-300] = 0.0
        return omega(r * r) * mod, grad

    polished = _polish(log_weighted, np.stack([radii[i], angles[j]], axis=-1), lo, hi)
    return np.maximum(best, np.where(np.isfinite(polished), polished, -np.inf).max(axis=1))


# The polish starts from up to _POLISH_CANDIDATES grid maxima of each
# member.  It stops a candidate once its scaled projected gradient is at
# most _POLISH_GTOL, once no step of the line search ascends, or after
# _POLISH_ITERATIONS Newton steps.  Each step tries the full step and up
# to _POLISH_HALVINGS halvings of it.  The Hessian is taken by central
# differences of the gradient at _POLISH_FD_STEP box widths.
_POLISH_CANDIDATES = 4
_POLISH_ITERATIONS = 20
_POLISH_HALVINGS = 8
_POLISH_GTOL = 1e-13
_POLISH_FD_STEP = 1e-5


def _polish(fn, x, lo, hi) -> np.ndarray:
    """Largest phi reached from each start x[k, c] in its box [lo, hi]; shape (members, candidates).

    A projected Newton ascent on log phi (Bertsekas, SIAM J. Control
    Optim. 20, 1982) for every member and candidate at once, in box
    coordinates scaled to unit width.  A coordinate at a face whose
    gradient points out of the box is held there; the Newton step acts
    on the others, with the Hessian's eigenvalues taken in modulus so
    that the step ascends.  The step is projected onto the box, and it
    is accepted only where phi strictly increases.  fn maps points of
    shape (members, m, 2) to phi and the gradient of log phi there.
    """
    width = hi - lo
    delta = _POLISH_FD_STEP * width
    shift = np.eye(2) * delta[..., None, :]  # shift[..., i, :]: the i-th stencil step
    n_members, n_cand = x.shape[:2]
    x = x.copy()
    phi = None
    running = np.ones((n_members, n_cand), dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_ITERATIONS):
            # The stencil sits inside the box: its center is moved in from the faces.
            center = np.clip(x, lo + delta, hi - delta)[..., None, :]
            points = np.concatenate([x[..., None, :], center + shift, center - shift], axis=-2)
            values, grads = fn(points.reshape(n_members, -1, 2))
            values = values.reshape(n_members, n_cand, 5)
            grads = grads.reshape(n_members, n_cand, 5, 2)
            if phi is None:
                phi = values[..., 0]
            grad = grads[..., 0, :] * width
            # hess[..., i, j] = width_i width_j d^2 log phi / dx_i dx_j
            hess = (grads[..., 1:3, :] - grads[..., 3:5, :]).swapaxes(-1, -2) * (
                width[..., :, None] / (2.0 * _POLISH_FD_STEP)
            )
            hess = 0.5 * (hess + hess.swapaxes(-1, -2))
            held = ((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0))
            grad = np.where(held, 0.0, grad)
            ok = np.isfinite(grad).all(axis=-1) & np.isfinite(hess).all(axis=(-2, -1)) & np.isfinite(phi)
            running &= ok & (np.abs(grad).max(axis=-1) > _POLISH_GTOL)
            if not running.any():
                break
            # Newton step on the free coordinates: held rows and columns
            # of -hess become those of the identity, with a zero gradient.
            free = ~held[..., :, None] & ~held[..., None, :]
            neg = np.where(free, -hess, np.eye(2))
            neg[~running] = np.eye(2)
            lam, vec = np.linalg.eigh(neg)
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-12 * lam.max(axis=-1, keepdims=True) + 1e-300)
            coef = np.einsum("...ji,...j->...i", vec, np.where(running[..., None], grad, 0.0)) / lam
            step = np.einsum("...ij,...j->...i", vec, coef) * width
            pending = running.copy()
            alpha = 1.0
            for _ in range(_POLISH_HALVINGS + 1):
                trial = np.where(pending[..., None], np.clip(x + alpha * step, lo, hi), x)
                value, _ = fn(trial)
                up = pending & (value > phi)
                x[up] = trial[up]
                phi = np.where(up, value, phi)
                pending &= ~up
                if not pending.any():
                    break
                alpha *= 0.5
            running &= ~pending
            if not running.any():
                break
    return phi


def taylor_coefficients(f, count: int, r: float, cfg: GridConfig) -> np.ndarray:
    """First count Taylor coefficients of f via the FFT on a circle.

    c_k equals the k-th Fourier coefficient of f on |z| = r divided by
    r^k.  For a Family f the result has one row per member, from one FFT
    along the last axis.  Warns when r^count drops below 1e-12: the
    rescaling is then ill-conditioned and high coefficients are
    unreliable.
    """
    if not 0.0 < r <= cfg.r_max:
        raise ParameterError(f"extraction radius must lie in (0, r_max], got {r}")
    if count > cfg.n_theta // 2:
        raise ParameterError(
            f"count must not exceed n_theta/2 = {cfg.n_theta // 2}, got {count}"
        )
    if r ** count < 1e-12:
        warnings.warn(
            f"coefficient extraction at radius {r} is ill-conditioned beyond degree "
            f"{int(np.log(1e-12) / np.log(r))}",
            RuntimeWarning,
            stacklevel=2,
        )
    z = r * unit_circle(cfg.n_theta)
    vals = f.derivative(z, 0) if isinstance(f, Family) else f(z)
    hat = np.fft.fft(vals) / cfg.n_theta
    return hat[..., :count] / r ** np.arange(count)
