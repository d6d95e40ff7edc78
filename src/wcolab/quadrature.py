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
import os
import warnings

import numpy as np
import scipy.special

from .analytic_core import AnalyticExpr, R_MAX, as_family
from .errors import ParameterError

_PRESET_FACTORS = {"fast": 0.5, "default": 1.0, "fine": 2.0}


def _default_sup_radii(r_max: float) -> tuple:
    radii = []
    for k in range(1, 21):
        r = min(1.0 - 2.0 ** (-k), r_max)
        if radii and r <= radii[-1]:
            continue
        radii.append(r)
    return tuple(radii)


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """Grid sizes shared by all quadrature routines.

    n_theta angular nodes (a power of two, so coefficient extraction can
    use the FFT), n_radial Gauss-Legendre nodes, and a ladder of radii
    approaching r_max for supremum scans and boundary-trend fits.
    """

    n_theta: int = 512
    n_radial: int = 64
    sup_radii: tuple | None = None
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
        radii = self.sup_radii
        if radii is None:
            radii = _default_sup_radii(r_max)
        radii = tuple(float(r) for r in radii)
        if not radii or any(b <= a for a, b in zip(radii, radii[1:])) or radii[-1] >= 1.0:
            raise ParameterError("sup_radii must be strictly increasing and below 1")
        object.__setattr__(self, "n_theta", n)
        object.__setattr__(self, "n_radial", m)
        object.__setattr__(self, "r_max", r_max)
        object.__setattr__(self, "sup_radii", radii)

    def refined(self, factor: int = 2) -> "GridConfig":
        """A copy with angular and radial node counts scaled by factor."""
        return GridConfig(
            n_theta=max(64, int(self.n_theta * factor)),
            n_radial=max(4, int(self.n_radial * factor)),
            sup_radii=self.sup_radii,
            r_max=self.r_max,
        )


def default_config() -> GridConfig:
    """GridConfig honoring the WCOLAB_GRID_PRESET environment variable."""
    preset = os.environ.get("WCOLAB_GRID_PRESET", "default")
    if preset not in _PRESET_FACTORS:
        raise ParameterError(
            f"WCOLAB_GRID_PRESET must be one of {sorted(_PRESET_FACTORS)}, got {preset!r}"
        )
    factor = _PRESET_FACTORS[preset]
    return GridConfig(n_theta=max(64, int(512 * factor)), n_radial=max(4, int(64 * factor)))


@functools.lru_cache(maxsize=32)
def unit_circle(n: int) -> np.ndarray:
    """n equispaced points on the unit circle, starting at 1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


@functools.lru_cache(maxsize=32)
def gauss01(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def circle_values(f: AnalyticExpr, r: float, n: int) -> np.ndarray:
    return f.jet(r * unit_circle(n)).f


def integral_mean(f: AnalyticExpr, p: float, r: float, cfg: GridConfig) -> float:
    """M_p(r, f): the L^p average of |f| over the circle of radius r.

    Trapezoid rule on n_theta angles; spectrally accurate because the
    integrand is periodic.  p = inf returns the maximum modulus.
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"radius must lie in [0, 1), got {r}")
    if p != np.inf and p < 1.0:
        raise ParameterError(f"integral mean requires p >= 1 or p = inf, got {p}")
    mods = np.abs(circle_values(f, r, cfg.n_theta))
    if p == np.inf:
        return float(np.max(mods))
    return float(np.mean(mods ** p) ** (1.0 / p))


def area_integral(g, cfg: GridConfig) -> float:
    """Integral of a pointwise function over the disk, normalized area.

    With dA = r dr dtheta / pi the substitution t = r^2 gives
    integral = int_0^1 (angular mean at r = sqrt(t)) dt, evaluated by
    Gauss-Legendre in t; nodes stay strictly inside the disk.  g takes a
    complex array and returns real values.
    """
    t, w = gauss01(cfg.n_radial)
    radii = np.sqrt(t)
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    vals = np.asarray(g(z), dtype=float)
    return float(w @ vals.mean(axis=1))


@functools.lru_cache(maxsize=64)
def _jacobi01(n: int, alpha: float):
    # Nodes and weights so that sum w_i g(t_i) = int_0^1 g(t) (1-t)^alpha dt
    # for smooth g, exact when g is a polynomial of degree < 2n.
    x, w = scipy.special.roots_jacobi(n, alpha, 0.0)
    t = 0.5 * (x + 1.0)
    w = w * 0.5 ** (alpha + 1.0)
    return t, w


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
    base = np.concatenate([[0.0], interior[interior <= cfg.r_max], cfg.sup_radii])
    return np.unique(base)


def _golden_max_batch(fun, lo, hi, iters: int):
    """Vectorized golden-section maximization on a batch of brackets.

    fun maps an array of abscissae (one per bracket) to values.  Returns
    the best value seen across all brackets and iterations.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = fun(c)
    fd = fun(d)
    best_x = np.where(fc >= fd, c, d)
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
        improved = fx > best_f
        best_x = np.where(improved, x, best_x)
        best_f = np.where(improved, fx, best_f)
        c = np.where(cond, x, carried)
        fc = np.where(cond, fx, f_carried)
        d = np.where(cond, carried, x)
        fd = np.where(cond, f_carried, fx)
        lo, hi = new_lo, new_hi
    return best_x, best_f


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


def refined_modulus_sup(family, order: int, omega, dlog_omega, cfg: GridConfig, candidates: int = 4) -> np.ndarray:
    """Supremum over the disk of omega(|z|^2) * |h(z)| for every member.

    h is the member itself (order 0) or its derivative (order 1); a
    single expression counts as a one-member family.  omega and
    dlog_omega are the radial weight and the derivative of its logarithm
    in t = |z|^2.  The grid scan reduces the family's stacked values.  Its
    leading maxima are then polished one member at a time on the
    member's own expression: having the exact gradient lets a bounded
    quasi-Newton step converge into each maximum, where plain coordinate
    search stalls on diagonal ridges.  Each result is still a lower
    bound for the sup.
    """
    family = as_family(family)
    radii = scan_radii(cfg)
    angles = 2.0 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    z = radii[:, None] * np.exp(1j * angles)[None, :]
    weight = omega(radii[:, None] ** 2)
    vals = family.rowwise(z, order, lambda h, rows: weight[rows] * np.abs(h))
    best = vals.reshape(len(family), -1).max(axis=1)
    dtheta = 2.0 * np.pi / cfg.n_theta
    # Imported here: most calls of the package never polish, and the
    # import is a large share of the CLI's start-up.
    import scipy.optimize

    for k, member in enumerate(family):

        def negated(x):
            r, th = x
            zz = r * np.exp(1j * th)
            jet = member.jet(zz)
            hv, hp = (jet.f, jet.df) if order == 0 else (jet.df, jet.d2f)
            mod = abs(hv)
            tt = r * r
            phi = float(omega(tt) * mod)
            if mod < 1e-300:
                return -phi, np.zeros(2)
            q = hp / hv
            grad_r = phi * (2.0 * r * float(dlog_omega(tt)) + (q * np.exp(1j * th)).real)
            grad_th = phi * (-(q * zz).imag)
            return -phi, np.array([-grad_r, -grad_th])

        for i, j in _select_candidates(vals[k], candidates):
            lo_r = radii[i - 1] if i > 0 else 0.0
            hi_r = radii[i + 1] if i + 1 < len(radii) else cfg.r_max
            th0 = angles[j]
            res = scipy.optimize.minimize(
                negated,
                np.array([radii[i], th0]),
                jac=True,
                method="L-BFGS-B",
                bounds=[(lo_r, hi_r), (th0 - 2.0 * dtheta, th0 + 2.0 * dtheta)],
                options={"ftol": 0.0, "gtol": 1e-14, "maxiter": 80},
            )
            if np.isfinite(res.fun):
                best[k] = max(best[k], float(-res.fun))
    return best


def taylor_coefficients(f: AnalyticExpr, count: int, r: float, cfg: GridConfig) -> np.ndarray:
    """First count Taylor coefficients of f via the FFT on a circle.

    c_k equals the k-th Fourier coefficient of f on |z| = r divided by
    r^k.  Warns when r^count drops below 1e-12: the rescaling is then
    ill-conditioned and high coefficients are unreliable.
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
    vals = circle_values(f, r, cfg.n_theta)
    hat = np.fft.fft(vals) / cfg.n_theta
    return hat[:count] / r ** np.arange(count)
