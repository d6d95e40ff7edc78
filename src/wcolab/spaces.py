"""Norm and seminorm evaluators for the disk function space families.

Families: H-infinity, Hardy, weighted Bergman, mixed-norm, growth,
Bloch-type, logarithmic Bloch, BMOA (star norm), weighted Besov, and the
minimal Besov space B1.  Where the norm splits as |f(0)| + p(f) with a
translation-invariant seminorm p, the breakdown is exposed.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from .analytic_core import AnalyticExpr, Family, as_family, unit_circle
from .errors import ParameterError, ParseError, UnsupportedSpace
from .quadrature import (
    FLAT_WEIGHT,
    GridConfig,
    _polish,
    gauss01,
    refined_modulus_sup,
    scan_radii,
    weighted_radial_integral,
)

# BMOA star seminorm scans these moduli of the automorphism parameter a;
# the argument of a is maximized continuously.
_BMOA_A_RADII = (0.0, 0.3, 0.6, 0.8, 0.9, 0.95)


class NormShape(typing.NamedTuple):
    """The mixed-norm descriptor of a space (SpaceSpec.shape).

    The norm is the sum of |f^(j)(0)| over j in point, plus the L^q norm
    in r of the angular L^p means M_p(r) of f^(order) under the weight:
    omega(t), t = r^2, for q = inf, and the exponent of the Gauss-Jacobi
    rule (weighted_radial_integral) for finite q.  BMOA's is None.
    """

    order: int
    p: float
    q: float
    weight: object
    point: tuple


def _power_weight(beta: float):
    return lambda t: (1.0 - t) ** beta


def _logbloch_weight(gamma: float):
    return lambda t: (1.0 - t) * np.log(2.0 / (1.0 - t)) ** gamma


def _mixed_shape(s) -> tuple:
    # A weight unbounded toward r = 1 (q = inf) or not integrable there (finite q) leaves only f = 0.
    if not (s.alpha > 0.0 or (s.alpha == 0.0 and s.q == np.inf)):
        raise ParameterError(f"mixed needs alpha > 0, or alpha >= 0 when q = inf, got {s.alpha}")
    weight = s.alpha * s.q - 1.0 if s.q < np.inf else _power_weight(s.alpha) if s.alpha else FLAT_WEIGHT
    return 0, s.p, s.q, weight, ()


# Each family's parameters, and the fields of its NormShape from its SpaceSpec s.
_FAMILIES = {
    "hinf": ((), lambda s: (0, np.inf, np.inf, FLAT_WEIGHT, ())),
    "hardy": (("p",), lambda s: (0, s.p, np.inf, FLAT_WEIGHT, ())),
    "bergman": (("p", "alpha"), lambda s: (0, s.p, s.p, s.alpha, ())),
    "mixed": (("p", "q", "alpha"), _mixed_shape),
    "growth": (("gamma",), lambda s: (0, np.inf, np.inf, _power_weight(s.gamma), ())),
    "bloch": (("beta",), lambda s: (1, np.inf, np.inf, _power_weight(s.beta), (0,))),
    "logbloch": (("gamma",), lambda s: (1, np.inf, np.inf, _logbloch_weight(s.gamma), (0,))),
    "bmoa": ((), lambda s: (1, 2.0, 2.0, None, (0,))),
    "besov": (("p", "alpha"), lambda s: (1, s.p, s.p, s.alpha, (0,))),
    "b1": ((), lambda s: (2, 1.0, 1.0, 0.0, (0, 1))),
}


@dataclasses.dataclass(frozen=True)
class SpaceSpec:
    """One space family with its parameters.

    Unused parameters stay None.  p and q live in [1, inf) with q = inf
    admitted for the mixed family; alpha > -1, and for mixed alpha > 0,
    or alpha >= 0 when q = inf; beta > 0; gamma > 0 for growth and any
    real for logbloch.
    """

    family: str
    p: float | None = None
    q: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown space family {self.family!r}")
        wanted = _FAMILIES[self.family][0]
        for name in ("p", "q", "alpha", "gamma", "beta"):
            val = getattr(self, name)
            if name in wanted:
                if val is None:
                    raise ParameterError(f"{self.family} requires parameter {name}")
                object.__setattr__(self, name, float(val))
            elif val is not None:
                raise ParameterError(f"{self.family} takes no parameter {name}")
        if self.p is not None and not (self.p >= 1.0 and np.isfinite(self.p)):
            raise ParameterError(f"p must lie in [1, inf), got {self.p}")
        if self.q is not None and not self.q >= 1.0:
            raise ParameterError(f"q must lie in [1, inf], got {self.q}")
        if self.alpha is not None and not (self.alpha > -1.0 and np.isfinite(self.alpha)):
            raise ParameterError(f"alpha must exceed -1, got {self.alpha}")
        if self.beta is not None and not (0.0 < self.beta < np.inf):
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.gamma is not None:
            if not np.isfinite(self.gamma):
                raise ParameterError(f"gamma must be finite, got {self.gamma}")
            if self.family == "growth" and self.gamma <= 0.0:
                raise ParameterError(f"growth exponent must be positive, got {self.gamma}")
        self.shape  # deriving the descriptor checks the mixed weight

    @property
    def shape(self) -> NormShape:
        """The mixed-norm descriptor of the norm, derived from the parameters."""
        return NormShape(*_FAMILIES[self.family][1](self))

    @property
    def has_a6_form(self) -> bool:
        return self.shape.order >= 1

    def __str__(self):
        params = [getattr(self, name) for name in _FAMILIES[self.family][0]]
        if not params:
            return self.family
        return self.family + ":" + ",".join(_fmt_param(v) for v in params)


def _fmt_param(v: float) -> str:
    if v == np.inf:
        return "inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def parse_space(s: str) -> SpaceSpec:
    """Parse a space string like `bloch:1` or `mixed:2,inf,0.5`."""
    text = s.strip()
    family, _, tail = text.partition(":")
    family = family.strip().lower()
    if family not in _FAMILIES:
        raise ParseError(f"unknown space family {family!r}")
    wanted = _FAMILIES[family][0]
    if not tail.strip():
        params = []
    else:
        params = [piece.strip() for piece in tail.split(",")]
    if len(params) != len(wanted):
        raise ParseError(
            f"space {family!r} takes {len(wanted)} parameter(s) {wanted}, got {len(params)}"
        )
    values = {}
    for name, piece in zip(wanted, params):
        try:
            values[name] = float(piece)
        except ValueError:
            raise ParseError(f"bad numeric parameter {piece!r} in space {s!r}") from None
    try:
        return SpaceSpec(family, **values)
    except ParameterError as exc:
        raise ParseError(str(exc)) from None


@dataclasses.dataclass(frozen=True)
class NormBreakdown:
    """Total norm with its point and seminorm parts.

    For the five families with the |f(0)| + p(f) decomposition the total
    is exactly point_part + seminorm_part, with point_part = |f(0)| and
    seminorm_part = p(f) as seminorm returns it; for the rest the whole
    value sits in seminorm_part and point_part is 0.
    """

    total: float
    point_part: float
    seminorm_part: float
    has_a6_form: bool


def _power_mean_profile(fam: Family, p: float, cfg: GridConfig, order: int):
    """Callable radii -> M_p(r)^p of each member (order 0) or its derivative (order 1)."""

    def h(radii):
        z = np.asarray(radii)[:, None] * unit_circle(cfg.n_theta)[None, :]
        return fam.rowwise(z, order, lambda vals, rows: np.mean(np.abs(vals) ** p, axis=-1))

    return h


def _mixed_sup_norms(fam: Family, p: float, omega, cfg: GridConfig) -> np.ndarray:
    radii = scan_radii(cfg)
    circle = unit_circle(cfg.n_theta)
    means = _power_mean_profile(fam, p, cfg, 0)(radii) ** (1.0 / p)
    vals = omega(radii ** 2) * means

    def at(x, starts):
        r = x[..., 0]
        mods = np.abs(fam.derivative_at(r[..., None] * circle, 0, starts[0]))
        return omega(r * r) * np.mean(mods ** p, axis=-1) ** (1.0 / p)

    i = np.argmax(vals, axis=1)
    lo = np.where(i > 0, radii[np.maximum(i - 1, 0)], 0.0)
    hi = np.where(i + 1 < len(radii), radii[np.minimum(i + 1, len(radii) - 1)], cfg.r_max)
    return np.maximum(vals.max(axis=1), _polish(at, radii[i, None], lo[:, None], hi[:, None]))


@functools.lru_cache(maxsize=32)
def _bmoa_kernel(cfg: GridConfig) -> tuple:
    # The radial factor of the integrand after the angular average, times
    # (|a| r)^m for the Fourier modes m = 0 .. m_max, as its three
    # factors pref[a, r], r^m and |a|^m; r^m carries the 1 / n_theta of
    # the angular mean, an exact power of two.  Cached like scan_grid:
    # every BMOA norm on a grid uses the same one.
    t, w = gauss01(cfg.n_radial)
    radii = np.sqrt(t)
    mods = np.asarray(_BMOA_A_RADII)
    pref = w * (1.0 - mods[:, None] ** 2) * (1.0 - t) / (1.0 - (mods[:, None] * radii) ** 2)
    m = np.arange(cfg.n_theta // 2)
    return pref, radii[:, None] ** m / cfg.n_theta, mods[:, None] ** m


def _bmoa_seminorms(fam: Family, cfg: GridConfig) -> np.ndarray:
    """Star seminorm: sup over a of the weighted area L2 norm of f'.

    The area integral is evaluated spectrally.  Writing the angular
    expansion D(r e^{i t}) = sum_m d_m(r) e^{i m t} of D = |f'|^2 and
    expanding the Poisson-type kernel of 1 - |phi_a|^2 in powers of
    |a| r turns the integral into a Fourier series in arg(a), which is
    maximized continuously; |a| runs over a fixed ladder of moduli.
    """
    z = np.sqrt(gauss01(cfg.n_radial)[0])[:, None] * unit_circle(cfg.n_theta)[None, :]
    m_max = cfg.n_theta // 2 - 1
    pref, r_pow, a_pow = _bmoa_kernel(cfg)
    # acc[a, k, m] = sum over r of pref[a, r] r^m d_m(r) for member k, as
    # real and imaginary parts side by side: one real product per block.
    acc = np.zeros((len(_BMOA_A_RADII), len(fam), 2 * (m_max + 1)))
    for rows in fam.row_blocks(z, 1):
        D = np.abs(fam.derivative(z[rows], 1).transpose(1, 0, 2)) ** 2
        coeffs = np.fft.rfft(D, axis=-1)[:, :, : m_max + 1] * r_pow[rows, None, :]
        acc += (pref[:, rows] @ coeffs.view(float).reshape(len(coeffs), -1)).reshape(acc.shape)
    # sums[k, a, m] = |a|^m acc[a, k, m]
    sums = (acc.view(complex) * a_pow[:, None, :]).transpose(1, 0, 2)
    # _BMOA_A_RADII starts at |a| = 0, whose profile is the constant s0.
    s0 = sums[:, :, 0].real
    s = sums[:, 1:, 1:]
    padded = np.zeros(s.shape[:2] + (cfg.n_theta,), dtype=complex)
    padded[:, :, 0] = s0[:, 1:]
    padded[:, :, 1 : m_max + 1] = 2.0 * s
    profile = np.fft.ifft(padded, axis=-1).real * cfg.n_theta
    beta0 = 2.0 * np.pi * np.argmax(profile, axis=-1) / cfg.n_theta
    width = 2.0 * np.pi / cfg.n_theta

    def at(x, starts):
        # e^{i m beta} for m = 1 .. m_max as running products of e^{i beta}
        powers = np.cumprod(np.repeat(np.exp(1j * x), m_max, axis=-1), axis=-1)
        return s0[:, 1:][starts][:, None] + 2.0 * np.einsum("nm,njm->nj", s[starts], powers).real

    start = beta0[..., None]
    polished = _polish(at, start, start - width, start + width)
    best = np.maximum(s0[:, 0], np.maximum(profile.max(axis=-1), polished).max(axis=1))
    return np.sqrt(np.maximum(best, 0.0))


def _b1_area_integrals(fam: Family, cfg: GridConfig) -> np.ndarray:
    """Area integral of |f''| for each member, on four times the angular nodes.

    |f''| is not a trigonometric polynomial, so the angular rule sees
    soft kinks at zeros of f''; the finer rule keeps the aliasing error
    well under the isometry tolerances.
    """
    t, w = gauss01(cfg.n_radial)
    z = np.sqrt(t)[:, None] * unit_circle(4 * cfg.n_theta)[None, :]
    return fam.rowwise(z, 2, lambda vals, rows: np.abs(vals).mean(axis=-1)) @ w


def _norm_parts(space: SpaceSpec, fam: Family, cfg: GridConfig) -> tuple:
    """(total, point part, seminorm part) of every member, as arrays.

    On the decomposed families the parts are |f(0)| and p(f); on the
    others the point part is 0 and the seminorm part the whole norm.
    """
    if not len(fam):
        return np.zeros(0), np.zeros(0), np.zeros(0)
    k, p, q, weight, point = space.shape
    # |f(0)| is the point part, the other point terms (|f'(0)| of B1) are the seminorm's.
    # They come from one evaluation of orders 0, 1 and 2 at 0, taken first: evaluating only
    # their orders, or after the norm part, raised the isometry workload's peak RSS from 56 to 61 MB.
    at_zero = fam._shared(np.zeros(1), (0, 1, 2)) if point else None
    if weight is None:
        part = _bmoa_seminorms(fam, cfg)
    elif k == 2:
        part = _b1_area_integrals(fam, cfg)
    elif q < np.inf:
        h = _power_mean_profile(fam, p, cfg, k)
        part = weighted_radial_integral(lambda radii: h(radii) ** (q / p), weight, cfg) ** (1.0 / q)
    elif p == np.inf:
        part = refined_modulus_sup(fam, k, weight, cfg)
    elif weight is FLAT_WEIGHT:
        # M_p(r) increases with r: the sup is the mean on the outer circle.
        part = _power_mean_profile(fam, p, cfg, k)((cfg.r_max,))[:, 0] ** (1.0 / p)
    else:
        part = _mixed_sup_norms(fam, p, weight, cfg)
    origin = [np.abs(at_zero[j][:, 0]) for j in point] or [np.zeros_like(part)]
    part = sum(origin[1:], part)
    return origin[0] + part, origin[0], part


def norms(space: SpaceSpec, family, cfg: GridConfig) -> np.ndarray:
    """Norms of every member of a family, in member order.

    family is a Family or a sequence of expressions (see as_family); the
    members are evaluated together, their derivatives stacked.
    """
    return _norm_parts(space, as_family(family), cfg)[0]


def norm(space: SpaceSpec, f: AnalyticExpr, cfg: GridConfig) -> NormBreakdown:
    """Norm of f in the given space, with its decomposition when present."""
    total, point, semi = _norm_parts(space, as_family(f), cfg)
    return NormBreakdown(float(total[0]), float(point[0]), float(semi[0]), space.has_a6_form)


def seminorms(space: SpaceSpec, family, cfg: GridConfig) -> np.ndarray:
    """The translation-invariant seminorms p of every member, in member order.

    Defined for the decomposed families only.  For B1 p(f) is |f'(0)|
    plus the area integral of |f''|, which drops the |f(0)| term only;
    p(f + C) = p(f) holds exactly for all five families.
    """
    if not space.has_a6_form:
        raise UnsupportedSpace(f"{space.family} has no |f(0)| + p(f) decomposition")
    return _norm_parts(space, as_family(family), cfg)[2]


def seminorm(space: SpaceSpec, f: AnalyticExpr, cfg: GridConfig) -> float:
    """The seminorm p(f) of one expression (see seminorms)."""
    return float(seminorms(space, f, cfg)[0])


# Gauss-Legendre nodes per panel of _increment_integral.
_INCREMENT_NODES = 20


def _increment_integral(rate, r: float) -> float:
    # int_0^r rate(s) ds for a rate analytic near [0, 1) with its
    # singularity at s = 1.  The panels halve the distance to 1, so each
    # is no longer than its distance to the singularity and Gauss-Legendre
    # converges on it like 5.8^(-2n).  Against 40-digit quadrature up to
    # r = 0.99999 it is at least as accurate as scipy's quad, which it
    # replaces so that the first bound of a process imports nothing
    # (scipy.integrate brings scipy.optimize and scipy.linalg with it).
    if r <= 0.0:
        return 0.0
    ends = [0.0]
    while ends[-1] < r:
        ends.append(min(r, 1.0 - 0.5 * (1.0 - ends[-1])))
    lo, hi = np.array(ends[:-1]), np.array(ends[1:])
    t, w = gauss01(_INCREMENT_NODES)
    s = lo[:, None] + (hi - lo)[:, None] * t[None, :]
    return float(((hi - lo)[:, None] * w[None, :] * rate(s)).sum())


def pointeval_bound(space: SpaceSpec, r: float) -> float:
    """A value B(r) with |f(z)| <= (1 + B(r)) ||f|| at |z| = r, family by family.

    Except on hinf, mixed, bmoa and b1, B derives from the NormShape's bound
    b(s) on |f^(k)(z)| / ||f|| at |z| = s: 1/omega(s^2) for p = inf, else
    (1 - s^2)^(-e) with e = 1/p at q = inf and (2 + a)/p for exponent a at
    q = p.  B = b(r) at k = 0; at k = 1, B = int_0^r b bounds |f(z) - f(0)| / ||f||.
    """
    if not 0.0 <= r < 1.0:
        raise ParameterError(f"radius must lie in [0, 1), got {r}")
    if space.family == "hinf":
        return 2.0
    if space.family == "mixed":
        # |f(z)| <= ((rho+r)/(rho-r))^(1/p) M_p(rho) and
        # M_p(rho) <= ||f|| (1-rho^2)^(-alpha); minimize over rho > r.
        rho = r + (1.0 - r) * np.linspace(0.02, 0.98, 400)
        bounds = ((rho + r) / (rho - r)) ** (1.0 / space.p) * (1.0 - rho ** 2) ** (-space.alpha)
        return float(np.min(bounds))
    if space.family == "bmoa":
        # |f'(w)| <= 3 sqrt(2) p(f) / (1 - |w|) via the sub-mean-value
        # property of |f'|^2 on a disk where 1 - |phi_w|^2 >= 8/9
        return 3.0 * np.sqrt(2.0) * np.log(1.0 / (1.0 - r))
    if space.family == "b1":
        # |f''(w)| <= ||f|| / (1 - |w|)^2, integrated twice from 0
        return float(-np.log1p(-r))
    k, p, q, weight, _ = space.shape
    if p == np.inf:
        bound = lambda s: 1.0 / weight(s ** 2)
    else:
        e = 1.0 / p if q == np.inf else (2.0 + weight) / p
        bound = lambda s: (1.0 - s ** 2) ** (-e)
    return float(bound(r)) if k == 0 else _increment_integral(bound, r)
