"""Norm and seminorm evaluators for the disk function space families.

Families: H-infinity, Hardy, weighted Bergman, mixed-norm, growth,
Bloch-type, logarithmic Bloch, BMOA (star norm), weighted Besov, and the
minimal Besov space B1.  Where the norm splits as |f(0)| + p(f) with a
translation-invariant seminorm p, the breakdown is exposed.

Angular means are taken on the GridConfig's circles by one route per
kind of family.  A family with Taylor coefficients (Family.z_coefficients:
polynomials in z, Moebius images, and images under a weight certified
on a circle of radius above 1) sums them for its p = 2 means and
BMOA's modes of |f'|^2, as the n_theta-point rule does up to rounding
where it does not alias.  Any other family is sampled.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from .analytic_core import BLOCK_BYTES, AnalyticExpr, Family, as_family, unit_circle
from .errors import ParameterError, ParseError, UnsupportedSpace
from .quadrature import (
    FLAT_WEIGHT,
    GridConfig,
    _polish,
    _power_means,
    gauss01,
    refined_modulus_sup,
    scan_radii,
    weighted_radial_integral,
)

# BMOA star seminorm scans these moduli of the automorphism parameter a;
# the argument of a is maximized continuously.
_BMOA_A_RADII = (0.0, 0.3, 0.6, 0.8, 0.9, 0.95)
# Members whose BMOA profiles over arg(a) are held at once.
_PROFILE_MEMBERS = 8


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
    # Whole below 2^53, where every integer is a float; 1e+308 stays short.
    if float(v).is_integer() and abs(v) < 2.0**53:
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
    """Callable radii -> M_p(r)^p of each member's derivative of the given order (0, 1 or 2).

    At p = 2 a family with Taylor coefficients (Family.z_coefficients)
    sums |c_j|^2 r^(2j) by Parseval, the terms that the n_theta-point rule
    sums up to rounding below degree n_theta; beyond it the rule aliases.
    Any other family, and every p other than 2, is sampled member by
    member: on n_theta angles, or for p < 2 by the nested rule of
    quadrature._power_means, up to 4 n_theta where |h|^p needs them.
    """
    if p < 2.0:
        return lambda radii: _power_means(fam, p, radii, cfg.n_theta, order)
    coeffs = fam.z_coefficients(order) if p == 2.0 else None
    if coeffs is not None:
        squares = np.abs(coeffs) ** 2
        return lambda radii: squares @ np.asarray(radii)[None, :] ** (2 * np.arange(squares.shape[1]))[:, None]
    circle = unit_circle(cfg.n_theta)
    return lambda radii: fam.rowwise(radii, circle, order, lambda vals, rows: np.mean(np.abs(vals) ** p, axis=-1))


def _mixed_sup_norms(fam: Family, p: float, omega, cfg: GridConfig) -> np.ndarray:
    radii = scan_radii(cfg)
    means = _power_mean_profile(fam, p, cfg, 0)(radii) ** (1.0 / p)
    vals = omega(radii ** 2) * means
    # The polish keeps a fixed rule per point: 4 n_theta angles when
    # p < 2, the cap of the nested rule, as each start has points of its own.
    circle = unit_circle(4 * cfg.n_theta if p < 2.0 else cfg.n_theta)

    def at(x, starts):
        # One point per start at a time: each point is a circle of values.
        r = x[..., 0]
        means = [np.mean(np.abs(fam.derivative_at(r[:, j, None] * circle, 0, starts[0])) ** p, axis=-1) for j in range(r.shape[1])]
        return omega(r * r) * np.stack(means, axis=-1) ** (1.0 / p)

    i = np.argmax(vals, axis=1)
    ladder = np.concatenate([[0.0], radii, [cfg.r_max]])
    return np.maximum(vals.max(axis=1), _polish(at, radii[i, None], ladder[i, None], ladder[i + 2, None]))


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


def _bmoa_mode_sums(fam: Family, cfg: GridConfig) -> np.ndarray:
    """acc[a, k, m] = sum over r of pref[a, r] r^m d_m(r) for member k and the nonzero modes m.

    d_m(r) is mode m of D(r e^{it}) = |f'|^2 = sum_m d_m(r) e^{imt}.  For
    a family with Taylor coefficients (Family.z_coefficients) with
    f' = sum_j b_j z^j, d_m(r) = sum_j b_(j+m) conj(b_j) r^(2j+m): the
    sums are cross-correlations of b against b weighted by sum over r of
    pref[a, r] r^(2(j+m)), products of their FFTs, with no mode at or
    past the width of b.  The real FFT of D on n_theta angles gives
    the same modes, up to rounding, while deg f' <= n_theta / 2; every
    other family takes it, row block by row block.
    """
    pref, r_pow, _ = _bmoa_kernel(cfg)
    m_max = cfg.n_theta // 2 - 1
    b = fam.z_coefficients(1)
    if b is not None:
        width = b.shape[1]
        # Mode 0 is kept for constant f', whose b is empty.
        modes = max(1, min(width, m_max + 1))
        # A circular correlation of this length wraps no lag below the width.
        n = 1 << max(0, 2 * width - 2).bit_length()
        weights = (pref @ gauss01(cfg.n_radial)[0][:, None] ** np.arange(width))[:, None, :]
        acc = np.empty((len(_BMOA_A_RADII), len(fam), modes), dtype=complex)
        # As many members as keep their spectrum and one modulus's transform
        # under BLOCK_BYTES, and as many moduli as keep each transform under it.
        size = max(1, BLOCK_BYTES // (2 * n * 16))
        for k in range(0, len(fam), size):
            part = b[k : k + size]
            spectrum = np.fft.fft(part, n).conj()
            step = max(1, BLOCK_BYTES // (len(part) * n * 16))
            for i in range(0, len(acc), step):
                acc[i : i + step, k : k + size] = np.fft.ifft(np.fft.fft(part * weights[i : i + step], n) * spectrum)[..., :modes]
        return acc
    # The real and imaginary parts side by side: one real product per block.
    acc = np.zeros((len(_BMOA_A_RADII), len(fam), 2 * (m_max + 1)))

    def reduce(values, rows):
        D = np.square(np.abs(values.transpose(1, 0, 2)))
        coeffs = np.fft.rfft(D, axis=-1)[:, :, : m_max + 1] * r_pow[rows, None, :]
        np.add(acc, (pref[:, rows] @ coeffs.view(float).reshape(len(coeffs), -1)).reshape(acc.shape), out=acc)

    fam.rowwise(np.sqrt(gauss01(cfg.n_radial)[0]), unit_circle(cfg.n_theta), 1, reduce)
    return acc.view(complex)


def _bmoa_seminorms(fam: Family, cfg: GridConfig) -> np.ndarray:
    """Star seminorm: sup over a of the weighted area L2 norm of f'.

    The area integral is evaluated spectrally.  Writing the angular
    expansion D(r e^{i t}) = sum_m d_m(r) e^{i m t} of D = |f'|^2 and
    expanding the Poisson-type kernel of 1 - |phi_a|^2 in powers of
    |a| r turns the integral into a Fourier series in arg(a), which is
    maximized continuously; |a| runs over a fixed ladder of moduli.
    The series has the modes of _bmoa_mode_sums: one per coefficient of
    f' for a family of polynomials in z, n_theta / 2 otherwise.
    """
    acc = _bmoa_mode_sums(fam, cfg)
    modes = acc.shape[-1]
    # sums[k, a, m] = |a|^m acc[a, k, m], in acc's place
    acc *= _bmoa_kernel(cfg)[2][:, None, :modes]
    sums = acc.transpose(1, 0, 2)
    # _BMOA_A_RADII starts at |a| = 0, whose profile is the constant s0.
    s0 = sums[:, :, 0].real
    s = sums[:, 1:, 1:]
    # The profiles over arg(a), _PROFILE_MEMBERS members at a time: each
    # row's inverse FFT is the same alone.
    peak, beta0 = np.empty(s.shape[:2]), np.empty(s.shape[:2])
    for k in range(0, len(s), _PROFILE_MEMBERS):
        part = slice(k, k + _PROFILE_MEMBERS)
        padded = np.zeros(s[part].shape[:2] + (cfg.n_theta,), dtype=complex)
        padded[:, :, 0] = s0[part, 1:]
        padded[:, :, 1:modes] = 2.0 * s[part]
        profile = np.fft.ifft(padded, axis=-1).real * cfg.n_theta
        peak[part] = profile.max(axis=-1)
        beta0[part] = 2.0 * np.pi * np.argmax(profile, axis=-1) / cfg.n_theta
    width = 2.0 * np.pi / cfg.n_theta

    def at(x, starts):
        # e^{i m beta}, m = 1 .. modes - 1, as running products of e^{i beta}, for as
        # many points of each start at once as BLOCK_BYTES holds: a line search asks nine.
        out, base, series = np.empty(x.shape[:-1]), s0[:, 1:][starts][:, None], s[starts]
        step = max(1, BLOCK_BYTES // (16 * len(x) * modes))
        for j in range(0, x.shape[1], step):
            e = np.exp(1j * x[:, j : j + step])
            powers = np.cumprod(np.broadcast_to(e, e.shape[:-1] + (modes - 1,)), axis=-1)
            out[:, j : j + step] = base + 2.0 * np.einsum("nm,njm->nj", series, powers).real
        return out

    start = beta0[..., None]
    polished = _polish(at, start, start - width, start + width)
    best = np.maximum(s0[:, 0], np.maximum(peak, polished).max(axis=1))
    return np.sqrt(np.maximum(best, 0.0))


# numpy's warnings stay inside: an overflow or underflow is rescaled, and
# what is still not finite the callers reject.
@np.errstate(all="ignore")
def _norm_parts(space: SpaceSpec, fam: Family, cfg: GridConfig) -> tuple:
    """(total, point part, seminorm part) of every member, as arrays.

    On the decomposed families the parts are |f(0)| and p(f); on the
    others the point part is 0 and the seminorm part the whole norm.
    Every norm is s times that of f / s, exactly for s a power of two.
    A total that is not finite, or whose e-th power is below 2^-960,
    where e is the largest finite exponent the norm raises values to,
    p or q (1 for the sups), may have overflowed or underflowed on the
    way: that member is measured again as f / s in its own family, with
    s the power of two at or below its largest modulus on the circle
    |z| = r_max, its exponent clipped to [-1023, 1023].  Members in
    range, the common case, cost nothing more.
    """
    parts = _unscaled_parts(space, fam, cfg)
    _, p, q, _, _ = space.shape
    e = max((x for x in (p, q) if x < np.inf), default=1.0)
    redo = np.flatnonzero(~((parts[0] >= 2.0 ** (-960.0 / e)) & (parts[0] < np.inf)))
    if len(redo):
        members = fam.subset(redo)
        peaks = np.max(np.abs(members.derivative(cfg.r_max * unit_circle(cfg.n_theta), 0)), axis=1)
        kept = np.flatnonzero((peaks > 0.0) & (peaks < np.inf))
        scales = np.ldexp(1.0, np.clip(np.frexp(peaks[kept])[1] - 1, -1023, 1023))
        for whole, part in zip(parts, _unscaled_parts(space, members.subset(kept, 1.0 / scales), cfg)):
            whole[redo[kept]] = part * scales
    return parts


def _unscaled_parts(space: SpaceSpec, fam: Family, cfg: GridConfig) -> tuple:
    if not len(fam):
        return np.zeros(0), np.zeros(0), np.zeros(0)
    k, p, q, weight, point = space.shape
    # |f(0)| is the point part, the other point terms (|f'(0)| of B1) are the seminorm's.
    origin = [np.abs(fam.derivative(np.zeros(1), j)[:, 0]) for j in point]
    if weight is None:
        part = _bmoa_seminorms(fam, cfg)
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
    origin = origin or [np.zeros_like(part)]
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


# A weight that overflows or underflows makes the bound 0 or inf, not a warning.
@np.errstate(all="ignore")
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
        bound = lambda s: np.divide(1.0, weight(s ** 2))
    else:
        e = 1.0 / p if q == np.inf else (2.0 + weight) / p
        bound = lambda s: (1.0 - s ** 2) ** (-e)
    return float(bound(r)) if k == 0 else _increment_integral(bound, r)
