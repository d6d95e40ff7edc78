"""Weighted composition operators and their finite-dimensional evidence.

An operator is a pair of symbols (F, phi) acting by f -> F * (f o phi).
Besides exact application as an expression tree, this module builds
truncated coefficient matrices and measures how far an operator is from
being an isometry on a family of test functions.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .analytic_core import AnalyticExpr, Family, Poly, PolyFamily, _image, as_family, image_family, series, validation_values
from .errors import DegenerateInput, ParameterError, SingularMatrix
from .quadrature import GridConfig
from .spaces import SpaceSpec, norms

DEFAULT_SEED = 0x5EED


@dataclasses.dataclass(frozen=True)
class WcoSymbols:
    """Symbols of a weighted composition operator.

    phi must map the disk into itself on the sampled grid and F must be
    finite there; F must not be identically zero and phi must not be
    constant, which would make the operator degenerate.
    """

    F: AnalyticExpr
    phi: AnalyticExpr

    def __post_init__(self):
        phi_vals = validation_values(self.phi, "phi is not a self-map of the disk", 1.0)
        if float(np.max(np.abs(phi_vals - phi_vals[0]))) < 1e-15:
            raise DegenerateInput("phi is constant on the validation circle")
        if not np.any(validation_values(self.F, "F is not finite")):
            raise DegenerateInput("F vanishes identically on the validation circle")


def apply(w: WcoSymbols, f):
    """The image F * (f o phi), exact as an expression tree.

    For a Family f it is the family of the members' images (image_family):
    stacked matrix products when phi is a Moebius node or a composition
    of them, expression trees under any other map.
    """
    return image_family(w.F, w.phi, f) if isinstance(f, Family) else _image(w.F, w.phi, f)


def monomial(k: int) -> Poly:
    """The monomial z^k."""
    if k < 0:
        raise ParameterError(f"monomial degree must be nonnegative, got {k}")
    return Poly((0.0,) * k + (1.0,))


def finite_section(w: WcoSymbols, N: int, cfg: GridConfig) -> np.ndarray:
    """The N-section, the leading N x N block of the operator's matrix, as an array.

    Column k holds the first N Taylor coefficients at 0 of the image
    F * phi^k of z^k, so its leading n x n block is the n-section.  The
    grid only bounds N by n_theta/2.
    """
    if not 2 <= N <= cfg.n_theta // 2:
        raise ParameterError(f"section dimension must lie in [2, n_theta/2], got {N}")
    phi = series(w.phi, N)  # a ParameterError too for a float in that range
    entries = np.empty((N, N), dtype=complex)
    entries[:, 0] = series(w.F, N)
    for k in range(1, N):
        entries[:, k] = np.convolve(entries[:, k - 1], phi)[:N]
    return entries


def condition_number(matrix: np.ndarray) -> float:
    """Ratio of extreme singular values of a section matrix; SingularMatrix at 1e300 or more.

    Heuristic evidence only: growth across dimensions suggests the full
    operator is not boundedly invertible, but no verdict rests on it.
    """
    if len(matrix) < 2:
        raise ParameterError("condition number needs dimension at least 2")
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular[-1] <= 1e-300 * singular[0]:
        raise SingularMatrix("smallest singular value at most 1e-300 of the largest")
    return float(singular[0] / singular[-1])


# A ratio of norms that overflow or vanish is not finite: the callers reject it.
@np.errstate(all="ignore")
def isometry_defect(w: WcoSymbols, space: SpaceSpec, family, cfg: GridConfig) -> float:
    """max over the family of | ||W f|| / ||f|| - 1 |.

    The norms of the fixed probes (_FIXED_PROBES) among a family of
    polynomials are measured once per space and grid (_fixed_probe_norms);
    the other members are measured together, as are all the images.
    """
    family = as_family(family)
    if not len(family):
        raise ParameterError("isometry defect needs a nonempty family")
    # The images first: the members' smaller batches, whose row blocks are
    # taller, then sweep in heap that the images' sweep has grown, and the
    # isometry workload's peak RSS stays at its value with one batch.
    images = norms(space, apply(w, family), cfg)
    denoms = _member_norms(space, family, cfg)
    if np.any(denoms < 1e-14):
        raise DegenerateInput("family member has numerically zero norm")
    ratios = images / denoms
    return float(np.max(np.abs(ratios - 1.0)))


def _member_norms(space: SpaceSpec, family: Family, cfg: GridConfig) -> np.ndarray:
    # norms(space, family, cfg), the fixed probes' read from the cache.
    plain = isinstance(family, PolyFamily) and family.F is None and family.phi is None
    fixed = np.array([_FIXED_INDEX.get(f, -1) for f in family.polys]) if plain else np.full(len(family), -1)
    found = fixed >= 0
    out = np.empty(len(fixed))
    out[found] = _fixed_probe_norms(space, cfg)[fixed[found]]
    out[~found] = norms(space, family.subset(np.flatnonzero(~found)), cfg)
    return out


@functools.lru_cache(maxsize=32)
def _fixed_probe_norms(space: SpaceSpec, cfg: GridConfig) -> np.ndarray:
    # Cached like scan_grid: every isometry check of a space on a grid
    # measures the same fixed probes.
    out = norms(space, _FIXED_PROBES, cfg)
    out.flags.writeable = False
    return out


def _check_seed(seed):
    """seed itself when it is an integer >= 0 (a numpy integer too, a bool not); else ParameterError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be an integer of at least 0, got {seed!r}")
    return seed


def random_polynomials(count: int, seed: int = DEFAULT_SEED) -> tuple:
    """Reproducible polynomials of degree 2 to 12 with coefficients in the unit polydisk, from an integer seed >= 0."""
    rng = np.random.default_rng(_check_seed(seed))
    out = []
    for _ in range(count):
        degree = int(rng.integers(2, 13))
        radius = np.sqrt(rng.uniform(0.0, 1.0, degree + 1))
        angle = rng.uniform(0.0, 2.0 * np.pi, degree + 1)
        out.append(Poly(tuple(radius * np.exp(1j * angle))))
    return tuple(out)


def default_probe_family(seed: int = DEFAULT_SEED) -> tuple:
    """Monomials, seeded random polynomials, and the 1 + lambda z probes.

    The probes with unimodular lambda are the instrument that separates
    isometric from non-isometric operators on the decomposed spaces, so
    they are always part of the defect family.
    """
    return _FIXED_PROBES[:9] + random_polynomials(30, seed) + _FIXED_PROBES[9:]


# The members of every default probe family that do not depend on its
# seed: 1, z, ..., z^8 and the eight 1 + lambda z.
_FIXED_PROBES = tuple(monomial(k) for k in range(9)) + tuple(
    Poly((1.0, lam)) for lam in np.exp(2j * np.pi * np.arange(8) / 8)
)
_FIXED_INDEX = {f: k for k, f in enumerate(_FIXED_PROBES)}
