"""Weighted composition operators and their finite-dimensional evidence.

An operator is a pair of symbols (F, phi) acting by f -> F * (f o phi).
Besides exact application as an expression tree, this module builds
truncated coefficient matrices and measures how far an operator is from
being an isometry on a family of test functions.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import numpy.random  # loaded here rather than by the first random_polynomials call

from .analytic_core import AnalyticExpr, Family, Poly, _image, as_family, image_family, series, validation_values
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

    For a Family f it is the family of the members' images, evaluated
    as stacked batches (see image_family).
    """
    return image_family(w.F, w.phi, f) if isinstance(f, Family) else _image(w.F, w.phi, f)


@dataclasses.dataclass(frozen=True, eq=False)
class FiniteSection:
    """Leading N x N block of the coefficient matrix of an operator.

    Column k holds the first N Taylor coefficients at 0 of the image
    F * phi^k of z^k.
    """

    dimension: int
    entries: np.ndarray


def monomial(k: int) -> Poly:
    """The monomial z^k."""
    if k < 0:
        raise ParameterError(f"monomial degree must be nonnegative, got {k}")
    return Poly((0.0,) * k + (1.0,))


def finite_section(w: WcoSymbols, N: int, cfg: GridConfig) -> FiniteSection:
    """The N-section from the power series of F and phi at 0.

    Column k is the series of F times that of phi^k, truncated to N
    terms, so its leading n x n block is the n-section.  The grid only
    bounds N by n_theta/2.
    """
    if not 2 <= N <= cfg.n_theta // 2:
        raise ParameterError(f"section dimension must lie in [2, n_theta/2], got {N}")
    phi = series(w.phi, N)
    entries = np.empty((N, N), dtype=complex)
    entries[:, 0] = series(w.F, N)
    for k in range(1, N):
        entries[:, k] = np.convolve(entries[:, k - 1], phi)[:N]
    return FiniteSection(N, entries)


def condition_number(s: FiniteSection) -> float:
    """Ratio of extreme singular values of the section matrix.

    Heuristic evidence only: growth across dimensions suggests the full
    operator is not boundedly invertible, but no verdict rests on it.
    """
    if s.dimension < 2:
        raise ParameterError("condition number needs dimension at least 2")
    singular = np.linalg.svd(s.entries, compute_uv=False)
    if singular[-1] < 1e-300:
        raise SingularMatrix("smallest singular value below 1e-300")
    return float(singular[0] / singular[-1])


def isometry_defect(w: WcoSymbols, space: SpaceSpec, family, cfg: GridConfig) -> float:
    """max over the family of | ||W f|| / ||f|| - 1 |."""
    family = as_family(family)
    if not len(family):
        raise ParameterError("isometry defect needs a nonempty family")
    denoms = norms(space, family, cfg)
    if np.any(denoms < 1e-14):
        raise DegenerateInput("family member has numerically zero norm")
    ratios = norms(space, apply(w, family), cfg) / denoms
    return float(np.max(np.abs(ratios - 1.0)))


def random_polynomials(count: int, seed: int = DEFAULT_SEED) -> tuple:
    """Reproducible polynomials of degree 2 to 12 with coefficients in the unit polydisk."""
    rng = np.random.default_rng(seed)
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
    monomials = tuple(monomial(k) for k in range(9))
    randoms = random_polynomials(30, seed)
    lambdas = np.exp(2j * np.pi * np.arange(8) / 8)
    probes = tuple(Poly((1.0, lam)) for lam in lambdas)
    return monomials + randoms + probes
