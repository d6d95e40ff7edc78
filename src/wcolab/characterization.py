"""Decision procedures for invertibility and isometry of the operators.

The logic mirrors the structure of the underlying function theory: an
operator f -> F * (f o phi) is invertible on these spaces exactly when
phi is a disk automorphism, F has no zeros in the disk, and 1/F
multiplies the space into itself.  On spaces whose norm decomposes as
|f(0)| + p(f) with a conformally invariant seminorm, the surjective
isometries are even more rigid: F a unimodular constant and phi a
rotation.  Each procedure reports the measured evidence alongside its
verdict so a failed criterion can be traced to a number.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from .analytic_core import (
    AnalyticExpr,
    Compose,
    Const,
    Moebius,
    MoebiusMap,
    R_MAX,
    Recip,
    as_family,
    image_family,
    moebius_inverse,
    unit_circle,
    winding_number,
)
from .errors import (
    ContourZero,
    DomainError,
    NonVanishingViolation,
    ParameterError,
    UnsupportedSpace,
    WcolabError,
)
from .operators import (
    DEFAULT_SEED,
    SECTION_RADIUS,
    FiniteSection,
    WcoSymbols,
    condition_number,
    default_probe_family,
    finite_section,
    isometry_defect,
    random_polynomials,
)
from .quadrature import FLAT_WEIGHT, GridConfig, refined_modulus_sup, scan_grid
from .spaces import SpaceSpec, _logbloch_weight, norms, seminorm

AUTOMORPHISM_TOL = 1e-8
UNIMODULAR_TOL = 1e-9
MIN_MODULUS_TOL = 1e-9
EMPIRICAL_RATIO_CAP = 1e3
TREND_SLOPE_TOL = 0.05
SECTION_DIMENSIONS = (8, 16, 32)

# Families where the multiplier algebra is exactly the bounded analytic
# functions, so boundedness of |u| settles membership.
_BOUNDED_MODULUS_FAMILIES = frozenset({"hinf", "hardy", "bergman", "growth", "mixed"})


def count_zeros(f: AnalyticExpr, r: float, cfg: GridConfig) -> int:
    """Number of zeros of f in |z| < r, by the argument principle."""
    return winding_number(f, r, cfg.n_theta)


def _count_zeros_retry(f: AnalyticExpr, cfg: GridConfig) -> int:
    # A zero sitting on the contour defeats the winding count; perturb
    # the radius inward a few times before giving up.
    last = None
    for shrink in (1.0, 1.0 - 1e-4, 1.0 - 7e-4, 1.0 - 3e-3):
        try:
            return count_zeros(f, cfg.r_max * shrink, cfg)
        except ContourZero as exc:
            last = exc
    raise last


@dataclasses.dataclass(frozen=True)
class AutomorphismFit:
    """Result of matching a symbol against the Moebius family."""

    found: bool
    map: MoebiusMap | None
    residual: float


def detect_automorphism(phi: AnalyticExpr, cfg: GridConfig) -> AutomorphismFit:
    """Decide whether phi is a disk automorphism and recover its parameters.

    An automorphism lam * (a - z) / (1 - conj(a) z) has exactly one zero
    in the disk, at z = a.  The zero count gates the attempt; the zero
    location is polished by Newton from the best grid point, lam is read
    off at the origin, and the candidate is accepted only when the sup
    of |phi - candidate| over the grid is at most 1e-8.
    """
    zeros = count_zeros(phi, cfg.r_max, cfg)
    if zeros != 1:
        return AutomorphismFit(False, None, float("inf"))

    pts = scan_grid(cfg)
    vals = phi(pts)
    flat = int(np.argmin(np.abs(vals)))
    z = complex(pts.flat[flat])
    for _ in range(60):
        f, df = phi.derivatives(z, 1)
        if abs(df) < 1e-30:
            break
        step = f / df
        z = z - step
        if abs(z) >= 1.0:
            return AutomorphismFit(False, None, float("inf"))
        if abs(step) < 1e-15:
            break

    a_star = z if abs(z) > 1e-9 else 0.0 + 0.0j
    if a_star == 0:
        lam = -phi.derivatives(0.0 + 0.0j, 1)[1]
    else:
        lam = phi(0.0 + 0.0j) / a_star
    scale = abs(lam)
    if scale < 1e-12:
        return AutomorphismFit(False, None, float("inf"))
    lam = lam / scale

    candidate = MoebiusMap(a_star, lam)
    residual = float(np.max(np.abs(vals - candidate(pts))))
    if residual <= AUTOMORPHISM_TOL:
        return AutomorphismFit(True, candidate, residual)
    return AutomorphismFit(False, None, residual)


@dataclasses.dataclass(frozen=True)
class MultiplierVerdict:
    """Outcome of testing whether u multiplies a space into itself."""

    status: str
    measured_constant: float
    criterion: str


def _ladder_profile(u: AnalyticExpr, cfg: GridConfig, order: int = 0):
    radii = np.asarray(cfg.sup_radii, dtype=float)
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    vals = u.derivatives(z, order)[order]
    return radii, np.max(np.abs(vals), axis=1)


def _trend_slope(radii: np.ndarray, profile: np.ndarray) -> float:
    """Relative slope of the profile against log(1/(1-r)) near the boundary."""
    x = np.log(1.0 / (1.0 - radii[-6:]))
    y = profile[-6:]
    slope = float(np.polyfit(x, y, 1)[0])
    return slope / max(float(np.max(np.abs(y))), 1e-12)


def multiplier_test(u: AnalyticExpr, space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> MultiplierVerdict:
    """Test whether u is a pointwise multiplier of the space.

    Exact criteria exist where the multiplier algebra is known in closed
    form: bounded modulus for the integral and growth families, and for
    the classical Bloch space boundedness of both |u| and the
    log-weighted derivative (1-|z|^2) log(2/(1-|z|^2)) |u'(z)|.
    Elsewhere the test is empirical: norm ratios over the default probe
    family, capped at 1e3.
    """
    if isinstance(u, Const):
        return MultiplierVerdict("Yes_Exact", abs(complex(u.value)), "constant symbol")

    if space.family in _BOUNDED_MODULUS_FAMILIES:
        radii, profile = _ladder_profile(u, cfg)
        slope = _trend_slope(radii, profile)
        if slope > TREND_SLOPE_TOL:
            return MultiplierVerdict("No_Exact", float(profile[-1]), "bounded modulus")
        sup_u = float(refined_modulus_sup(u, 0, *FLAT_WEIGHT, cfg)[0])
        return MultiplierVerdict("Yes_Exact", sup_u, "bounded modulus")

    if space.family == "bloch" and space.beta == 1.0:
        radii, profile0 = _ladder_profile(u, cfg)
        slope0 = _trend_slope(radii, profile0)
        _, dprofile = _ladder_profile(u, cfg, order=1)
        omega, dlog_omega = _logbloch_weight(1.0)
        weighted = omega(radii**2) * dprofile
        slope1 = _trend_slope(radii, weighted)
        criterion = "bounded modulus and log-weighted derivative"
        if slope0 > TREND_SLOPE_TOL or slope1 > TREND_SLOPE_TOL:
            worst = float(max(profile0[-1], weighted[-1]))
            return MultiplierVerdict("No_Exact", worst, criterion)
        measured = float(refined_modulus_sup(u, 1, omega, dlog_omega, cfg)[0])
        return MultiplierVerdict("Yes_Exact", measured, criterion)

    probes = as_family(default_probe_family(seed))
    base = norms(space, probes, cfg)
    kept = base >= 1e-14
    ratios = norms(space, image_family(u, None, probes), cfg)[kept] / base[kept]
    worst = float(np.max(ratios, initial=0.0))
    if worst <= EMPIRICAL_RATIO_CAP:
        return MultiplierVerdict("Yes_Empirical", worst, "empirical norm ratios")
    return MultiplierVerdict("Inconclusive", worst, "empirical norm ratios")


def inverse_symbols(w: WcoSymbols, fit: AutomorphismFit):
    """Symbols (G, psi) of the inverse operator.

    psi is the inverse automorphism and G = 1 / (F o psi); building G
    fails with NonVanishingViolation when F o psi has zeros, which is
    exactly when F itself does.
    """
    if not fit.found or fit.map is None:
        raise ParameterError("inverse symbols require a successful automorphism fit")
    psi = Moebius(moebius_inverse(fit.map))
    try:
        G = Recip(Compose(w.F, psi))
    except DomainError as exc:
        raise NonVanishingViolation(f"F composed with the inverse map vanishes: {exc}") from exc
    return G, psi


@dataclasses.dataclass
class InvertibilityReport:
    space: SpaceSpec
    automorphism: AutomorphismFit
    zero_count: int
    min_modulus: float
    multiplier: MultiplierVerdict | None
    verdict: str
    inverse_weight: AnalyticExpr | None = None
    inverse_map: AnalyticExpr | None = None
    roundtrip_residual: float | None = None
    section_conditions: dict | None = None
    caveat: str = ""


def _roundtrip_residual(w: WcoSymbols, G: AnalyticExpr, psi: AnalyticExpr, cfg: GridConfig, seed: int = DEFAULT_SEED) -> float:
    """sup-grid residual of both composition orders against the identity.

    The roundtrips G (F o psi) (f o phi o psi) and F (G o phi) (f o psi o phi)
    minus f are taken on the power tables of the seeded polynomials f, one
    matrix product per order; every composed point is checked to lie in
    the disk.
    """
    pts = scan_grid(cfg)
    family = as_family(random_polynomials(20, seed))
    worst = 0.0
    for rows in family.row_blocks(pts, 0):
        z = pts[rows]
        psi_z, phi_z = psi(z), w.phi(z)
        for weight, point in ((G(z) * w.F(psi_z), w.phi(psi_z)), (w.F(z) * G(phi_z), psi(phi_z))):
            residual = family.combination(((weight, point), (-1.0, z)))
            worst = max(worst, float(np.max(np.abs(residual))))
    return worst


def check_invertible(w: WcoSymbols, space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> InvertibilityReport:
    """Full invertibility decision for the operator f -> F * (f o phi).

    NotInvertible always rests on an exact negative: a failed
    automorphism fit, or zeros of F inside the disk, or an exact
    multiplier criterion failing for 1/F.  Inconclusive covers the
    empirical-multiplier families, weights whose minimum modulus is too
    small to exclude near-boundary zeros, maps phi without a zero in
    |z| < r_max but with |phi(0)| >= r_max, and grids with r_max short of
    R_MAX, whose zero counts miss part of the disk.  A positive verdict ships
    with the inverse symbols, a roundtrip residual on seeded
    polynomials, and section condition numbers as corroborating
    evidence.
    """
    fit = detect_automorphism(w.phi, cfg)
    zeros = _count_zeros_retry(w.F, cfg)
    min_mod = float(np.min(np.abs(w.F(scan_grid(cfg)))))
    report = InvertibilityReport(space, fit, zeros, min_mod, None, "Inconclusive")

    # A zero count on a circle short of R_MAX misses the zeros beyond it,
    # so there it settles no verdict.
    counts_decide = cfg.r_max == R_MAX
    partial_count = f"zeros are counted only in |z| < {cfg.r_max}, short of the disk; the count settles no verdict"
    if not fit.found:
        # An automorphism has exactly one zero a, and |phi(0)| = |a|.  So a
        # count of none rejects phi when a would lie inside the counting
        # circle, and so does two or more; a count of one failed the fit.
        if abs(w.phi(0j)) < cfg.r_max or count_zeros(w.phi, cfg.r_max, cfg) != 0:
            report.verdict = "NotInvertible"
        else:
            report.caveat = (
                f"phi has no zero in |z| < {cfg.r_max}; an automorphism with its zero beyond that circle is not excluded"
            )
        return report
    if not counts_decide:
        report.caveat = partial_count
        return report
    if zeros != 0:
        report.verdict = "NotInvertible"
        return report
    if min_mod <= MIN_MODULUS_TOL:
        report.caveat = (
            f"min |F| on the grid is {min_mod:.3e}; zeros near the boundary cannot be excluded"
        )
        return report

    recip = Recip(w.F)
    report.multiplier = multiplier_test(recip, space, cfg, seed)
    if report.multiplier.status == "No_Exact":
        report.verdict = "NotInvertible"
        return report
    if report.multiplier.status != "Yes_Exact":
        report.caveat = "multiplier membership of 1/F is only tested empirically in this space"
        return report

    report.verdict = "Invertible"
    G, psi = inverse_symbols(w, fit)
    report.inverse_weight = G
    report.inverse_map = psi
    report.roundtrip_residual = _roundtrip_residual(w, G, psi, cfg, seed)
    conditions = report.section_conditions = dict.fromkeys(SECTION_DIMENSIONS, float("inf"))
    # Each section is a leading block of the largest one: the same FFT on the same circle.
    with contextlib.suppress(WcolabError):
        entries = finite_section(w, max(SECTION_DIMENSIONS), cfg).entries
        for N in SECTION_DIMENSIONS:
            with contextlib.suppress(WcolabError, np.linalg.LinAlgError):
                conditions[N] = condition_number(FiniteSection(N, entries[:N, :N], SECTION_RADIUS))
    return report


@dataclasses.dataclass
class IsometryReport:
    space: SpaceSpec
    surjective_isometry: bool
    F_is_unimodular_constant: bool
    phi_is_rotation: bool
    measured_defect: float
    phi_origin_value: complex


def check_isometry(w: WcoSymbols, space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> IsometryReport:
    """Surjective isometry decision on the decomposed-norm spaces.

    Requires a space whose norm is |f(0)| + p(f); elsewhere the rigidity
    statement is not available and UnsupportedSpace is raised.  The
    criterion is F a unimodular constant (sup and inf of |F| within
    1e-9 of 1 and vanishing seminorm) and phi a rotation.
    """
    if not space.has_a6_form:
        raise UnsupportedSpace(
            f"surjective isometry rigidity needs the decomposed norm; {space} does not have it"
        )
    sup_f = float(refined_modulus_sup(w.F, 0, *FLAT_WEIGHT, cfg)[0])
    inf_f = float(np.min(np.abs(w.F(scan_grid(cfg)))))
    unimodular = (
        abs(sup_f - 1.0) <= UNIMODULAR_TOL
        and abs(inf_f - 1.0) <= UNIMODULAR_TOL
        and seminorm(space, w.F, cfg) <= UNIMODULAR_TOL
    )
    fit = detect_automorphism(w.phi, cfg)
    rotation = fit.found and fit.map is not None and abs(fit.map.a) <= UNIMODULAR_TOL
    origin = w.phi(0.0 + 0.0j)
    defect = isometry_defect(w, space, default_probe_family(seed), cfg)
    return IsometryReport(
        space=space,
        surjective_isometry=unimodular and rotation,
        F_is_unimodular_constant=unimodular,
        phi_is_rotation=rotation,
        measured_defect=defect,
        phi_origin_value=origin,
    )
