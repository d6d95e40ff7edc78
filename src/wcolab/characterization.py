"""Decision procedures for invertibility and isometry of the operators.

The logic mirrors the structure of the underlying function theory: an
operator f -> F * (f o phi) is invertible on these spaces exactly when
phi is a disk automorphism and F and 1/F multiply the space into
itself.  The fit and roundtrip residuals behind a positive verdict are
analytic, so they are read on |z| = r_max, where the maximum principle
puts their sup over |z| <= r_max.  On spaces whose norm decomposes as
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
    Mul,
    R_MAX,
    Recip,
    ZERO_THRESHOLD,
    _disk_bounds,
    as_family,
    image_family,
    moebius_from_jet,
    moebius_inverse,
    unit_circle,
    validation_values,
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
    WcoSymbols,
    _check_seed,
    condition_number,
    default_probe_family,
    finite_section,
    isometry_defect,
    random_polynomials,
)
from .quadrature import GridConfig, scan_grid
from .spaces import SpaceSpec, norm, norms, seminorm

AUTOMORPHISM_TOL = 1e-8
UNIMODULAR_TOL = 1e-9
EMPIRICAL_RATIO_CAP = 1e3
TREND_SLOPE_TOL = 0.05
SECTION_DIMENSIONS = (8, 16, 32)
# A condition holds (True), fails exactly (False) or stays unknown (None).
_EXACT = {"Yes_Exact": True, "No_Exact": False}
_VERDICTS = {True: "Invertible", False: "NotInvertible", None: "Inconclusive"}

_HINF = SpaceSpec("hinf")
_LOGBLOCH_1 = SpaceSpec("logbloch", gamma=1.0)


def count_zeros(f: AnalyticExpr, r: float, cfg: GridConfig) -> int:
    """Number of zeros of f in |z| < r, by the argument principle."""
    return winding_number(f, r, cfg.n_theta)


def _count_zeros_retry(f: AnalyticExpr, cfg: GridConfig) -> int:
    # A zero sitting on the contour defeats the winding count; perturb
    # the radius inward a few times before giving up with the first failure.
    first = None
    for shrink in (1.0, 1.0 - 1e-4, 1.0 - 7e-4, 1.0 - 3e-3):
        try:
            return count_zeros(f, cfg.r_max * shrink, cfg)
        except ContourZero as exc:
            first = first or exc
    raise first


@dataclasses.dataclass(frozen=True)
class AutomorphismFit:
    """Result of matching a symbol against the Moebius family."""

    found: bool
    map: MoebiusMap | None
    residual: float | None  # None when no candidate was measured


def detect_automorphism(phi: AnalyticExpr, cfg: GridConfig) -> AutomorphismFit:
    """Decide whether phi is a disk automorphism and recover its parameters.

    An automorphism is fixed by its 1-jet at the origin, so phi(0) and
    phi'(0) give the only candidate (moebius_from_jet), which is accepted
    only when the sup of |phi - candidate| is at most AUTOMORPHISM_TOL.
    That sup is read on |z| = r_max: phi - candidate is analytic wherever
    phi is, so by the maximum principle it is the sup over |z| <= r_max.
    """
    candidate = moebius_from_jet(*phi.derivatives(0j, 1))
    if candidate is None:
        return AutomorphismFit(False, None, None)
    z = cfg.r_max * unit_circle(cfg.n_theta)
    residual = float(np.max(np.abs(phi(z) - candidate(z))))
    if residual <= AUTOMORPHISM_TOL:
        return AutomorphismFit(True, candidate, residual)
    return AutomorphismFit(False, None, residual)


@dataclasses.dataclass(frozen=True)
class MultiplierVerdict:
    """Outcome of testing whether u multiplies a space into itself."""

    status: str
    measured_constant: float
    criterion: str


def _grows_at_boundary(u: AnalyticExpr, space: SpaceSpec, cfg: GridConfig) -> tuple:
    """Whether y(r) = max over |z| = r of omega(r^2) |u^(k)(z)| grows near the boundary, and y on the outermost circle.

    (k, omega) come from a sup space's NormShape.  y grows when its slope
    against log(1/(1-r)) over the six outermost sup_radii exceeds
    TREND_SLOPE_TOL times its largest value there, so c * u grows when u does.
    """
    order, _, _, omega, _ = space.shape
    radii = np.asarray(cfg.sup_radii[-6:], dtype=float)
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    y = omega(radii**2) * np.max(np.abs(u.derivatives(z, order)[order]), axis=1)
    slope = float(np.polyfit(np.log(1.0 / (1.0 - radii)), y, 1)[0])
    return slope > TREND_SLOPE_TOL * float(np.max(np.abs(y))), y[-1]


# A ratio of norms that overflow or vanish is not finite: the callers reject it.
@np.errstate(all="ignore")
def multiplier_test(u: AnalyticExpr, space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> MultiplierVerdict:
    """Test whether u is a pointwise multiplier of the space.

    Exact criteria exist where the multiplier algebra is known in closed
    form: u in hinf for the k = 0 families (order 0 in the space's
    NormShape), and u in hinf and logbloch:1 for the classical Bloch
    space.  A membership fails when the sup over |z| = r grows with r
    near the boundary, relative to its own size, so c * u gets the
    verdict of u for every c != 0; the last space's sup is the constant.
    Elsewhere the test is empirical: norm ratios over the default probe
    family, read as ||u f|| = s ||(u / s) f|| with s the power of two at
    or above max |u|, 2^1023 at most: exact in binary, it keeps the
    ratios of c * u at |c| times those of u.  max |u| is read from the
    bound of u on the closed disk (analytic_core._disk_bounds) where u is
    certified, which makes it a multiplier of every space here, and from
    the validation circle otherwise.  The ratios pass below 1e3 times
    that max |u|, a cap that scales with u, so c * u gets the status of
    u.  The seed is checked first, whichever branch decides.
    """
    _check_seed(seed)
    if isinstance(u, Const):
        return MultiplierVerdict("Yes_Exact", abs(complex(u.value)), "constant symbol")

    spaces = ()
    if space.shape.order == 0:
        criterion, spaces = "bounded modulus", (_HINF,)
    elif space.family == "bloch" and space.beta == 1.0:
        criterion, spaces = "bounded modulus and log-weighted derivative", (_HINF, _LOGBLOCH_1)
    if spaces:
        trends = [_grows_at_boundary(u, s, cfg) for s in spaces]
        if any(grows for grows, _ in trends):
            return MultiplierVerdict("No_Exact", float(max(last for _, last in trends)), criterion)
        return MultiplierVerdict("Yes_Exact", norm(spaces[-1], u, cfg).seminorm_part, criterion)

    probes = as_family(default_probe_family(seed))
    base = norms(space, probes, cfg)
    kept = base >= 1e-14
    peak = np.exp(bounds[1]) if (bounds := _disk_bounds(u, 1.0)) is not None else np.inf
    if not peak < np.inf:
        peak = np.max(np.abs(validation_values(u, "multiplier")))
    s = np.ldexp(1.0, min(np.frexp(peak)[1], 1023))
    ratios = norms(space, image_family(Mul(Const(1.0 / s), u), None, probes), cfg)[kept] / base[kept] * s
    worst = float(np.max(ratios, initial=0.0))
    if worst <= EMPIRICAL_RATIO_CAP * peak:
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
    weight_multiplier: MultiplierVerdict | None = None
    inverse_weight: AnalyticExpr | None = None
    inverse_map: AnalyticExpr | None = None
    roundtrip_residual: float | None = None
    section_conditions: dict | None = None
    caveat: str = ""


def _roundtrip_residual(w: WcoSymbols, G: AnalyticExpr, psi: AnalyticExpr, cfg: GridConfig, seed: int = DEFAULT_SEED) -> float:
    """Sup on |z| = r_max of both roundtrips minus f, over the seeded polynomials f.

    The roundtrips G (F o psi) (f o phi o psi) and F (G o phi) (f o psi o phi)
    are images of images, folded into one image each: for a Moebius phi the
    maps phi o psi and psi o phi reduce to one Moebius node near the
    identity, and the weights take Leibniz's rule over the folded matrices.
    Minus f they are analytic: their sup is on the circle.
    """
    z = cfg.r_max * unit_circle(cfg.n_theta)
    family = as_family(random_polynomials(20, seed))
    f = family.derivative(z, 0)
    roundtrips = (
        image_family(G, psi, image_family(w.F, w.phi, family)),
        image_family(w.F, w.phi, image_family(G, psi, family)),
    )
    return max(float(np.max(np.abs(r.derivative(z, 0) - f))) for r in roundtrips)


def check_invertible(w: WcoSymbols, space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> InvertibilityReport:
    """Full invertibility decision for the operator f -> F * (f o phi).

    The theorem's conditions, in order: phi is an automorphism; F has no
    zero in the disk (a zero counted in |z| < r_max fails it on any grid,
    a count of 0 leaves it open when r_max falls short of R_MAX, as the
    count misses part of the disk); F's minimum modulus on the scan grid
    exceeds ZERO_THRESHOLD times its maximum, or zeros near the boundary
    cannot be excluded; 1/F is a multiplier; F is a multiplier, since an
    invertible operator is bounded, which for an automorphism phi holds
    exactly when F is one.  Each holds, fails exactly or stays unknown.
    The fit, the zero count and the modulus go into every report; a
    multiplier is tested only once the conditions before it hold.  The
    first exact failure gives NotInvertible, the first unknown
    Inconclusive with its caveat, and all holding Invertible.  The
    modulus test is relative, like the zero count, so c * F has the
    verdict of F for every c != 0; the report's min_modulus is absolute.
    A positive verdict ships with the inverse symbols and a roundtrip
    residual on seeded polynomials; its section condition numbers grow
    with N even for an invertible operator, so they are no evidence.
    The seed is checked first, whichever branch decides.
    """
    _check_seed(seed)
    fit = detect_automorphism(w.phi, cfg)
    zeros = _count_zeros_retry(w.F, cfg)
    modulus = np.abs(w.F(scan_grid(cfg)))
    report = InvertibilityReport(space, fit, zeros, float(np.min(modulus)), None, "")

    def conditions():
        # Each condition as (holds, the caveat it leaves when it decides); holds is None when unknown.
        # The fit's candidate is the only automorphism with phi's 1-jet at 0.
        yield fit.found, ""
        # A zero counted in |z| < r_max lies in the disk, but a count of 0 on a
        # circle short of R_MAX misses the zeros beyond it.
        yield zeros == 0, ""
        if cfg.r_max != R_MAX:
            yield None, f"zeros are counted only in |z| < {cfg.r_max}, short of the disk; the count settles no verdict"
        yield None if report.min_modulus <= ZERO_THRESHOLD * float(np.max(modulus)) else True, (
            f"min |F| on the grid is {report.min_modulus:.3e}; zeros near the boundary cannot be excluded"
        )
        report.multiplier = multiplier_test(Recip(w.F), space, cfg, seed)
        yield _EXACT.get(report.multiplier.status), (
            "" if report.multiplier.status == "No_Exact" else "multiplier membership of 1/F is only tested empirically in this space"
        )
        # 1/F's exact test passed, so F's is exact too.
        report.weight_multiplier = multiplier_test(w.F, space, cfg, seed)
        yield _EXACT.get(report.weight_multiplier.status), "F is not a multiplier, so the operator is unbounded"

    for holds, caveat in conditions():
        if not holds:
            report.caveat = caveat
            break
    report.verdict = _VERDICTS[holds]
    if not holds:
        return report
    G, psi = report.inverse_weight, report.inverse_map = inverse_symbols(w, fit)
    report.roundtrip_residual = _roundtrip_residual(w, G, psi, cfg, seed)
    kappa = report.section_conditions = dict.fromkeys(SECTION_DIMENSIONS, float("inf"))
    # Each section is a leading block of the largest one.
    with contextlib.suppress(WcolabError):
        largest = finite_section(w, max(SECTION_DIMENSIONS), cfg)
        for N in SECTION_DIMENSIONS:
            with contextlib.suppress(WcolabError, np.linalg.LinAlgError):
                kappa[N] = condition_number(largest[:N, :N])
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
    sup_f = norm(_HINF, w.F, cfg).total
    inf_f = float(np.min(np.abs(w.F(scan_grid(cfg)))))
    unimodular = (
        abs(sup_f - 1.0) <= UNIMODULAR_TOL
        and abs(inf_f - 1.0) <= UNIMODULAR_TOL
        and seminorm(space, w.F, cfg) <= UNIMODULAR_TOL
    )
    fit = detect_automorphism(w.phi, cfg)
    rotation = fit.found and abs(fit.map.a) <= UNIMODULAR_TOL
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
