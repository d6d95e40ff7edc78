"""Numerical verification of the standing axioms on every space family.

The decision procedures are only valid on spaces satisfying a short
list of structural axioms: bounded point evaluations (A1), norm one for
the constant 1 (A2), boundedness of the shift (A3), a norm bound for
f * u^alpha assembled from low powers (A4), boundedness of composition
with disk automorphisms (A5), and for the decomposed-norm spaces the
invariance of the seminorm under constants (A6).  This module measures
each of them on a fixed probe family and reports pass/fail with the
witnesses, so a space implementation that drifts out of the axioms is
caught by numbers rather than by downstream nonsense.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .analytic_core import Const, Moebius, MoebiusMap, Mul, Poly, Pow, as_family, image_family, unit_circle
from .operators import DEFAULT_SEED, monomial, random_polynomials
from .quadrature import GridConfig
from .spaces import SpaceSpec, _norm_parts, norm, norms, pointeval_bound, seminorms

A1_RADII = (0.1, 0.3, 0.5, 0.7, 0.9)
# The instance of A4: u = 2/3 + z/3, admissible for the principal-branch power, and f = z^2.
A4_U = Poly((2.0 / 3.0, 1.0 / 3.0))
A4_F = monomial(2)
A5_POINTS = (0.3, 0.5j, -0.7)
A6_CONSTANTS = (5.0, -2.0 + 1.0j, 0.25j)
STABILITY_CAP = 1.1
CHAIN_SLACK = 1.05

# One spec string per family, the profile the whole suite is run over.
ALL_FAMILIES = (
    "hinf",
    "hardy:2",
    "bergman:2,0",
    "mixed:2,2,0.5",
    "growth:1",
    "bloch:1",
    "logbloch:1",
    "bmoa",
    "besov:2,0",
    "b1",
)


@dataclasses.dataclass
class AxiomReport:
    axiom: str
    space: SpaceSpec
    passed: bool
    measured: dict
    witnesses: tuple = ()
    note: str = ""


def harness_family(seed: int = DEFAULT_SEED) -> tuple:
    """Probe family for the axiom checks: small, seeded, reproducible."""
    monomials = tuple(monomial(k) for k in range(5))
    randoms = random_polynomials(8, seed)
    probes = (Poly((1.0, 1.0)), Poly((1.0, 1.0j)))
    return monomials + randoms + probes


class _Probes:
    """A probe family with its norms and seminorms, from one evaluation.

    run_all hands one to A1, A3 and A5, so the base family is measured
    once per space instead of once per check, and each member's norm on
    the refined grid at most once.
    """

    def __init__(self, space: SpaceSpec, cfg: GridConfig, family=None):
        self.space = space
        self.cfg = cfg
        self.family = as_family(harness_family() if family is None else family)
        self.norms, _, self.seminorms = _norm_parts(space, self.family, cfg)
        # Norms on the refined grid, by member index, filled by _image_bound.
        self.refined = {}


def _probes(space: SpaceSpec, cfg: GridConfig, family) -> _Probes:
    return family if isinstance(family, _Probes) else _Probes(space, cfg, family)


# A ratio of norms that overflow or vanish is not finite: the callers reject it.
@np.errstate(all="ignore")
def _image_bound(probes: _Probes, image_of) -> tuple:
    """Largest ratio ||image|| / ||f|| over the family, and the same ratio on a refined grid.

    image_of maps a family to the family of its members' images.  The
    refined ratio is taken for the first member within 1e-12 relative of
    the largest one, so that ratios equal up to rounding (all of them on
    hinf) do not let last-bit noise pick the member.  Returns (bound,
    refined bound, stability ratio, seminorm parts of the images' norms).
    """
    space, cfg = probes.space, probes.cfg
    totals, _, semi = _norm_parts(space, image_of(probes.family), cfg)
    ratios = totals / probes.norms
    bound = float(np.max(ratios))
    near = ratios >= bound * (1.0 - 1e-12) if np.isfinite(bound) else ratios
    worst = int(np.argmax(near))
    member = as_family(probes.family[worst])
    fine = cfg.refined()
    if worst not in probes.refined:
        probes.refined[worst] = norms(space, member, fine)[0]
    refined = float(norms(space, image_of(member), fine)[0] / probes.refined[worst])
    return bound, refined, max(bound / refined, refined / bound), semi


# A peak over a norm that overflows or vanishes is not finite: the callers reject it.
@np.errstate(all="ignore")
def check_a1(space: SpaceSpec, cfg: GridConfig, family=None) -> AxiomReport:
    """Point evaluations are bounded by the per-space growth estimate.

    For each radius the largest value of |f(z)| / ||f|| over the family
    and the circle must stay below 1.05 * (1 + pointeval_bound), the
    slack covering quadrature error in the norms.
    """
    probes = _probes(space, cfg, family)
    z = np.asarray(A1_RADII)[:, None] * unit_circle(cfg.n_theta)[None, :]
    peaks = np.abs(probes.family.derivative(z, 0)).max(axis=-1, initial=0.0) / probes.norms[:, None]
    estimates, bounds, witnesses = [], [], []
    for r, est in zip(A1_RADII, peaks.max(axis=0, initial=0.0)):
        est = float(est)
        bound = CHAIN_SLACK * (1.0 + pointeval_bound(space, r))
        estimates.append(est)
        bounds.append(bound)
        if est > bound:
            witnesses.append({"radius": r, "estimate": est, "bound": bound})
    return AxiomReport(
        "A1",
        space,
        not witnesses,
        {"radii": list(A1_RADII), "estimates": estimates, "bounds": bounds},
        tuple(witnesses),
    )


def check_a2(space: SpaceSpec, cfg: GridConfig) -> AxiomReport:
    """The constant function 1 has norm exactly 1."""
    value = norm(space, Const(1.0), cfg).total
    defect = abs(value - 1.0)
    passed = defect <= 1e-9
    witnesses = ({"norm_of_one": value},) if not passed else ()
    return AxiomReport("A2", space, passed, {"norm_of_one": value, "defect": defect}, witnesses)


def check_a3(space: SpaceSpec, cfg: GridConfig, family=None) -> AxiomReport:
    """The shift f -> z f is bounded, with a refinement-stable bound."""
    probes = _probes(space, cfg, family)
    bound, refined_bound, stability, _ = _image_bound(probes, lambda fam: image_family(monomial(1), None, fam))
    passed = bool(np.isfinite(bound)) and stability < STABILITY_CAP
    witnesses = () if passed else ({"bound": bound, "refined": refined_bound},)
    return AxiomReport(
        "A3",
        space,
        passed,
        {"shift_bound": bound, "refined_bound": refined_bound, "stability_ratio": stability},
        witnesses,
    )


def check_a4(space: SpaceSpec, cfg: GridConfig) -> AxiomReport:
    """Norm bound for f * u^alpha assembled from low powers of u.

    Measured at u = A4_U and f = A4_F.  The chain bounds ||f u^alpha||
    by sup-norm powers of u against ||f|| and ||f u||; the minimal space
    needs ||f u^2|| as well because two derivatives fall on u^alpha, so
    there alpha = 3.5, elsewhere 2.5.  A non-integer alpha exercises the
    principal-branch power; f and the low powers f u^n are polynomial products.
    """
    u, f = A4_U, A4_F
    alpha = 3.5 if space.shape.order == 2 else 2.5
    sup_u = norm(SpaceSpec("hinf"), u, cfg).total
    left = norm(space, Mul(f, Pow(u, alpha)), cfg).total
    u_n = itertools.accumulate([u.coeffs] * 3, np.convolve, initial=np.ones(1))  # u^n = u^(n-1) convolved with u
    chain = norms(space, [Poly(np.convolve(f.coeffs, c)) for c in u_n], cfg)
    norm_f, powers = float(chain[0]), {n: float(chain[n]) for n in (1, 2, 3)}
    if space.shape.order == 2:
        right = (
            alpha * (alpha - 1.0) / 2.0 * sup_u ** (alpha - 2.0) * powers[2]
            + alpha * (alpha - 2.0) * sup_u ** (alpha - 1.0) * powers[1]
            + ((alpha - 1.0) * (alpha - 2.0) / 2.0 + alpha + 1.0) * sup_u**alpha * norm_f
        )
    else:
        right = (
            sup_u**alpha * norm_f
            + alpha * sup_u ** (alpha - 1.0) * powers[1]
            + (alpha - 1.0) * sup_u**alpha * norm_f
        )
    finite = all(np.isfinite(v) for v in powers.values())
    passed = finite and left <= CHAIN_SLACK * right
    measured = {
        "left": left,
        "right": right,
        "slack": right - left,
        "alpha": alpha,
        "sup_u": sup_u,
        "sampled_powers": {str(n): v for n, v in powers.items()},
    }
    witnesses = () if passed else ({"left": left, "right": right},)
    return AxiomReport("A4", space, passed, measured, witnesses)


def check_a5(space: SpaceSpec, cfg: GridConfig, family=None) -> AxiomReport:
    """Composition with the involution exchanging 0 and a is bounded, at each a of A5_POINTS.

    measured holds one entry per point, keyed "a=<a>", and the report
    passes when no point gives a witness.  On the classical Bloch space
    the seminorm is conformally invariant, so there the bound is
    sharpened to an equality check on p(f o phi_a) against p(f).
    """
    probes = _probes(space, cfg, family)
    measured, witnesses = {}, []
    for a in A5_POINTS:
        phi_a = Moebius(MoebiusMap(complex(a), 1.0))
        bound, refined_bound, stability, image_seminorms = _image_bound(
            probes, lambda fam: image_family(None, phi_a, fam)
        )
        point = measured[f"a={a}"] = {
            "a": complex(a),
            "composition_bound": bound,
            "refined_bound": refined_bound,
            "stability_ratio": stability,
        }
        if not (np.isfinite(bound) and stability < STABILITY_CAP):
            witnesses.append({"a": complex(a), "bound": bound, "refined": refined_bound})
        if space.family == "bloch" and space.beta == 1.0:
            # The images' norms above already hold p(f o phi_a) as their seminorm part.
            p0, p1 = probes.seminorms, image_seminorms
            defect = float(np.max(np.abs(p1 - p0) / np.maximum(p0, 1e-12), initial=0.0))
            point["seminorm_invariance_defect"] = defect
            if defect > 1e-6:
                witnesses.append({"a": complex(a), "invariance_defect": defect})
    return AxiomReport("A5", space, not witnesses, measured, tuple(witnesses))


def check_a6(space: SpaceSpec, cfg: GridConfig) -> AxiomReport:
    """Seminorm kills constants; the norm is |f(0)| + p(f) by construction of _norm_parts.

    By the triangle inequality |p(f + c) - p(f)| <= p(c) = |c| p(1) for
    every f, so increment_defect is the largest p(c) over A6_CONSTANTS.
    On a space without that decomposition the check does not apply: the
    report passes with measured {"status": "unsupported"} and says so in
    its note.
    """
    if not space.has_a6_form:
        return AxiomReport(
            "A6",
            space,
            True,
            {"status": "unsupported"},
            note="norm does not decompose as |f(0)| + p(f); check not applicable",
        )
    increment = float(np.max(seminorms(space, [Const(c) for c in A6_CONSTANTS], cfg)))
    passed = increment < 1e-10
    witnesses = () if passed else ({"increment_defect": increment},)
    return AxiomReport("A6", space, passed, {"increment_defect": increment}, witnesses)


def run_all(space: SpaceSpec, cfg: GridConfig, seed: int = DEFAULT_SEED) -> tuple:
    """All six axiom checks on one space, reports ordered A1 through A6.

    The seed's probe family is measured once and shared by the checks
    that take one; each check picks its own instance.
    """
    probes = _Probes(space, cfg, harness_family(seed))
    return (
        check_a1(space, cfg, probes),
        check_a2(space, cfg),
        check_a3(space, cfg, probes),
        check_a4(space, cfg),
        check_a5(space, cfg, probes),
        check_a6(space, cfg),
    )
