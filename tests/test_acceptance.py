"""Top-level acceptance battery.

One test per criterion, each asserting the stated tolerance, so the
verbose run prints a single pass/fail line per criterion.  Everything
runs at the default grid with the default seed.
"""

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from wcolab.analytic_core import (
    Compose,
    Const,
    Moebius,
    MoebiusMap,
    Mul,
    Poly,
    Pow,
    R_MAX,
    Recip,
    rotation_map,
    series,
    winding_number,
)
from wcolab.characterization import (
    check_invertible,
    check_isometry,
    detect_automorphism,
    inverse_symbols,
    multiplier_test,
)
from wcolab.cli import main
from wcolab.operators import (
    DEFAULT_SEED,
    WcoSymbols,
    apply,
    isometry_defect,
    random_polynomials,
)
from wcolab.axiom_harness import ALL_FAMILIES, run_all
from wcolab.quadrature import scan_radii, unit_circle
from wcolab.spaces import norm, parse_space


def test_criterion_1_rotation_isometry(cfg):
    """Unimodular constant times rotation: defect < 1e-7 on each
    decomposed-norm space (1e-3 on the star norm, whose sup over the
    automorphism parameter is grid-limited)."""
    family = random_polynomials(50, DEFAULT_SEED)
    w = WcoSymbols(Const(np.exp(0.9j)), Moebius(rotation_map(2.1)))
    tolerances = {
        "bloch:0.5": 1e-7,
        "bloch:1": 1e-7,
        "bloch:2": 1e-7,
        "logbloch:1": 1e-7,
        "besov:2,0": 1e-7,
        "b1": 1e-7,
        "bmoa": 1e-3,
    }
    for text, tol in tolerances.items():
        defect = isometry_defect(w, parse_space(text), family, cfg)
        assert defect < tol, f"{text}: defect {defect:.3e} >= {tol}"


def test_criterion_2_isometry_necessity(cfg):
    """Involution moving the origin is never an isometry: probe defect
    at least 0.05 and the reported origin value matches within 1e-9."""
    w = WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.3, 1.0)))
    report = check_isometry(w, parse_space("bloch:1"), cfg)
    assert not report.surjective_isometry
    assert report.measured_defect >= 0.05, f"defect {report.measured_defect:.4f}"
    assert abs(report.phi_origin_value - 0.3) <= 1e-9


def test_criterion_3_inverse_roundtrip(cfg):
    """Both composition orders of the operator and its inverse act as
    the identity to 1e-9 on 20 seeded polynomials over the scan grid."""
    w = WcoSymbols(Poly((2.0, 1.0)), Moebius(MoebiusMap(0.5, 1.0)))
    fit = detect_automorphism(w.phi, cfg)
    assert fit.found
    G, psi = inverse_symbols(w, fit)
    inv = WcoSymbols(G, psi)
    pts = scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]
    worst = 0.0
    for f in random_polynomials(20, DEFAULT_SEED):
        reference = f(pts)
        for outer, inner in ((inv, w), (w, inv)):
            vals = apply(outer, apply(inner, f))(pts)
            worst = max(worst, float(np.max(np.abs(vals - reference))))
    assert worst < 1e-9, f"roundtrip residual {worst:.3e}"


def test_criterion_4_verdict_table(cfg):
    """Invertibility verdicts for the four reference symbol pairs, and
    the matching process exit codes 0/1/1/1."""
    phi_half = Moebius(MoebiusMap(0.5, 1.0))
    good = WcoSymbols(Poly((2.0, 1.0)), phi_half)
    for text in ("bloch:1", "hardy:2"):
        assert check_invertible(good, parse_space(text), cfg).verdict == "Invertible"

    bad_cases = (
        WcoSymbols(Poly((0.0, 1.0)), phi_half),          # weight vanishes at 0
        WcoSymbols(Poly((2.0, 1.0)), Poly((0.0, 0.0, 1.0))),  # two-to-one symbol
        WcoSymbols(Poly((2.0, 1.0)), Poly((0.0, 0.5))),  # not onto the disk
    )
    for w in bad_cases:
        assert check_invertible(w, parse_space("bloch:1"), cfg).verdict == "NotInvertible"

    cli_cases = (
        (0, "poly(2.0,1.0)", "mobius(0.5,0.0,0.0)"),
        (1, "poly(0.0,1.0)", "mobius(0.5,0.0,0.0)"),
        (1, "poly(2.0,1.0)", "poly(0.0,0.0,1.0)"),
        (1, "poly(2.0,1.0)", "poly(0.0,0.5)"),
    )
    for expected, F, phi in cli_cases:
        code = main(["check-invertible", "--space", "bloch:1", "--F", F, "--phi", phi])
        assert code == expected, f"exit {code} != {expected} for F={F}, phi={phi}"


def test_criterion_5_norm_goldens(cfg, capsys):
    """Oracle norm values at 1e-5 (tighter where stated)."""
    capsys.readouterr()
    chi = Poly((0.0, 1.0))
    chi2 = Poly((0.0, 0.0, 1.0))
    bloch = parse_space("bloch:1")
    assert norm(bloch, chi, cfg).total == pytest.approx(1.0, abs=1e-5)
    assert norm(bloch, chi2, cfg).total == pytest.approx(4.0 * np.sqrt(3.0) / 9.0, abs=1e-5)
    assert norm(parse_space("hardy:2"), Poly((3.0, 4.0)), cfg).total == pytest.approx(5.0, abs=1e-5)
    bergman = parse_space("bergman:2,0")
    for k in range(11):
        f = Poly((0.0,) * k + (1.0,))
        assert norm(bergman, f, cfg).total == pytest.approx(1.0 / np.sqrt(k + 1.0), abs=1e-5)
    assert norm(parse_space("b1"), chi2, cfg).total == pytest.approx(2.0, abs=1e-5)
    growth = norm(parse_space("growth:1"), Recip(Poly((1.0, -1.0))), cfg).total
    assert growth == pytest.approx(2.0, abs=2e-6)
    log_sup = multiplier_test(chi, bloch, cfg).measured_constant
    assert log_sup == pytest.approx(2.0 / np.e, abs=1e-6)


def test_criterion_6_mixed_norm_consistency(cfg):
    """The diagonal mixed-norm evaluator and the area evaluator agree
    to 1e-6 relative on 50 seeded polynomials for p in {1, 2, 4}."""
    family = random_polynomials(50, DEFAULT_SEED)
    for p in (1.0, 2.0, 4.0):
        mixed = parse_space(f"mixed:{p},{p},{1.0 / p}")
        bergman = parse_space(f"bergman:{p},0")
        for f in family:
            a = norm(mixed, f, cfg).total
            b = norm(bergman, f, cfg).total
            assert a == pytest.approx(b, rel=1e-6), f"p={p}: {a} vs {b}"


def test_criterion_7_axiom_suite(cfg):
    """All six structural checks pass on all ten families; the seminorm
    conformal-invariance defect stays below 1e-6; the power-bound chains
    close with nonnegative slack."""
    a6_families = {"bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1"}
    for text in ALL_FAMILIES:
        reports = run_all(parse_space(text), cfg)
        for r in reports:
            assert r.passed, f"{text} {r.axiom}: {r.witnesses or r.measured}"
        a4 = reports[3]
        assert a4.measured["slack"] >= 0.0, f"{text} chain slack {a4.measured['slack']:.3e}"
        if text in a6_families:
            assert reports[5].measured["increment_defect"] < 1e-10
        if text == "bloch:1":
            for key, block in reports[4].measured.items():
                assert block["seminorm_invariance_defect"] < 1e-6, key


def test_criterion_8_foundations(cfg):
    """Jets against finite differences (200 cases at relative 1e-6),
    Parseval at 1e-10, coefficient round-trips at 1e-10, and exact zero
    counts on 50 random-root polynomials."""
    rng = np.random.default_rng(DEFAULT_SEED)

    # finite-difference battery over mixed expression shapes
    shapes = (
        lambda c: Poly(tuple(c[:5])),
        lambda c: Mul(Poly(tuple(c[:3])), Poly(tuple(c[3:5]))),
        lambda c: Recip(Poly((2.0, c[0] * 0.3))),
        lambda c: Pow(Poly((2.0, c[0] * 0.3)), 1.5),
        lambda c: Compose(Poly(tuple(c[:4])), Poly((0.0, 0.5, 0.2 * c[4] / max(1.0, abs(c[4]))))),
        lambda c: Moebius(MoebiusMap(0.4 * c[0] / max(1.0, abs(c[0])), c[1] / abs(c[1]))),
    )
    h = 1e-5
    checked = 0
    while checked < 200:
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        expr = shapes[checked % len(shapes)](coeffs)
        z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        _, d1, d2 = expr.derivatives(z, 2)
        fd_df = (expr(z + h) - expr(z - h)) / (2.0 * h)
        fd_d2f = (expr.derivatives(z + h, 1)[1] - expr.derivatives(z - h, 1)[1]) / (2.0 * h)
        scale_1 = max(abs(d1), 1.0)
        scale_2 = max(abs(d2), 1.0)
        assert abs(d1 - fd_df) / scale_1 < 1e-6
        assert abs(d2 - fd_d2f) / scale_2 < 1e-6
        checked += 1

    # Parseval on a circle
    coeffs = tuple(rng.normal(size=9) + 1j * rng.normal(size=9))
    f = Poly(coeffs)
    r = 0.7
    lhs = np.mean(np.abs(f(r * unit_circle(cfg.n_theta))) ** 2)
    rhs = sum(abs(c) ** 2 * r ** (2 * k) for k, c in enumerate(coeffs))
    assert abs(lhs - rhs) < 1e-10

    # coefficient extraction round-trip
    got = series(f, len(coeffs))
    assert np.max(np.abs(got - np.asarray(coeffs))) < 1e-10

    # argument-principle counts on polynomials with planted roots
    for _ in range(50):
        k = int(rng.integers(1, 6))
        roots = 0.85 * np.sqrt(rng.uniform(size=k)) * np.exp(2j * np.pi * rng.uniform(size=k))
        radius = 0.93
        # keep every root away from the counting contour
        roots = np.where(np.abs(np.abs(roots) - radius) < 0.02, roots * 0.9, roots)
        poly_coeffs = np.poly(roots)[::-1]
        f = Poly(tuple(poly_coeffs))
        inside = int(np.sum(np.abs(roots) < radius))
        assert winding_number(f, radius, cfg.n_theta) == inside
