"""Structure and behavior of the per-space axiom battery."""

import collections

import numpy as np
import pytest

from wcolab import axiom_harness, spaces
from wcolab.analytic_core import Add, Compose, Const, Family, Moebius, MoebiusMap, Mul, PolyFamily
from wcolab.axiom_harness import (
    A1_RADII,
    A5_POINTS,
    A6_CONSTANTS,
    ALL_FAMILIES,
    CHAIN_SLACK,
    STABILITY_CAP,
    check_a2,
    check_a4,
    check_a5,
    check_a6,
    harness_family,
    run_all,
)
from wcolab.errors import UnsupportedSpace
from wcolab.operators import monomial
from wcolab.quadrature import unit_circle
from wcolab.spaces import norm, parse_space, pointeval_bound, seminorm, seminorms


class TestRunAll:
    @pytest.mark.parametrize("text", ["bloch:1", "hardy:2"])
    def test_all_pass_in_order(self, cfg, text):
        space = parse_space(text)
        reports = run_all(space, cfg)
        assert [r.axiom for r in reports] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        for r in reports:
            assert r.passed, (r.axiom, r.measured, r.witnesses)
            assert r.space == space

    def test_a6_placeholder_on_plain_space(self, cfg):
        reports = run_all(parse_space("hardy:2"), cfg)
        a6 = reports[-1]
        assert a6.passed
        assert a6.measured == {"status": "unsupported"}
        assert "not applicable" in a6.note

    def test_a5_merges_all_points(self, cfg):
        reports = run_all(parse_space("hardy:2"), cfg)
        a5 = reports[4]
        assert set(a5.measured) == {f"a={a}" for a in A5_POINTS}

    def test_deterministic(self, cfg):
        a = run_all(parse_space("hardy:2"), cfg, seed=5)
        b = run_all(parse_space("hardy:2"), cfg, seed=5)
        assert a[0].measured == b[0].measured
        assert a[2].measured == b[2].measured

    @pytest.mark.parametrize("text", ["bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1"])
    def test_base_seminorms_measured_once(self, coarse_cfg, monkeypatch, text):
        # Every seminorm evaluator scans its family once through
        # row_blocks, and the norms of a decomposed family carry the
        # seminorms, so run_all scans the base family once.
        base = harness_family()
        scans = []
        row_blocks = Family.row_blocks

        def counted(fam, z, order):
            if isinstance(fam, PolyFamily) and fam.F is fam.phi is None and fam.polys == base:
                scans.append(z.shape)
            return row_blocks(fam, z, order)

        monkeypatch.setattr(Family, "row_blocks", counted)
        run_all(parse_space(text), coarse_cfg)
        assert len(scans) == 1

    def test_family_list_is_complete(self):
        assert len(ALL_FAMILIES) == 10
        families = {text.partition(":")[0] for text in ALL_FAMILIES}
        assert len(families) == 10


class TestIndividualChecks:
    @pytest.mark.parametrize("text", ["hinf", "hardy:2", "bergman:2,0", "bloch:1", "b1", "bmoa"])
    def test_a2_value(self, cfg, text):
        report = check_a2(parse_space(text), cfg)
        assert report.passed
        assert report.measured["norm_of_one"] == pytest.approx(1.0, abs=1e-9)

    def test_a4_slack_nonnegative_on_b1(self, cfg):
        report = check_a4(parse_space("b1"), cfg)
        assert report.passed
        assert report.measured["slack"] >= 0.0
        assert set(report.measured["sampled_powers"]) == {"1", "2", "3"}

    def test_a4_slack_nonnegative_on_growth(self, cfg):
        report = check_a4(parse_space("growth:1"), cfg)
        assert report.passed
        assert report.measured["slack"] >= 0.0

    def test_a5_bloch_invariance_recorded(self, cfg):
        report = check_a5(parse_space("bloch:1"), cfg, harness_family()[:4])
        assert report.passed
        for a in A5_POINTS:
            assert report.measured[f"a={a}"]["seminorm_invariance_defect"] < 1e-8

    def test_a6_requires_decomposition(self, cfg):
        report = check_a6(parse_space("hardy:2"), cfg)
        assert report.passed
        assert report.measured == {"status": "unsupported"}
        assert report.witnesses == ()
        assert "not applicable" in report.note

    def test_a6_defects_tiny_on_besov(self, cfg):
        report = check_a6(parse_space("besov:2,0"), cfg)
        assert report.passed
        assert report.measured["increment_defect"] < 1e-10

    def test_a6_fails_on_a_seminorm_that_sees_constants(self, cfg, monkeypatch):
        # A seminorm with an order-0 leak: p(f) + 1e-6 |f(0)|.
        parts = spaces._norm_parts

        def leaky(space, fam, cfg):
            total, point, semi = parts(space, fam, cfg)
            return total, point, semi + 1e-6 * point

        monkeypatch.setattr(spaces, "_norm_parts", leaky)
        report = check_a6(parse_space("bloch:1"), cfg)
        assert not report.passed
        defect = report.measured["increment_defect"]
        assert defect == pytest.approx(1e-6 * max(abs(c) for c in A6_CONSTANTS), rel=1e-12)
        assert report.witnesses == ({"increment_defect": defect},)


DECOMPOSED_FAMILIES = ("bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1")


def _reference_reports(space, cfg, family) -> dict:
    """A1, A3, A5 and A6 measured one member at a time, one norm call per expression."""
    fam_norms = [norm(space, f, cfg).total for f in family]
    fine = cfg.refined()

    def bound(images):
        ratios = [norm(space, g, cfg).total / nf for g, nf in zip(images, fam_norms)]
        b = max(ratios)
        k = int(np.argmax(ratios))
        refined = norm(space, images[k], fine).total / norm(space, family[k], fine).total
        return b, refined, max(b / refined, refined / b)

    out = {}
    estimates, bounds, witnesses = [], [], []
    for r in A1_RADII:
        z = r * unit_circle(cfg.n_theta)
        est = max(float(np.max(np.abs(f(z)))) / nf for f, nf in zip(family, fam_norms))
        b = CHAIN_SLACK * (1.0 + pointeval_bound(space, r))
        estimates.append(est)
        bounds.append(b)
        if est > b:
            witnesses.append({"radius": r, "estimate": est, "bound": b})
    out["A1"] = (not witnesses, {"radii": list(A1_RADII), "estimates": estimates, "bounds": bounds}, witnesses)

    b, refined, stability = bound([Mul(monomial(1), f) for f in family])
    passed = bool(np.isfinite(b)) and stability < STABILITY_CAP
    measured = {"shift_bound": b, "refined_bound": refined, "stability_ratio": stability}
    out["A3"] = (passed, measured, [] if passed else [{"bound": b, "refined": refined}])

    a5_passed, a5_measured, a5_witnesses = True, {}, []
    for a in A5_POINTS:
        phi_a = Moebius(MoebiusMap(complex(a), 1.0))
        b, refined, stability = bound([Compose(f, phi_a) for f in family])
        passed = bool(np.isfinite(b)) and stability < STABILITY_CAP
        measured = {"a": complex(a), "composition_bound": b, "refined_bound": refined, "stability_ratio": stability}
        if not passed:
            a5_witnesses.append({"a": complex(a), "bound": b, "refined": refined})
        if space.family == "bloch" and space.beta == 1.0:
            defect = 0.0
            for f in family:
                p0 = seminorm(space, f, cfg)
                defect = max(defect, abs(seminorm(space, Compose(f, phi_a), cfg) - p0) / max(p0, 1e-12))
            measured["seminorm_invariance_defect"] = defect
            if defect > 1e-6:
                passed = False
                a5_witnesses.append({"a": complex(a), "invariance_defect": defect})
        a5_measured[f"a={a}"] = measured
        a5_passed = a5_passed and passed
    out["A5"] = (a5_passed, a5_measured, a5_witnesses)

    if space.has_a6_form:
        increment = 0.0
        for f in family:
            p0 = seminorm(space, f, cfg)
            for c in A6_CONSTANTS:
                increment = max(increment, abs(seminorm(space, Add(f, Const(c)), cfg) - p0))
        passed = increment < 1e-10
        out["A6"] = (passed, {"increment_defect": increment}, [] if passed else [{"increment_defect": increment}])
    return out


def _assert_close(got, ref, path=()):
    """Equal structure; numbers within 1e-12 relative, or 1e-15 absolute for rounding-level defects."""
    if isinstance(ref, dict):
        assert set(got) == set(ref), path
        for key in ref:
            _assert_close(got[key], ref[key], path + (key,))
    elif isinstance(ref, (list, tuple)):
        assert len(got) == len(ref), path
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_close(g, r, path + (i,))
    elif isinstance(ref, (float, complex)):
        assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-15, (path, got, ref)
    else:
        assert got == ref, path


class TestStackedHarness:
    @pytest.mark.parametrize("text", DECOMPOSED_FAMILIES)
    def test_seminorms_match_one_member(self, coarse_cfg, text):
        space = parse_space(text)
        family = harness_family()
        stacked = seminorms(space, family, coarse_cfg)
        assert stacked.shape == (len(family),)
        for f, value in zip(family, stacked):
            ref = seminorm(space, f, coarse_cfg)
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_seminorms_reject_plain_space(self, coarse_cfg):
        with pytest.raises(UnsupportedSpace):
            seminorms(parse_space("hardy:2"), harness_family(), coarse_cfg)

    @pytest.mark.parametrize("text", ALL_FAMILIES)
    def test_matches_per_member_reference(self, coarse_cfg, text):
        space = parse_space(text)
        reports = {r.axiom: r for r in run_all(space, coarse_cfg)}
        for axiom, (passed, measured, witnesses) in _reference_reports(space, coarse_cfg, harness_family()).items():
            report = reports[axiom]
            assert report.passed == passed, axiom
            _assert_close(report.measured, measured, (axiom,))
            _assert_close(list(report.witnesses), witnesses, (axiom, "witnesses"))

    def test_known_bloch_invariance_defect(self, cfg):
        # Harness seed of axioms benchmark seed 2: refined_modulus_sup, a
        # lower bound, misses the maximum of f o phi_a for one probe.
        report = check_a5(parse_space("bloch:1"), cfg, harness_family(248106442))
        assert not report.passed
        measured = report.measured["a=-0.7"]
        assert measured["seminorm_invariance_defect"] == pytest.approx(8.16e-3, rel=1e-3)
        assert report.witnesses == ({"a": -0.7 + 0j, "invariance_defect": measured["seminorm_invariance_defect"]},)


def test_run_all_measures_each_refined_base_member_once(cfg, monkeypatch):
    # On bmoa the shift and the three involutions all re-measure z on
    # the refined grid; its norm there is taken once.
    space, fine = parse_space("bmoa"), cfg.refined()
    counts = collections.Counter()
    measure = axiom_harness.norms

    def counting(space, family, grid):
        if grid == fine and isinstance(family, PolyFamily) and family.F is family.phi is None:
            counts.update(family.polys)
        return measure(space, family, grid)

    monkeypatch.setattr(axiom_harness, "norms", counting)
    run_all(space, cfg)
    assert counts and max(counts.values()) == 1
