"""Automorphism fitting, multiplier tests, and the two decision procedures."""

import numpy as np
import pytest

from wcolab.analytic_core import (
    Add,
    Compose,
    Const,
    Moebius,
    MoebiusMap,
    Mul,
    Poly,
    Pow,
    R_MAX,
    Recip,
    as_family,
    rotation_map,
)
from wcolab.characterization import (
    AUTOMORPHISM_TOL,
    SECTION_DIMENSIONS,
    _roundtrip_residual,
    check_invertible,
    check_isometry,
    count_zeros,
    detect_automorphism,
    inverse_symbols,
    multiplier_test,
)
from wcolab.errors import DomainError, NonVanishingViolation, ParameterError, UnsupportedSpace
from wcolab.operators import WcoSymbols, apply, condition_number, finite_section, random_polynomials
from wcolab.quadrature import scan_grid
from wcolab.spaces import norm, parse_space, seminorm

IDENTITY = Poly((0.0, 1.0))


class TestCountZeros:
    def test_polynomial_roots(self, cfg):
        f = Poly((1.0, -2.0))  # root at 0.5
        assert count_zeros(f, 0.9, cfg) == 1
        assert count_zeros(f, 0.3, cfg) == 0

    def test_double_root(self, cfg):
        f = Poly((0.0, 0.0, 1.0))
        assert count_zeros(f, 0.5, cfg) == 2


class TestDetectAutomorphism:
    @pytest.mark.parametrize(
        "a,theta",
        [
            (0.0 + 0.0j, 0.0),
            (0.0 + 0.0j, 1.1),
            (0.3 + 0.0j, 0.0),
            (0.5 + 0.2j, 2.0),
            (-0.7j, -0.7),
            (0.95 + 0.0j, 3.0),
        ],
    )
    def test_recovers_parameters(self, cfg, a, theta):
        m = MoebiusMap(a, np.exp(1j * theta))
        fit = detect_automorphism(Moebius(m), cfg)
        assert fit.found
        assert fit.residual <= AUTOMORPHISM_TOL
        assert abs(fit.map.a - m.a) < 1e-9
        assert abs(fit.map.lam - m.lam) < 1e-9

    @pytest.mark.parametrize("modulus", [0.995, 0.999, 0.9999, 0.99999, 0.9999989])
    def test_recovers_zero_near_the_boundary(self, cfg, modulus):
        # Along |z| = R_MAX the phase of these maps turns by 2 pi within
        # about 1 - |a| of arg a, here midway between two of the 512
        # samples of a winding count; the 1-jet at 0 still fixes them.
        for k in range(8):
            m = MoebiusMap(modulus * np.exp(2j * np.pi * (64 * k + 0.5) / 512), np.exp(1j * (0.7 * k - 2.0)))
            fit = detect_automorphism(Moebius(m), cfg)
            assert fit.found
            assert fit.residual <= 1e-12
            assert abs(fit.map.a - m.a) <= 1e-12
            assert abs(fit.map.lam - m.lam) <= 1e-12

    def test_identity_expression(self, cfg):
        fit = detect_automorphism(IDENTITY, cfg)
        assert fit.found
        assert abs(fit.map.a) < 1e-12
        assert abs(fit.map.lam + 1.0) < 1e-12

    def test_composition_of_two_maps(self, cfg):
        m1 = MoebiusMap(0.4, np.exp(0.3j))
        m2 = MoebiusMap(-0.2j, np.exp(1.7j))
        expr = Compose(Moebius(m1), Moebius(m2))
        fit = detect_automorphism(expr, cfg)
        assert fit.found
        z = 0.6 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert np.max(np.abs(fit.map(z) - expr(z))) < 1e-9

    def test_compose_moebius_oracle(self, cfg):
        m1 = MoebiusMap(0.4, np.exp(0.3j))
        m2 = MoebiusMap(-0.2j, np.exp(1.7j))
        fit = detect_automorphism(Compose(Moebius(m1), Moebius(m2)), cfg)

        def matrix(m):
            # m acts by fractions as this matrix; m1 o m2 as the product.
            return np.array([[-m.lam, m.lam * m.a], [-np.conj(m.a), 1.0]])

        # Scaled to end in 1, the product reads [[-lam, lam a], [-conj(a), 1]].
        (top_left, _), (bot_left, bot_right) = matrix(m1) @ matrix(m2)
        assert abs(fit.map.a + np.conj(bot_left / bot_right)) < 1e-9
        assert abs(fit.map.lam + top_left / bot_right) < 1e-9

    def test_rejects_contraction(self, cfg):
        fit = detect_automorphism(Poly((0.0, 0.5)), cfg)
        assert not fit.found
        assert fit.residual == pytest.approx(0.5, abs=1e-6)

    def test_rejects_square(self, cfg):
        fit = detect_automorphism(Poly((0.0, 0.0, 1.0)), cfg)
        assert not fit.found
        assert fit.residual == np.inf

    def test_rejects_degree_two_blaschke(self, cfg):
        inner = Moebius(MoebiusMap(0.5, 1.0))
        fit = detect_automorphism(Mul(IDENTITY, inner), cfg)
        assert not fit.found

    def test_rejects_perturbed_automorphism(self, cfg):
        m = MoebiusMap(0.3, 1.0)
        expr = Add(Moebius(m), Poly((0.0, 0.0, 1e-6)))
        fit = detect_automorphism(expr, cfg)
        assert not fit.found
        assert 1e-7 < fit.residual < 1e-5

    def test_accepts_tiny_perturbation(self, cfg):
        m = MoebiusMap(0.3, 1.0)
        expr = Add(Moebius(m), Poly((0.0, 0.0, 1e-10)))
        fit = detect_automorphism(expr, cfg)
        assert fit.found


class TestMultiplierTest:
    def test_constant_symbol(self, cfg):
        v = multiplier_test(Const(2.0 - 1.0j), parse_space("bloch:1"), cfg)
        assert v.status == "Yes_Exact"
        assert v.measured_constant == pytest.approx(np.sqrt(5.0))
        assert v.criterion == "constant symbol"

    @pytest.mark.parametrize("text", ["hinf", "hardy:2", "bergman:2,0", "growth:1", "mixed:2,2,0.5"])
    def test_bounded_symbol_on_modulus_families(self, cfg, text):
        v = multiplier_test(Poly((1.0, 0.5)), parse_space(text), cfg)
        assert v.status == "Yes_Exact"
        assert v.measured_constant == pytest.approx(1.5, abs=1e-5)

    def test_unbounded_symbol_rejected(self, cfg):
        v = multiplier_test(Recip(Poly((1.0, -1.0))), parse_space("hardy:2"), cfg)
        assert v.status == "No_Exact"

    def test_bloch_chi(self, cfg):
        v = multiplier_test(IDENTITY, parse_space("bloch:1"), cfg)
        assert v.status == "Yes_Exact"
        # sup of (1-t) log(2/(1-t)) over t in [0, 1)
        assert v.measured_constant == pytest.approx(2.0 / np.e, abs=1e-10)

    @pytest.mark.parametrize("text", ["hinf", "hardy:2", "bergman:2,0", "growth:1", "mixed:2,inf,0.5", "bloch:1"])
    def test_measured_constant_is_the_criterion_sup(self, cfg, text):
        # The sup of |u| on the bounded-modulus families; on bloch:1 the
        # logbloch:1 seminorm, the sup of the log-weighted derivative.
        u = Recip(Poly((2.0, 0.5 - 0.5j)))
        space = parse_space(text)
        v = multiplier_test(u, space, cfg)
        assert v.status == "Yes_Exact"
        if space.family == "bloch":
            assert v.measured_constant == seminorm(parse_space("logbloch:1"), u, cfg)
        else:
            assert v.measured_constant == norm(parse_space("hinf"), u, cfg).total

    def test_bloch_rejects_unbounded(self, cfg):
        v = multiplier_test(Recip(Poly((1.0, -1.0))), parse_space("bloch:1"), cfg)
        assert v.status == "No_Exact"

    def test_empirical_family(self, cfg):
        v = multiplier_test(Poly((1.0, 0.5)), parse_space("besov:2,0"), cfg)
        assert v.status == "Yes_Empirical"
        assert 0.0 < v.measured_constant <= 1e3

    def test_empirical_cap(self, cfg):
        v = multiplier_test(Poly((2000.0, 1.0)), parse_space("besov:2,0"), cfg)
        assert v.status == "Inconclusive"
        assert v.measured_constant > 1e3


class TestInverseSymbols:
    def test_requires_fit(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        fit = detect_automorphism(Poly((0.0, 0.5)), cfg)
        with pytest.raises(ParameterError):
            inverse_symbols(w, fit)

    def test_vanishing_weight(self, cfg):
        w = WcoSymbols(IDENTITY, Moebius(MoebiusMap(0.4, 1.0)))
        fit = detect_automorphism(w.phi, cfg)
        with pytest.raises(NonVanishingViolation):
            inverse_symbols(w, fit)

    def test_roundtrip_identity(self, cfg):
        w = WcoSymbols(Poly((2.0, 0.5)), Moebius(MoebiusMap(0.3, np.exp(0.8j))))
        fit = detect_automorphism(w.phi, cfg)
        G, psi = inverse_symbols(w, fit)
        inv = WcoSymbols(G, psi)
        f = Poly((1.0, -0.5, 0.25j))
        z = 0.7 * np.exp(2j * np.pi * np.arange(16) / 16)
        out = apply(inv, apply(w, f))(z)
        assert np.max(np.abs(out - f(z))) < 1e-10


class TestEvidence:
    W = WcoSymbols(Recip(Pow(Poly((2.5, 0.4j, 0.3)), 1.4)), Moebius(MoebiusMap(0.5 - 0.2j, np.exp(2.0j))))

    def test_roundtrip_matches_nested_images(self, cfg):
        fit = detect_automorphism(self.W.phi, cfg)
        G, psi = inverse_symbols(self.W, fit)
        inv = WcoSymbols(G, psi)
        family = as_family(random_polynomials(20, 7))
        worst = 0.0
        for rows in family.row_blocks(scan_grid(cfg), 0):
            z = scan_grid(cfg)[rows]
            for image in (apply(inv, apply(self.W, family)), apply(self.W, apply(inv, family))):
                worst = max(worst, float(np.max(np.abs(image.derivative(z, 0) - family.derivative(z, 0)))))
        got = _roundtrip_residual(self.W, G, psi, cfg, 7)
        assert abs(got - worst) <= 1e-14
        assert got < 1e-9

    def test_roundtrip_sees_a_wrong_inverse(self, cfg):
        # psi's a shifted by 1e-6, with G from the true psi and then from the shifted one.
        G, psi = inverse_symbols(self.W, detect_automorphism(self.W.phi, cfg))
        shifted = Moebius(MoebiusMap(psi.map.a + 1e-6, psi.map.lam))
        assert _roundtrip_residual(self.W, G, shifted, cfg) > 1e-7
        assert _roundtrip_residual(self.W, Recip(Compose(self.W.F, shifted)), shifted, cfg) > 1e-7

    def test_roundtrip_rejects_points_leaving_the_disk(self, cfg):
        # psi = 1.5 z sends the outer grid radii out of the disk.
        with pytest.raises(DomainError):
            _roundtrip_residual(self.W, Const(1.0), Poly((0.0, 1.5)), cfg)

    def test_section_conditions_match_separate_sections(self, cfg):
        report = check_invertible(self.W, parse_space("hardy:2"), cfg)
        assert report.verdict == "Invertible"
        assert report.section_conditions == {
            N: condition_number(finite_section(self.W, N, cfg)) for N in SECTION_DIMENSIONS
        }


class TestCheckInvertible:
    def test_invertible_on_hardy(self, cfg):
        w = WcoSymbols(Poly((2.0, 0.5)), Moebius(MoebiusMap(0.3, 1.0)))
        report = check_invertible(w, parse_space("hardy:2"), cfg)
        assert report.verdict == "Invertible"
        assert report.automorphism.found
        assert report.zero_count == 0
        assert report.min_modulus > 1.0
        assert report.multiplier.status == "Yes_Exact"
        assert report.roundtrip_residual < 1e-9
        assert set(report.section_conditions) == set(SECTION_DIMENSIONS)
        assert all(c >= 1.0 for c in report.section_conditions.values())
        assert report.caveat == ""

    def test_invertible_on_bloch_with_constant_weight(self, cfg):
        w = WcoSymbols(Const(2.0), Moebius(MoebiusMap(0.4, 1.0)))
        report = check_invertible(w, parse_space("bloch:1"), cfg)
        assert report.verdict == "Invertible"
        assert report.roundtrip_residual < 1e-9

    def test_not_invertible_bad_map(self, cfg):
        w = WcoSymbols(Const(1.0), Poly((0.0, 0.5)))
        report = check_invertible(w, parse_space("hardy:2"), cfg)
        assert report.verdict == "NotInvertible"
        assert not report.automorphism.found
        assert report.multiplier is None

    def test_not_invertible_interior_zero(self, cfg):
        w = WcoSymbols(Poly((0.25, -1.0)), IDENTITY)  # zero at 0.25
        report = check_invertible(w, parse_space("hardy:2"), cfg)
        assert report.verdict == "NotInvertible"
        assert report.zero_count == 1

    def test_not_invertible_reciprocal_unbounded(self, cfg):
        # F = 1 - z never vanishes inside, but 1/F fails the exact
        # multiplier criterion
        w = WcoSymbols(Poly((1.0, -1.0)), IDENTITY)
        report = check_invertible(w, parse_space("hardy:2"), cfg)
        assert report.verdict == "NotInvertible"
        assert report.zero_count == 0
        assert report.multiplier.status == "No_Exact"

    def test_inconclusive_near_boundary_zero(self, cfg):
        # zero of F exactly at radius r_max: the contour count retries
        # inward, and the minimum modulus floor forces a caveat
        w = WcoSymbols(Poly((1.0, -1.0 / R_MAX)), IDENTITY)
        report = check_invertible(w, parse_space("hardy:2"), cfg)
        assert report.verdict == "Inconclusive"
        assert report.min_modulus <= 1e-9
        assert "boundary" in report.caveat

    def test_inconclusive_empirical_space(self, cfg):
        w = WcoSymbols(Poly((2.0, 0.5)), Moebius(MoebiusMap(0.3, 1.0)))
        report = check_invertible(w, parse_space("besov:2,0"), cfg)
        assert report.verdict == "Inconclusive"
        assert report.multiplier.status == "Yes_Empirical"
        assert "empirically" in report.caveat

    def test_seed_threading(self, cfg):
        w = WcoSymbols(Const(2.0), Moebius(MoebiusMap(0.3, 1.0)))
        a = check_invertible(w, parse_space("hardy:2"), cfg, seed=1)
        b = check_invertible(w, parse_space("hardy:2"), cfg, seed=2)
        assert a.verdict == b.verdict == "Invertible"


class TestCheckIsometry:
    def test_rotation_is_isometry(self, cfg):
        w = WcoSymbols(Const(np.exp(0.9j)), Moebius(rotation_map(2.1)))
        report = check_isometry(w, parse_space("bloch:1"), cfg)
        assert report.surjective_isometry
        assert report.F_is_unimodular_constant
        assert report.phi_is_rotation
        assert report.measured_defect < 1e-9
        assert abs(report.phi_origin_value) < 1e-12

    def test_scaling_breaks_isometry(self, cfg):
        w = WcoSymbols(Const(2.0), Moebius(rotation_map(1.0)))
        report = check_isometry(w, parse_space("bloch:1"), cfg)
        assert not report.surjective_isometry
        assert not report.F_is_unimodular_constant
        assert report.phi_is_rotation
        assert report.measured_defect > 0.5

    def test_involution_is_not_rotation(self, cfg):
        w = WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.4, 1.0)))
        report = check_isometry(w, parse_space("bloch:1"), cfg)
        assert not report.surjective_isometry
        assert report.F_is_unimodular_constant
        assert not report.phi_is_rotation
        assert report.phi_origin_value == pytest.approx(0.4)
        assert report.measured_defect > 1e-3

    def test_inner_weight_is_not_constant(self, cfg):
        w = WcoSymbols(Moebius(MoebiusMap(0.4, 1.0)), IDENTITY)
        report = check_isometry(w, parse_space("besov:2,0"), cfg)
        assert not report.F_is_unimodular_constant
        assert not report.surjective_isometry

    def test_non_decomposed_space_raises(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        with pytest.raises(UnsupportedSpace):
            check_isometry(w, parse_space("hardy:2"), cfg)
