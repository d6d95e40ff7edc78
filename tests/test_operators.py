"""Operator symbols, finite sections, and defect measurements."""

import numpy as np
import pytest

from conftest import seeded_polys
from wcolab.analytic_core import Const, Moebius, MoebiusMap, Mul, Poly, Pow, Recip, rotation_map, series
from wcolab.errors import DegenerateInput, DomainError, ParameterError, SingularMatrix
from wcolab.operators import (
    DEFAULT_SEED,
    FiniteSection,
    WcoSymbols,
    apply,
    condition_number,
    default_probe_family,
    finite_section,
    isometry_defect,
    monomial,
    random_polynomials,
)
from wcolab.quadrature import GridConfig
from wcolab.spaces import parse_space

IDENTITY = Poly((0.0, 1.0))


class TestSymbols:
    def test_valid_pair(self):
        w = WcoSymbols(Const(2.0), Poly((0.0, 0.5)))
        assert w.F is not None

    def test_phi_not_self_map(self):
        with pytest.raises(DomainError):
            WcoSymbols(Const(1.0), Poly((0.0, 2.0)))

    def test_phi_escapes_on_part_of_circle(self):
        # 0.3 + 0.8 z leaves the disk only near z = 1
        with pytest.raises(DomainError):
            WcoSymbols(Const(1.0), Poly((0.3, 0.8)))

    def test_constant_phi_rejected(self):
        with pytest.raises(DegenerateInput):
            WcoSymbols(Const(1.0), Const(0.3))

    def test_zero_weight_rejected(self):
        with pytest.raises(DegenerateInput):
            WcoSymbols(Const(0.0), IDENTITY)

    def test_non_finite_weight_rejected(self):
        # inf * 0 = NaN on the whole disk, which a test of F for nonzero values passes.
        nan = Mul(Pow(Poly((2.0,)), 2000.0), Pow(Poly((0.5,)), 2000.0))
        with pytest.raises(DomainError, match="^F is not finite"):
            WcoSymbols(nan, IDENTITY)

    def test_apply_pointwise(self):
        F = Poly((1.0, 0.5j))
        phi = Poly((0.1, 0.0, 0.4))
        w = WcoSymbols(F, phi)
        image = apply(w, Poly((2.0, 0.0, 1.0)))
        z = 0.3 - 0.2j
        expected = F(z) * (2.0 + phi(z) ** 2)
        assert image(z) == pytest.approx(expected, rel=1e-14)


class TestFiniteSection:
    def test_dimension_validation(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        with pytest.raises(ParameterError):
            finite_section(w, 1, cfg)
        with pytest.raises(ParameterError):
            finite_section(w, cfg.n_theta // 2 + 1, cfg)

    def test_matches_one_image_per_monomial(self, cfg):
        w = WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j))))
        N = 12
        want = np.stack([series(apply(w, monomial(k)), N) for k in range(N)], axis=1)
        got = finite_section(w, N, cfg).entries
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_identity_operator(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        s = finite_section(w, 8, cfg)
        assert s.dimension == 8
        assert np.max(np.abs(s.entries - np.eye(8))) < 1e-12

    def test_independent_of_r_max(self, cfg):
        # Sections come from the series at 0, so the grid's outer radius plays no part.
        w = WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j))))
        s = finite_section(w, 16, GridConfig(r_max=0.6))
        assert s.entries.tobytes() == finite_section(w, 16, cfg).entries.tobytes()

    def test_sections_on_a_grid_inside_the_section_circle(self):
        # A grid with a small r_max still gives the exact rotation section.
        grid = GridConfig(r_max=0.6)
        theta = 1.1
        s = finite_section(WcoSymbols(Const(1.0), Moebius(rotation_map(theta))), 8, grid)
        assert np.max(np.abs(s.entries - np.diag(np.exp(1j * theta * np.arange(8))))) < 1e-11

    def test_rotation_is_diagonal(self, cfg):
        theta = 1.1
        w = WcoSymbols(Const(1.0), Moebius(rotation_map(theta)))
        s = finite_section(w, 8, cfg)
        expected = np.diag(np.exp(1j * theta * np.arange(8)))
        assert np.max(np.abs(s.entries - expected)) < 1e-11

    def test_shift_weight(self, cfg):
        # F = z, phi = z sends z^k to z^(k+1): ones on the subdiagonal
        w = WcoSymbols(IDENTITY, IDENTITY)
        s = finite_section(w, 6, cfg)
        expected = np.eye(6, k=-1)
        assert np.max(np.abs(s.entries - expected)) < 1e-12

    def test_linear_composition_closed_form(self, cfg):
        # phi = c z maps z^k to c^k z^k, so entry (j, k) is c^k F_(j-k)
        F = Poly((1.0, 0.5, 0.25j))
        c = 0.3 + 0.2j
        w = WcoSymbols(F, Poly((0.0, c)))
        N = 8
        s = finite_section(w, N, cfg)
        coeffs = np.zeros(N, dtype=complex)
        coeffs[:3] = (1.0, 0.5, 0.25j)
        expected = np.zeros((N, N), dtype=complex)
        for k in range(N):
            for j in range(k, N):
                expected[j, k] = c ** k * coeffs[j - k]
        assert np.max(np.abs(s.entries - expected)) < 1e-11

    def test_sections_match_power_series(self, cfg):
        # F = c0^alpha (1 + (c1/c0) z)^alpha by the binomial series and
        # phi = lam (a - z) sum (conj(a) z)^n by the geometric series; the
        # first N coefficients of F phi^k are exact truncated convolutions.
        # Taken on the circle r = 0.5, the 32-section was off by about 6e-8.
        c0, c1, alpha = 2.2558, 0.9 + 0.4j, 1.3113
        a, lam = 0.5 - 0.2j, np.exp(0.4j)
        N = 32
        j = np.arange(1, N)
        binom = np.concatenate([[1.0], np.cumprod((alpha - j + 1.0) / j)])
        F = c0**alpha * binom * (c1 / c0) ** np.arange(N)
        phi = lam * np.convolve([a, -1.0], np.conj(a) ** np.arange(N))[:N]
        want = np.empty((N, N), dtype=complex)
        power = np.eye(1, N, dtype=complex)[0]
        for k in range(N):
            want[:, k] = np.convolve(F, power)[:N]
            power = np.convolve(power, phi)[:N]
        w = WcoSymbols(Pow(Poly((c0, c1)), alpha), Moebius(MoebiusMap(a, lam)))
        for n in (8, 16, 32):
            got = finite_section(w, n, cfg).entries
            assert np.max(np.abs(got - want[:n, :n])) < 1e-12
            assert np.max(np.abs(got - want[:n, :n])) <= 1e-14 * np.max(np.abs(want[:n, :n]))

    def test_condition_number_identity(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        s = finite_section(w, 8, cfg)
        assert condition_number(s) == pytest.approx(1.0, rel=1e-10)

    def test_condition_number_scales(self, cfg):
        w = WcoSymbols(Const(3.0), IDENTITY)
        s = finite_section(w, 8, cfg)
        # scalar multiple of the identity is perfectly conditioned
        assert condition_number(s) == pytest.approx(1.0, rel=1e-10)

    def test_singular_section_raises(self):
        entries = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        s = FiniteSection(2, entries)
        with pytest.raises(SingularMatrix):
            condition_number(s)

    def test_condition_number_dimension_guard(self):
        s = FiniteSection(1, np.array([[1.0]], dtype=complex))
        with pytest.raises(ParameterError):
            condition_number(s)


class TestIsometryDefect:
    def test_empty_family(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        with pytest.raises(ParameterError):
            isometry_defect(w, parse_space("hardy:2"), (), cfg)

    def test_zero_member(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        with pytest.raises(DegenerateInput):
            isometry_defect(w, parse_space("hardy:2"), (Const(0.0),), cfg)

    def test_rotation_on_hardy(self, cfg):
        w = WcoSymbols(Const(1.0), Moebius(rotation_map(0.9)))
        d = isometry_defect(w, parse_space("hardy:2"), seeded_polys(5, seed=3), cfg)
        assert d < 1e-10

    def test_scaling_on_hardy(self, cfg):
        w = WcoSymbols(Const(2.0), IDENTITY)
        d = isometry_defect(w, parse_space("hardy:2"), (IDENTITY,), cfg)
        assert d == pytest.approx(1.0, rel=1e-12)

    def test_unimodular_rotation_on_bloch(self, cfg):
        lam = np.exp(0.4j)
        w = WcoSymbols(Const(lam), Moebius(rotation_map(-0.4)))
        d = isometry_defect(w, parse_space("bloch:1"), default_probe_family()[:12], cfg)
        assert d < 1e-9


class TestFamilies:
    def test_monomial(self):
        assert monomial(0).coeffs == (1.0,)
        assert monomial(3).coeffs == (0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            monomial(-1)

    def test_random_polynomials_deterministic(self):
        a = random_polynomials(6, seed=42)
        b = random_polynomials(6, seed=42)
        assert all(x.coeffs == y.coeffs for x, y in zip(a, b))
        c = random_polynomials(6, seed=43)
        assert any(x.coeffs != y.coeffs for x, y in zip(a, c))

    def test_random_polynomials_shape(self):
        for f in seeded_polys(20, DEFAULT_SEED, 7):
            assert 3 <= len(f.coeffs) <= 8
            assert max(abs(c) for c in f.coeffs) <= 1.0

    def test_matches_conftest_recipe(self):
        ours = seeded_polys(4, seed=DEFAULT_SEED)
        theirs = random_polynomials(4)
        assert all(x.coeffs == y.coeffs for x, y in zip(ours, theirs))

    def test_default_probe_family(self):
        fam = default_probe_family()
        assert len(fam) == 47
        assert fam[0].coeffs == (1.0,)
        assert fam[8].coeffs == (0.0,) * 8 + (1.0,)
        # the eight trailing probes are 1 + lambda z with unimodular lambda
        for f in fam[-8:]:
            assert len(f.coeffs) == 2
            assert abs(f.coeffs[0] - 1.0) < 1e-15
            assert abs(abs(f.coeffs[1]) - 1.0) < 1e-15
        again = default_probe_family()
        assert all(x.coeffs == y.coeffs for x, y in zip(fam, again))
