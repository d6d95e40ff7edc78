"""Operator symbols, finite sections, and defect measurements."""

import numpy as np
import pytest

from conftest import seeded_polys
from wcolab import operators
from wcolab.analytic_core import Const, Moebius, MoebiusMap, Mul, Poly, Pow, Recip, as_family, rotation_map, series
from wcolab.axiom_harness import harness_family, run_all
from wcolab.characterization import check_invertible, check_isometry, multiplier_test
from wcolab.errors import DegenerateInput, DomainError, ParameterError, SingularMatrix
from wcolab.operators import (
    DEFAULT_SEED,
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
from wcolab.spaces import norms, parse_space

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

    @pytest.mark.parametrize("N", [2.5, 3.0, True, np.True_])
    def test_dimension_that_is_no_integer_raises(self, cfg, N):
        with pytest.raises(ParameterError):
            finite_section(WcoSymbols(Const(1.0), IDENTITY), N, cfg)
        assert finite_section(WcoSymbols(Const(1.0), IDENTITY), np.int64(3), cfg).shape == (3, 3)

    def test_matches_one_image_per_monomial(self, cfg):
        w = WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j))))
        N = 12
        want = np.stack([series(apply(w, monomial(k)), N) for k in range(N)], axis=1)
        got = finite_section(w, N, cfg)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_identity_operator(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        s = finite_section(w, 8, cfg)
        assert len(s) == 8
        assert np.max(np.abs(s - np.eye(8))) < 1e-12

    def test_independent_of_r_max(self, cfg):
        # Sections come from the series at 0, so the grid's outer radius plays no part.
        w = WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j))))
        s = finite_section(w, 16, GridConfig(r_max=0.6))
        assert s.tobytes() == finite_section(w, 16, cfg).tobytes()

    def test_sections_on_a_grid_inside_the_section_circle(self):
        # A grid with a small r_max still gives the exact rotation section.
        grid = GridConfig(r_max=0.6)
        theta = 1.1
        s = finite_section(WcoSymbols(Const(1.0), Moebius(rotation_map(theta))), 8, grid)
        assert np.max(np.abs(s - np.diag(np.exp(1j * theta * np.arange(8))))) < 1e-11

    def test_rotation_is_diagonal(self, cfg):
        theta = 1.1
        w = WcoSymbols(Const(1.0), Moebius(rotation_map(theta)))
        s = finite_section(w, 8, cfg)
        expected = np.diag(np.exp(1j * theta * np.arange(8)))
        assert np.max(np.abs(s - expected)) < 1e-11

    def test_shift_weight(self, cfg):
        # F = z, phi = z sends z^k to z^(k+1): ones on the subdiagonal
        w = WcoSymbols(IDENTITY, IDENTITY)
        s = finite_section(w, 6, cfg)
        expected = np.eye(6, k=-1)
        assert np.max(np.abs(s - expected)) < 1e-12

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
        assert np.max(np.abs(s - expected)) < 1e-11

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
            got = finite_section(w, n, cfg)
            assert np.max(np.abs(got - want[:n, :n])) < 1e-12
            assert np.max(np.abs(got - want[:n, :n])) <= 1e-14 * np.max(np.abs(want[:n, :n]))

    def test_condition_number_identity(self, cfg):
        w = WcoSymbols(Const(1.0), IDENTITY)
        s = finite_section(w, 8, cfg)
        assert condition_number(s) == pytest.approx(1.0, rel=1e-10)

    def test_condition_number_scales(self, cfg):
        # scalar multiple of the identity is perfectly conditioned, however small
        for c in (3.0, 1e-305):
            w = WcoSymbols(Const(c), IDENTITY)
            s = finite_section(w, 8, cfg)
            assert condition_number(s) == pytest.approx(1.0, rel=1e-10), c

    def test_singular_section_raises(self):
        s = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(SingularMatrix):
            condition_number(s)

    def test_condition_number_dimension_guard(self):
        s = np.array([[1.0]], dtype=complex)
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


def single_batch_defect(w, space, family, cfg):
    # The defect from the norms of the whole family in one call.
    ratios = norms(space, apply(w, as_family(family)), cfg) / norms(space, family, cfg)
    return float(np.max(np.abs(ratios - 1.0)))


# The sup-type and BMOA norms of a member do not depend on which members
# share its call; the B1 area sums and the Besov quadratic sums may round
# differently.
BITWISE_SPACES = ("bloch:1", "logbloch:1", "growth:1", "bmoa", "hinf")
INVOLUTION = WcoSymbols(Const(np.exp(0.4j)), Moebius(MoebiusMap(0.3 - 0.2j, 1.0)))


# A default probe family, and the fixed probes alone in reverse order,
# whose norms all come from the cache.
FIXED_PROBE_FAMILIES = {"seeded": default_probe_family(7), "fixed reversed": operators._FIXED_PROBES[::-1]}


class TestFixedProbeNorms:
    @pytest.mark.parametrize("name", sorted(FIXED_PROBE_FAMILIES))
    @pytest.mark.parametrize("text", BITWISE_SPACES + ("b1", "besov:2,0"))
    def test_defect_equals_the_single_batch_reference(self, coarse_cfg, text, name):
        space = parse_space(text)
        family = FIXED_PROBE_FAMILIES[name]
        operators._fixed_probe_norms.cache_clear()
        got = isometry_defect(INVOLUTION, space, family, coarse_cfg)
        want = single_batch_defect(INVOLUTION, space, family, coarse_cfg)
        if text in BITWISE_SPACES:
            assert got.hex() == want.hex()
        else:
            assert abs(got - want) <= 1e-15 * want
        # The second call reads the fixed probes' norms from the cache.
        assert isometry_defect(INVOLUTION, space, family, coarse_cfg).hex() == got.hex()

    @pytest.mark.parametrize("name", sorted(FIXED_PROBE_FAMILIES))
    def test_norms_are_kept_per_grid(self, coarse_cfg, name):
        # The H-infinity norms of z^k are r_max^k: they differ between the grids.
        space = parse_space("hinf")
        family = FIXED_PROBE_FAMILIES[name]
        isometry_defect(INVOLUTION, space, family, coarse_cfg)
        other = GridConfig(n_theta=128, n_radial=32, r_max=0.9)
        got = isometry_defect(INVOLUTION, space, family, other)
        assert got.hex() == single_batch_defect(INVOLUTION, space, family, other).hex()

    def test_fixed_probes_are_found_by_value(self):
        family = default_probe_family(7)
        copies = tuple(Poly(f.coeffs) for f in family)
        assert [operators._FIXED_INDEX.get(f) for f in copies] == list(range(9)) + [None] * 30 + list(range(9, 17))


# The first two polynomials of random_polynomials(2, seed), as float.hex
# pairs (real, imaginary) per coefficient.  NumPy does not promise the
# same Generator stream across releases (NEP 19); every seed the ROADMAP
# and CHANGES.md cite rests on it.  The second seed takes SeedSequence's
# path for an entropy of more than one 32-bit word.
PINNED_STREAMS = {
    DEFAULT_SEED: (
        (("0x1.de94b3b9e8be1p-1", "0x1.5d80d6e9adcf9p-2"), ("-0x1.b8081c3243c1fp-3", "-0x1.ae03f85a8eb11p-2"),
         ("0x1.2d126e518dd8ap-1", "0x1.10f3dc1217867p-1"), ("-0x1.1beec20511546p-1", "0x1.b3523c29f6107p-2"),
         ("-0x1.467200461582ap-2", "0x1.fbd0aef5773e0p-5"), ("0x1.b991a9c7081d1p-1", "0x1.d03791b619821p-3")),
        (("0x1.97dd9a37312d2p-1", "0x1.76a22c4fb2b97p-3"), ("-0x1.72130fd57c3edp-1", "0x1.035e5ab5852e8p-2"),
         ("-0x1.6571fdec1f7a9p-1", "-0x1.32d667697e77ap-2"), ("0x1.8b48969758733p-2", "-0x1.46e5c83308661p-4")),
    ),
    DEFAULT_SEED << 32: (
        (("0x1.620f2f0e88008p-3", "0x1.58528c91e750cp-4"), ("0x1.8ecf2ba763e36p-3", "-0x1.719220532af5fp-1"),
         ("0x1.86e89283fffa0p-1", "-0x1.3be0f050f617fp-2")),
        (("-0x1.a8a6468c5caadp-1", "0x1.2566ebdf555e5p-2"), ("0x1.0ef0ba5a422e5p-1", "-0x1.77cb92f7ee526p-1"),
         ("-0x1.bb8ef70cfce64p-1", "0x1.97095f6c5d8c8p-2"), ("0x1.35c18fa1d344ap-1", "-0x1.3b94f52351c73p-1"),
         ("0x1.a3d1db3aae4bap-2", "-0x1.0499fdb876418p-1"), ("0x1.5f1a67ee18642p-1", "-0x1.2b817d6088ff5p-1"),
         ("-0x1.f027f809087c0p-2", "0x1.13e4f163f5e6bp-1"), ("-0x1.3ab18793c7c32p-1", "0x1.b0ec0d4163280p-2"),
         ("-0x1.5bd024229347bp-1", "-0x1.9e40c7d47a474p-3")),
    ),
}


class TestFamilies:
    @pytest.mark.parametrize("seed", sorted(PINNED_STREAMS), ids=hex)
    def test_probe_stream_is_pinned(self, seed):
        got = [tuple((c.real.hex(), c.imag.hex()) for c in f.coeffs) for f in random_polynomials(2, seed)]
        assert got == list(PINNED_STREAMS[seed])

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

    # Every seeded entry point reaches random_polynomials, which takes an
    # integer >= 0 only: None would draw fresh OS entropy, and True read as 1.
    @pytest.mark.parametrize("seed", [None, True, -1, 1.5], ids=["none", "bool", "negative", "float"])
    def test_seed_must_be_an_integer(self, cfg, seed):
        hardy, besov = parse_space("hardy:2"), parse_space("besov:2,0")
        calls = [
            lambda: random_polynomials(2, seed),
            lambda: default_probe_family(seed),
            lambda: harness_family(seed),
            lambda: run_all(hardy, cfg, seed),
            lambda: check_isometry(WcoSymbols(Const(1.0), Moebius(rotation_map(0.4))), besov, cfg, seed),
            lambda: check_invertible(WcoSymbols(Poly((1.0, 0.3)), IDENTITY), hardy, cfg, seed),
            lambda: multiplier_test(Poly((1.0, 0.3)), besov, cfg, seed),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="seed"):
                call()

    # An exact negative decides before the probes are drawn: F = z - 0.3
    # has a zero inside, so the verdict would be NotInvertible.
    @pytest.mark.parametrize("seed", [None, "x", -1, True], ids=["none", "str", "negative", "bool"])
    def test_invertibility_checks_its_seed_first(self, cfg, seed):
        w = WcoSymbols(Poly((-0.3, 1.0)), Moebius(MoebiusMap(0.3, 1.0)))
        assert check_invertible(w, parse_space("hardy:2"), cfg).verdict == "NotInvertible"
        with pytest.raises(ParameterError, match="seed"):
            check_invertible(w, parse_space("hardy:2"), cfg, seed)

    def test_numpy_integer_seed_is_the_integer(self):
        assert random_polynomials(3, np.int64(42)) == random_polynomials(3, 42)

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
