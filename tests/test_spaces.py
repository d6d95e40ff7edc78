"""Space parsing, norm goldens, decomposition structure, invariances."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import beta as beta_fn

from wcolab.analytic_core import (
    Add,
    Compose,
    Const,
    Moebius,
    Mul,
    Poly,
    Pow,
    R_MAX,
    Recip,
    TreeFamily,
    rotation_map,
)
from wcolab.analytic_core import Family, MoebiusMap, PolyFamily, as_family, image_family
from wcolab.errors import ParameterError, ParseError, UnsupportedSpace
from wcolab.axiom_harness import ALL_FAMILIES
from wcolab.operators import WcoSymbols, apply, default_probe_family, isometry_defect
from wcolab.quadrature import FLAT_WEIGHT, GridConfig, _polish, gauss01, unit_circle
from conftest import seeded_polys
from wcolab import spaces
from wcolab.spaces import (
    _BMOA_A_RADII,
    SpaceSpec,
    _bmoa_kernel,
    _bmoa_mode_sums,
    _bmoa_seminorms,
    norm,
    norms,
    parse_space,
    pointeval_bound,
    seminorm,
    seminorms,
)

CHI = Poly((0.0, 1.0))

ALL_SPACE_STRINGS = (
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


class TestParse:
    @pytest.mark.parametrize(
        "text",
        ALL_SPACE_STRINGS
        + ("bloch:1.5", "mixed:2,inf,0.5", "hardy:4", "bergman:1,3")
        # Integral parameters print whole below 2^53 only.
        + ("logbloch:2", "logbloch:0.5", "logbloch:9007199254740991", "logbloch:1e+16", "logbloch:1e+308", "logbloch:-1e+308"),
    )
    def test_round_trip(self, text):
        assert str(parse_space(text)) == text

    def test_case_and_whitespace(self):
        assert parse_space(" BLOCH : 1 ") == parse_space("bloch:1")

    def test_unknown_family(self):
        with pytest.raises(ParseError):
            parse_space("sobolev:2")

    @pytest.mark.parametrize("text", ["hardy", "bloch:1,2", "bergman:2", "hinf:3", "mixed:2,2"])
    def test_wrong_arity(self, text):
        with pytest.raises(ParseError):
            parse_space(text)

    def test_bad_numeric(self):
        with pytest.raises(ParseError):
            parse_space("hardy:two")

    @pytest.mark.parametrize(
        "text",
        [
            "hardy:0.5",
            "hardy:inf",
            "bergman:2,-1.5",
            "growth:0",
            "growth:-1",
            "bloch:0",
            "mixed:2,0.5,0",
            "mixed:2,nan,0.5",
            "mixed:2,2,0",
            "mixed:2,2,-0.5",
            "mixed:2,inf,-0.5",
            "besov:0.9,0",
        ],
    )
    def test_out_of_range(self, text):
        with pytest.raises(ParseError):
            parse_space(text)

    def test_mixed_q_inf_allowed(self):
        spec = parse_space("mixed:2,inf,0.5")
        assert spec.q == np.inf

    def test_spec_validation_direct(self):
        with pytest.raises(ParameterError):
            SpaceSpec("hinf", p=2.0)
        with pytest.raises(ParameterError):
            SpaceSpec("hardy")
        with pytest.raises(ParameterError):
            SpaceSpec("nosuch")

    def test_a6_flag(self):
        a6 = {"bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1"}
        for text in ALL_SPACE_STRINGS:
            assert parse_space(text).has_a6_form == (text in a6)

    @pytest.mark.parametrize(
        "text, order, p, q, weight, point",
        [
            ("hinf", 0, np.inf, np.inf, FLAT_WEIGHT, ()),
            ("hardy:3", 0, 3.0, np.inf, FLAT_WEIGHT, ()),
            ("bergman:3,1", 0, 3.0, 3.0, 1.0, ()),
            ("mixed:3,1.5,0.7", 0, 3.0, 1.5, 0.7 * 1.5 - 1.0, ()),
            ("mixed:2,inf,0", 0, 2.0, np.inf, FLAT_WEIGHT, ()),
            ("mixed:2,inf,0.5", 0, 2.0, np.inf, lambda t: (1.0 - t) ** 0.5, ()),
            ("growth:0.5", 0, np.inf, np.inf, lambda t: (1.0 - t) ** 0.5, ()),
            ("bloch:2", 1, np.inf, np.inf, lambda t: (1.0 - t) ** 2.0, (0,)),
            ("logbloch:2", 1, np.inf, np.inf, lambda t: (1.0 - t) * np.log(2.0 / (1.0 - t)) ** 2.0, (0,)),
            ("bmoa", 1, 2.0, 2.0, None, (0,)),
            ("besov:3,0.5", 1, 3.0, 3.0, 0.5, (0,)),
            ("b1", 2, 1.0, 1.0, 0.0, (0, 1)),
        ],
    )
    def test_shape(self, text, order, p, q, weight, point):
        space = parse_space(text)
        shape = space.shape
        assert (shape.order, shape.p, shape.q, shape.point) == (order, p, q, point)
        if weight is FLAT_WEIGHT or not callable(weight):
            assert shape.weight is weight or shape.weight == weight
        else:
            t = np.array([0.0, 0.3, 0.9])
            assert np.array_equal(shape.weight(t), weight(t))
        assert space.has_a6_form == (order >= 1)


class TestGoldens:
    """Closed-form values at the default grid."""

    def test_hinf_poly(self, cfg):
        # sup of |1 + z| over the scanned disk sits at z = r_max
        got = norm(parse_space("hinf"), Poly((1.0, 1.0)), cfg).total
        assert got == pytest.approx(1.0 + R_MAX, abs=1e-12)

    def test_hardy_monomials(self, cfg):
        space = parse_space("hardy:2")
        for n in (1, 3, 6):
            f = Poly((0.0,) * n + (1.0,))
            assert norm(space, f, cfg).total == pytest.approx(R_MAX ** n, rel=1e-13)

    def test_hardy2_parseval(self, cfg):
        coeffs = (1.0, -0.5, 0.25j, 0.0, 0.125)
        f = Poly(coeffs)
        exact = np.sqrt(sum(abs(c) ** 2 * R_MAX ** (2 * k) for k, c in enumerate(coeffs)))
        assert norm(parse_space("hardy:2"), f, cfg).total == pytest.approx(exact, rel=1e-12)

    def test_hardy_on_the_r_max_circle(self):
        # r_max beyond the last ladder radius 1 - 2^-20: the mean is still taken on |z| = r_max.
        cfg = GridConfig(r_max=0.9999999)
        assert norm(parse_space("hardy:2"), Poly((0.0, 1.0)), cfg).total == pytest.approx(0.9999999, rel=1e-14)

    @pytest.mark.parametrize("p,alpha", [(2.0, 0.0), (2.0, 1.5), (4.0, 0.5), (1.0, 3.0), (1.0, 0.0)])
    def test_bergman_monomials(self, cfg, p, alpha):
        # normalized weight: ||z^n||^p = (alpha+1) B(np/2 + 1, alpha+1)
        space = parse_space(f"bergman:{p},{alpha}")
        for n in (1, 2, 5):
            f = Poly((0.0,) * n + (1.0,))
            exact = ((alpha + 1.0) * beta_fn(n * p / 2.0 + 1.0, alpha + 1.0)) ** (1.0 / p)
            assert norm(space, f, cfg).total == pytest.approx(exact, rel=1e-10)

    def test_bergman2_poly_closed_form(self, cfg):
        coeffs = (1.0, 2.0j, 0.0, -0.5)
        f = Poly(coeffs)
        exact = np.sqrt(sum(abs(c) ** 2 / (k + 1.0) for k, c in enumerate(coeffs)))
        assert norm(parse_space("bergman:2,0"), f, cfg).total == pytest.approx(exact, rel=1e-10)

    def test_bloch_chi(self, cfg):
        got = norm(parse_space("bloch:1"), CHI, cfg)
        assert got.total == pytest.approx(1.0, abs=1e-12)
        assert got.point_part == 0.0

    def test_bloch_z_squared(self, cfg):
        # sup (1-t^2) 2t = 4 sqrt(3) / 9 at t = 1/sqrt(3)
        got = norm(parse_space("bloch:1"), Poly((0.0, 0.0, 1.0)), cfg).total
        assert got == pytest.approx(4.0 * np.sqrt(3.0) / 9.0, abs=1e-11)

    def test_logbloch_chi(self, cfg):
        # sup (1-t) log(2/(1-t)) = 2/e at 1-t = 2/e
        got = norm(parse_space("logbloch:1"), CHI, cfg).total
        assert got == pytest.approx(2.0 / np.e, abs=1e-12)

    def test_b1_values(self, cfg):
        space = parse_space("b1")
        assert norm(space, Const(3.0 - 4.0j), cfg).total == pytest.approx(5.0, abs=1e-12)
        assert norm(space, CHI, cfg).total == pytest.approx(1.0, abs=1e-12)
        got = norm(space, Poly((0.0, 0.0, 1.0)), cfg)
        # f'' = 2 and the area measure is normalized to mass one
        assert got.total == pytest.approx(2.0, abs=1e-10)
        assert got.point_part == 0.0

    def test_b1_monomials(self, cfg):
        # f'' = k(k-1) z^(k-2) and f'(0) = 0, so ||z^k|| = k(k-1) int_0^1 r^(k-2) 2r dr = 2(k-1).
        # The odd circle means, r^(k-2) for odd k, are polynomials in r, not in t = r^2.
        space = parse_space("b1")
        for k in range(2, 9):
            got = norm(space, Poly((0.0,) * k + (1.0,)), cfg).total
            assert got == pytest.approx(2.0 * (k - 1), rel=1e-14, abs=0.0)

    def test_mixed_sup_chi(self, cfg):
        # sup_r (1 - r^2)^(1/2) r = 1/2 at r = 1/sqrt(2)
        got = norm(parse_space("mixed:2,inf,0.5"), CHI, cfg).total
        assert got == pytest.approx(0.5, abs=1e-10)

    def test_besov_chi(self, cfg):
        got = norm(parse_space("besov:2,0"), CHI, cfg)
        assert got.total == pytest.approx(1.0, abs=1e-12)
        assert got.point_part == 0.0
        assert got.seminorm_part == pytest.approx(1.0, abs=1e-12)

    def test_growth_reciprocal(self, cfg):
        # (1 - |z|^2) / |1 - z| peaks at z = r_max with value 1 + r_max
        f = Recip(Poly((1.0, -1.0)))
        got = norm(parse_space("growth:1"), f, cfg).total
        assert got == pytest.approx(1.0 + R_MAX, abs=2e-6)


class TestDecomposition:
    @pytest.mark.parametrize("text", ["bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1"])
    def test_total_splits(self, cfg, text):
        space = parse_space(text)
        f = Poly((0.7 - 0.2j, 1.0, 0.25j))
        got = norm(space, f, cfg)
        assert got.has_a6_form
        assert got.total == got.point_part + got.seminorm_part
        assert got.point_part == abs(f(0.0))
        assert got.seminorm_part == seminorm(space, f, cfg)
        # Stacked families read the point terms at 0 one order at a time: the
        # probes, a Moebius image and a Leibniz-weight image under a map.
        probes = as_family(default_probe_family())
        for fam in (
            probes,
            image_family(Const(0.6 - 0.8j), Moebius(MoebiusMap(0.5 - 0.3j, np.exp(1.9j))), probes),
            image_family(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j))), probes),
        ):
            total, point, semi = spaces._norm_parts(space, fam, cfg)
            want = np.array([abs(member(0.0)) for member in fam])
            assert np.all(np.abs(point - want) <= 1e-15 * np.maximum(1.0, want))
            assert total.tobytes() == (point + semi).tobytes()

    @pytest.mark.parametrize("text", ["bloch:1", "logbloch:1", "bmoa", "besov:2,0", "b1"])
    def test_seminorm_kills_constants(self, cfg, text):
        space = parse_space(text)
        f = Poly((0.0, 0.5, 0.0, 0.25))
        shifted = Add(f, Const(2.0 - 1.0j))
        a = seminorm(space, f, cfg)
        b = seminorm(space, shifted, cfg)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("text", ["hinf", "hardy:2", "bergman:2,0", "mixed:2,2,0.5", "growth:1"])
    def test_no_decomposition(self, cfg, text):
        space = parse_space(text)
        got = norm(space, CHI, cfg)
        assert not got.has_a6_form
        assert got.point_part == 0.0
        with pytest.raises(UnsupportedSpace):
            seminorm(space, CHI, cfg)


class TestInvariances:
    @pytest.mark.parametrize("text", ALL_SPACE_STRINGS + ("mixed:2,inf,0.5",))
    def test_rotation_invariance(self, cfg, text):
        space = parse_space(text)
        f = Poly((0.5, 1.0, 0.25j, -0.125))
        rotated = Compose(f, Moebius(rotation_map(0.7)))
        a = norm(space, f, cfg).total
        b = norm(space, rotated, cfg).total
        assert b == pytest.approx(a, rel=1e-9)

    @pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
    def test_rotation_is_an_isometry_of_besov_1(self, cfg, theta):
        # |f'| has a kink at each zero of f', which n_theta angles alias at p = 1.
        w = WcoSymbols(Const(np.exp(0.7j)), Moebius(rotation_map(theta)))
        assert isometry_defect(w, parse_space("besov:1,0"), default_probe_family(5), cfg) < 1e-7

    def test_mixed_diagonal_matches_bergman(self, cfg):
        # q = p makes the mixed integral literally the Bergman one with
        # exponent alpha p - 1
        f = Poly((1.0, -0.5, 0.25j, 0.125))
        for p, alpha in [(2.0, 0.5), (3.0, 1.0), (4.0, 0.25)]:
            a = norm(parse_space(f"mixed:{p},{p},{alpha}"), f, cfg).total
            b = norm(parse_space(f"bergman:{p},{alpha * p - 1.0}"), f, cfg).total
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mixed_flat_sup_is_hardy(self, cfg, p):
        # With alpha = 0 the sup over r of M_p(r) is the mean on the outer
        # circle, the Hardy norm, bit for bit.
        probes = as_family(default_probe_family())
        images = image_family(None, Moebius(MoebiusMap(0.5 - 0.3j, 1.0)), probes)
        for fam in (probes, images):
            a = norms(parse_space(f"mixed:{p},inf,0"), fam, cfg)
            b = norms(parse_space(f"hardy:{p}"), fam, cfg)
            assert np.array_equal(a, b)


class TestOutOfRangeMembers:
    # A member whose norm over- or underflows is measured again as f / s,
    # s a power of two, in its own family: a polynomial keeps its route.
    F = (0.3, 1.0, -0.5j, 0.25)

    @pytest.mark.parametrize("text", ALL_FAMILIES)
    def test_subnormal_polynomial_has_its_scaled_norm(self, cfg, text):
        # Coefficients near 2^-1060 are subnormal: the sums of |c_j|^2 r^(2j)
        # underflow, and the peak on |z| = r_max is below the smallest normal.
        space = parse_space(text)
        c = 2.0**-1060
        want = c * norm(space, Poly(self.F), cfg).total
        got = norm(space, Poly(tuple(c * a for a in self.F)), cfg).total
        assert abs(got - want) <= 4 * 2.0**-1074, (got, want)

    def test_huge_b1_polynomial_evaluates_no_tree_point(self, cfg, monkeypatch):
        space, c = parse_space("b1"), 2.0**1020
        want = c * norm(space, Poly(self.F), cfg).total
        points = []
        evaluate = TreeFamily._evaluate
        monkeypatch.setattr(TreeFamily, "_evaluate", lambda fam, z, *args, **kwargs: points.append(z.size) or evaluate(fam, z, *args, **kwargs))
        got = norm(space, Poly(tuple(c * a for a in self.F)), cfg).total
        assert sum(points) == 0
        assert abs(got - want) <= 1e-14 * want


class TestBmoa:
    def test_kernel_built_once_per_grid(self, coarse_cfg):
        from wcolab import spaces

        spaces._bmoa_kernel.cache_clear()
        family = [CHI, Poly((0.5, 0.0, 1.0j))]
        first = norms(parse_space("bmoa"), family, coarse_cfg)
        for grid in (coarse_cfg.refined(), coarse_cfg, coarse_cfg.refined()):
            norms(parse_space("bmoa"), family, grid)
        assert spaces._bmoa_kernel.cache_info().misses == 2
        assert np.array_equal(norms(parse_space("bmoa"), family, coarse_cfg), first)

    def test_constant(self, cfg):
        got = norm(parse_space("bmoa"), Const(2.0j), cfg)
        assert got.total == pytest.approx(2.0, abs=1e-12)
        assert got.seminorm_part == pytest.approx(0.0, abs=1e-12)

    def test_chi_oracle(self, cfg):
        # sup over a of (1-|a|^2) integral of (1-|z|^2)/|1-conj(a)z|^2
        # is attained at a = 0 with value 1/2
        got = seminorm(parse_space("bmoa"), CHI, cfg)
        assert got == pytest.approx(np.sqrt(0.5), abs=1e-10)

    def test_dominates_a_zero_term(self, cfg):
        space = parse_space("bmoa")
        # The a = 0 term: the normalized area integral of |f'|^2 (1 - |z|^2),
        # Gauss-Legendre in t = r^2 and the trapezoid rule in the angle.
        t, w = gauss01(cfg.n_radial)
        z = np.sqrt(t)[:, None] * unit_circle(cfg.n_theta)[None, :]
        for f in seeded_polys(4, seed=11, max_degree=6):
            base = float(w @ (np.abs(f.derivatives(z, 1)[1]) ** 2 * (1.0 - np.abs(z) ** 2)).mean(axis=1))
            assert seminorm(space, f, cfg) ** 2 >= base - 1e-10


def _golden_max_batch(fun, lo, hi, iters: int):
    """Largest value seen by a golden-section search in each bracket [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = fun(c), fun(d)
    best = np.maximum(fc, fd)
    for _ in range(iters):
        keep_lo = fc >= fd
        lo, hi = np.where(keep_lo, lo, c), np.where(keep_lo, d, hi)
        # The surviving interior point keeps its value; one new point per step.
        carried, f_carried = np.where(keep_lo, c, d), np.where(keep_lo, fc, fd)
        x = np.where(keep_lo, hi - invphi * (hi - lo), lo + invphi * (hi - lo))
        fx = fun(x)
        best = np.maximum(best, fx)
        c, fc = np.where(keep_lo, x, carried), np.where(keep_lo, fx, f_carried)
        d, fd = np.where(keep_lo, carried, x), np.where(keep_lo, f_carried, fx)
    return best


def _bmoa_reference(fam, cfg):
    """BMOA star seminorms with the Fourier series in arg(a) summed term by term.

    The same spectral sums and ladder of |a| as the package, but the
    argument of a is maximized by a 60-step golden-section search whose
    every step evaluates exp(i m beta) for each mode m.
    """
    t, w = gauss01(cfg.n_radial)
    radii = np.sqrt(t)
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    m_max = cfg.n_theta // 2 - 1
    ms = np.arange(1, m_max + 1)
    mods = np.asarray(_BMOA_A_RADII)
    pref = w * (1.0 - mods[:, None] ** 2) * (1.0 - t) / (1.0 - (mods[:, None] * radii) ** 2)
    kernel = pref[:, :, None] * (mods[:, None] * radii)[:, :, None] ** np.arange(m_max + 1)
    D = np.abs(fam.derivative(z, 1)) ** 2
    coeffs = np.fft.fft(D, axis=-1)[:, :, : m_max + 1] / cfg.n_theta
    sums = np.einsum("krm,arm->kam", coeffs, kernel)
    s0 = sums[:, :, 0].real
    s = sums[:, 1:, 1:]
    padded = np.zeros(s.shape[:2] + (cfg.n_theta,), dtype=complex)
    padded[:, :, 0] = s0[:, 1:]
    padded[:, :, 1 : m_max + 1] = 2.0 * s
    profile = np.fft.ifft(padded, axis=-1).real * cfg.n_theta
    beta0 = 2.0 * np.pi * np.argmax(profile, axis=-1) / cfg.n_theta
    width = 2.0 * np.pi / cfg.n_theta

    def at(beta):
        return s0[:, 1:] + 2.0 * (s * np.exp(1j * ms * beta[:, :, None])).sum(axis=-1).real

    golden = _golden_max_batch(at, beta0 - width, beta0 + width, 60)
    best = np.maximum(s0[:, 0], np.maximum(profile.max(axis=-1), golden).max(axis=1))
    return np.sqrt(np.maximum(best, 0.0))


class TestBmoaArgumentSearch:
    @pytest.mark.parametrize("images", [False, True])
    def test_matches_term_by_term_series(self, cfg, images):
        fam = as_family(default_probe_family())
        if images:
            fam = apply(WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.5 - 0.3j, 1.0))), fam)
        got = _bmoa_seminorms(fam, cfg)
        want = _bmoa_reference(fam, cfg)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _bmoa_mode_sums_by_blocks(fam, cfg):
    """The sampled BMOA mode sums from fam.derivative on each row block: the reference for the rowwise sweep."""
    pref, r_pow, _ = _bmoa_kernel(cfg)
    m_max = cfg.n_theta // 2 - 1
    z = np.sqrt(gauss01(cfg.n_radial)[0])[:, None] * unit_circle(cfg.n_theta)[None, :]
    acc = np.zeros((len(_BMOA_A_RADII), len(fam), 2 * (m_max + 1)))
    for rows in fam.row_blocks(z.shape, 1):
        D = np.abs(fam.derivative(z[rows], 1).transpose(1, 0, 2)) ** 2
        coeffs = np.fft.rfft(D, axis=-1)[:, :, : m_max + 1] * r_pow[rows, None, :]
        acc += (pref[:, rows] @ coeffs.view(float).reshape(len(coeffs), -1)).reshape(acc.shape)
    return acc.view(complex)


# A Moebius map whose images' series would not fit BLOCK_BYTES (9,452
# terms for f' at |a| = 0.99 against 1,394 for the 47 probes): the images
# fold, and are sampled all the same.
PAST_BUDGET = Moebius(MoebiusMap(0.99 * np.exp(-0.4j), 1.0))


class TestBmoaSweep:
    # Images without z-coefficients have their mode sums sampled, one row
    # block at a time: under a map past the series budget, which folds, and
    # under a weight left to Leibniz's rule whose pole, at 1 / 0.99, lies
    # inside every circle that could certify it.
    IMAGES = {
        "fold": lambda fam: apply(WcoSymbols(Const(1.0), PAST_BUDGET), fam),
        "leibniz": lambda fam: apply(WcoSymbols(Recip(Poly((1.0, 0.99j))), Moebius(MoebiusMap(0.3j, 1.0))), fam),
    }

    @pytest.mark.parametrize("name", sorted(IMAGES))
    def test_mode_sums_equal_the_block_formulation_bitwise(self, cfg, name):
        fam = self.IMAGES[name](as_family(default_probe_family()))
        assert fam.z_coefficients(1) is None
        got, want = _bmoa_mode_sums(fam, cfg), _bmoa_mode_sums_by_blocks(fam, cfg)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("members", [1, 5, 47])
    def test_profile_chunks_leave_the_seminorms_bitwise(self, cfg, monkeypatch, members):
        fam = self.IMAGES["fold"](as_family(default_probe_family()))
        want = _bmoa_seminorms(fam, cfg)
        monkeypatch.setattr(spaces, "_PROFILE_MEMBERS", members)
        assert _bmoa_seminorms(fam, cfg).tobytes() == want.tobytes()


def _bmoa_per_mode(fam, cfg):
    """BMOA star seminorms with the radial sums taken mode by mode.

    The kernel pref[a, r] (|a| r)^m as one array and one complex product
    per Fourier mode and row block; the rest as in _bmoa_seminorms.
    """
    t, w = gauss01(cfg.n_radial)
    radii = np.sqrt(t)
    z = radii[:, None] * unit_circle(cfg.n_theta)[None, :]
    m_max = cfg.n_theta // 2 - 1
    mods = np.asarray(_BMOA_A_RADII)
    pref = w * (1.0 - mods[:, None] ** 2) * (1.0 - t) / (1.0 - (mods[:, None] * radii) ** 2)
    kernel = pref[:, :, None] * (mods[:, None] * radii)[:, :, None] ** np.arange(m_max + 1)
    sums = np.zeros((len(fam), len(mods), m_max + 1), dtype=complex)
    for rows in fam.row_blocks(z.shape, 1):
        v = fam.derivative(z[rows], 1)
        coeffs = np.fft.rfft(v.real * v.real + v.imag * v.imag, axis=-1)[:, :, : m_max + 1] / cfg.n_theta
        sums += np.matmul(coeffs.transpose(2, 0, 1), kernel[:, rows].transpose(2, 1, 0)).transpose(1, 2, 0)
    s0 = sums[:, :, 0].real
    s = sums[:, 1:, 1:]
    padded = np.zeros(s.shape[:2] + (cfg.n_theta,), dtype=complex)
    padded[:, :, 0] = s0[:, 1:]
    padded[:, :, 1 : m_max + 1] = 2.0 * s
    profile = np.fft.ifft(padded, axis=-1).real * cfg.n_theta
    beta0 = 2.0 * np.pi * np.argmax(profile, axis=-1) / cfg.n_theta
    width = 2.0 * np.pi / cfg.n_theta

    def at(x, starts):
        powers = np.cumprod(np.repeat(np.exp(1j * x), m_max, axis=-1), axis=-1)
        return s0[:, 1:][starts][:, None] + 2.0 * np.einsum("nm,njm->nj", s[starts], powers).real

    start = beta0[..., None]
    polished = _polish(at, start, start - width, start + width)
    best = np.maximum(s0[:, 0], np.maximum(profile.max(axis=-1), polished).max(axis=1))
    return np.sqrt(np.maximum(best, 0.0))


class TestBmoaRadialSums:
    @pytest.mark.parametrize("images", [False, True])
    def test_matches_the_per_mode_products(self, cfg, images):
        # The probes' sums are autocorrelations of their coefficients; the
        # images under a weight certified on no circle past 1 are sampled.
        fam = as_family(default_probe_family())
        if images:
            fam = apply(WcoSymbols(Recip(Poly((1.0, 0.99j))), Moebius(MoebiusMap(0.5 - 0.3j, 1.0))), fam)
            assert fam.z_coefficients(1) is None
        for grid in (cfg, cfg.refined()):
            got = _bmoa_seminorms(fam, grid)
            want = _bmoa_per_mode(fam, grid)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("a", [None, 0.5 - 0.2j, -0.7, 0.9j], ids=["probes", "0.5", "0.7", "0.9"])
    def test_series_modes_match_the_per_mode_correlations(self, cfg, a):
        # The FFT's cross-correlations against each mode's sum of
        # products, one per mode.  Their rounding is relative to the
        # member's largest mode, which sets the seminorm: 2.8e-15 at most.
        fam = as_family(default_probe_family())
        if a is not None:
            fam = image_family(Const(np.exp(0.3j)), Moebius(MoebiusMap(a, np.exp(0.5j))), fam)
        for grid in (cfg, cfg.refined()):
            pref = _bmoa_kernel(grid)[0]
            b = fam.z_coefficients(1)
            weighted = b * (pref @ gauss01(grid.n_radial)[0][:, None] ** np.arange(b.shape[1]))[:, None, :]
            want = np.stack([np.einsum("akj,kj->ak", weighted[:, :, m:], b[:, : b.shape[1] - m].conj()) for m in range(min(b.shape[1], grid.n_theta // 2))], axis=-1)
            got = _bmoa_mode_sums(fam, grid)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=-1, keepdims=True))

    def test_polish_evaluates_running_starts_only(self, cfg, monkeypatch):
        # Every call names the starts it evaluates.  A start left out of
        # a difference stencil (two points per start here; a line search
        # takes nine, the full step and its halvings) has stopped and is
        # never passed again; the starts still running are a few of the
        # 47 x 5 after two Newton steps.
        from wcolab import spaces

        real_polish = spaces._polish
        batches, calls = [], []

        def counting(fn, x, lo, hi):
            def counted(points, starts):
                calls.append((points.shape[1], set(zip(*(s.tolist() for s in starts)))))
                return fn(points, starts)

            batches.append(x.shape[:-1])
            return real_polish(counted, x, lo, hi)

        monkeypatch.setattr(spaces, "_polish", counting)
        _bmoa_seminorms(as_family(default_probe_family()), cfg)
        [batch] = batches
        alive = set(np.ndindex(batch))
        assert calls[0] == (1, alive)
        for m, starts in calls[1:]:
            assert starts <= alive
            if m == 2:
                alive = starts
        # The full batch would evaluate every start at every call.
        evaluated = sum(m * len(starts) for m, starts in calls)
        full_batch = sum(m for m, _ in calls) * int(np.prod(batch))
        assert evaluated < 0.5 * full_batch


# The spaces whose norms take the coefficient sums at p = 2 for a family of
# polynomials in z: hardy:2 and the mixed scan the angular means alone,
# the Bergman and Besov norms integrate them, BMOA takes its modes.
L2_SPACES = ("hardy:2", "bergman:2,0", "bergman:2,1.5", "mixed:2,2,0.5", "mixed:2,inf,0.5", "besov:2,0", "besov:2,0.5", "bmoa")


# Images of the default probes under Moebius maps whose weight folds:
# their series are summed.
MOEBIUS_IMAGES = {
    "moebius": (Const(1.0), Moebius(MoebiusMap(0.5 - 0.2j, np.exp(0.3j)))),
    "moebius at -0.7": (Const(1.0), Moebius(MoebiusMap(-0.7, 1.0))),
}


def moebius_images(name):
    F, phi = MOEBIUS_IMAGES[name]
    return image_family(F, phi, as_family(default_probe_family()))


def direct_norms(monkeypatch, space, fam, cfg):
    # The norms with every member sampled on the grid: no coefficient sums.
    with monkeypatch.context() as m:
        m.setattr(PolyFamily, "z_coefficients", lambda self, order: None)
        return norms(space, fam, cfg)


class TestCoefficientSums:
    @staticmethod
    def polynomial_families():
        fam = as_family(default_probe_family())
        return {
            "probes": fam,
            "rotation images": image_family(Const(np.exp(1.3j)), Moebius(rotation_map(0.7)), fam),
            "shift images": image_family(CHI, None, fam),
        }

    @pytest.mark.parametrize("text", L2_SPACES)
    def test_match_the_sampled_path(self, cfg, monkeypatch, text):
        space = parse_space(text)
        for name, fam in self.polynomial_families().items():
            assert fam.z_coefficients(0) is not None
            summed = norms(space, fam, cfg)
            sampled = direct_norms(monkeypatch, space, fam, cfg)
            assert np.all(np.abs(summed - sampled) <= 1e-15 * sampled), name

    @pytest.mark.parametrize("text", L2_SPACES)
    def test_moebius_images_sum_their_series(self, cfg, monkeypatch, text):
        # Under a Moebius map with a != 0 and a weight that folds, the
        # images' series is summed: no grid is scanned, and the sums agree
        # with every member sampled on the grid.
        space = parse_space(text)
        scans = []
        row_blocks = Family.row_blocks
        monkeypatch.setattr(Family, "row_blocks", lambda family, shape, order: scans.append(shape) or row_blocks(family, shape, order))
        for name in MOEBIUS_IMAGES:
            fam = moebius_images(name)
            scans.clear()
            summed = norms(space, fam, cfg)
            assert not scans, name
            sampled = direct_norms(monkeypatch, space, fam, cfg)
            assert np.all(np.abs(summed - sampled) <= 1e-12 * sampled), name

    @pytest.mark.parametrize("a", [0.3, 0.5j, -0.7, 0.8 * np.exp(2.5j), 0.9 * np.exp(1.1j)])
    def test_dirichlet_seminorm_is_conformally_invariant(self, cfg, a):
        # The besov:2,0 seminorm is the square root of the Dirichlet
        # integral, which every disk automorphism leaves unchanged: the
        # summed series keep it within 1e-13.  Sampled on the grid, the
        # images read 1.5e-12 off at the |a| = 0.9 here and 1e-3 at 0.95.
        space = parse_space("besov:2,0")
        fam = as_family(default_probe_family())
        images = image_family(None, Moebius(MoebiusMap(a, np.exp(0.4j))), fam)
        assert images.z_coefficients(1) is not None
        want = seminorms(space, fam, cfg)
        assert np.all(np.abs(seminorms(space, images, cfg) - want) <= 1e-13 * want)

    @pytest.mark.parametrize("text", ["hardy:2", "besov:2,0", "bmoa"])
    def test_other_images_scan_the_grid(self, coarse_cfg, monkeypatch, text):
        # A Moebius map past the series budget and a weight certified on no
        # circle of radius above 1 leave the images without coefficients:
        # they are sampled.
        fam = as_family(default_probe_family()[::5])
        scans = []
        row_blocks = Family.row_blocks

        def counted(family, shape, order):
            scans.append(shape)
            return row_blocks(family, shape, order)

        monkeypatch.setattr(Family, "row_blocks", counted)
        for images in (image_family(Const(1.0), PAST_BUDGET, fam), image_family(Recip(Poly((1.0, 0.99))), None, fam)):
            scans.clear()
            norms(parse_space(text), images, coarse_cfg)
            assert scans

    def test_hardy_mean_does_not_alias(self):
        # z^64 is constant on the 64 angles of the circle: the rule reads
        # (1 + r^64)^2 for |1 + z^64|^2, Parseval 1 + r^128.
        cfg = GridConfig(n_theta=64)
        got = norms(parse_space("hardy:2"), [Poly((1.0,) + (0.0,) * 63 + (1.0,))], cfg)[0]
        assert got == pytest.approx(np.sqrt(1.0 + cfg.r_max ** 128), rel=1e-15)


# Images of the default probes under weights left to Leibniz's rule at
# points.  The first three are certified on circles of radius above 1, so
# their Taylor series are summed: 64 and 42 terms for f, and 1,003 for the
# branch point, past n_theta / 2.  The weight with a pole at 1 / 0.99 is
# certified on no circle in (1, 4], and the series under the map at -0.99
# would not fit BLOCK_BYTES: those two are sampled.
DEEP_WEIGHT = Pow(Poly((2.5, 0.4 * np.exp(0.7j), 0.3 * np.exp(-1.1j))), 1.5)
WEIGHTED_IMAGES = {
    "deep weight": (Mul(Const(0.25), Recip(DEEP_WEIGHT)), None),
    "linear weight": (Recip(Poly((2.0, 0.5j))), None),
    "power with a branch point near the circle": (Pow(Poly((1.0, -0.95j)), -2.5), None),
    "weight with a pole near the circle": (Recip(Poly((1.0, 0.99))), None),
    "deep weight at -0.99": (Mul(Const(0.25), Recip(DEEP_WEIGHT)), Moebius(MoebiusMap(-0.99, 1.0))),
}
SAMPLED_IMAGES = ("weight with a pole near the circle", "deep weight at -0.99")
WEIGHTED_SPACES = ("hardy:2", "bergman:2,0", "bergman:2,1", "mixed:2,2,0.5", "mixed:2,inf,0.5", "besov:2,0", "bmoa")


def weighted_images(name, probes=None):
    F, phi = WEIGHTED_IMAGES[name]
    return image_family(F, phi, as_family(default_probe_family() if probes is None else probes))


class TestWeightedImages:
    @pytest.mark.parametrize("text", WEIGHTED_SPACES)
    def test_series_sums_agree_with_the_sweep(self, cfg, monkeypatch, text):
        # Against every member sampled on n_theta angles where the series
        # of the space's derivative has at most n_theta / 2 terms, and on
        # 4096 angles past that, where 512 alias: the branch point's
        # hardy:2 norms read up to 6.3e-10 off on 512.  BMOA maximizes over
        # a on the grid's own angles, which moves its norms by 8.3e-12
        # from 512 to 4096, so both of its sides take the finer grid.
        space = parse_space(text)
        order = 1 if text.startswith(("besov", "bmoa")) else 0
        for name in WEIGHTED_IMAGES:
            if name in SAMPLED_IMAGES:
                continue
            fam = weighted_images(name)
            terms = fam.z_coefficients(order).shape[1]
            grid = cfg if terms <= cfg.n_theta // 2 else GridConfig(n_theta=4096)
            got = norms(space, fam, grid if text == "bmoa" else cfg)
            want = direct_norms(monkeypatch, space, fam, grid)
            assert np.all(np.abs(got - want) <= 1e-12 * want), name

    @pytest.mark.parametrize("text", ["hardy:2", "besov:2,0", "bmoa"])
    def test_uncertified_images_take_the_sweep(self, cfg, monkeypatch, text):
        space = parse_space(text)
        for name in SAMPLED_IMAGES:
            fam = weighted_images(name)
            assert all(fam.z_coefficients(order) is None for order in (0, 1, 2)), name
            assert norms(space, fam, cfg).tobytes() == direct_norms(monkeypatch, space, fam, cfg).tobytes(), name

    @pytest.mark.parametrize("text", ["bergman:2,0", "besov:2,0", "mixed:2,inf,0.5"])
    def test_scale_free(self, cfg, text):
        # c f gives |c| times the norms; f scaled by 2^600 overflows the
        # squares of its coefficients, and by 2^-600 underflows them:
        # _norm_parts measures those members again as f / s.
        space = parse_space(text)
        probes = default_probe_family()
        want = norms(space, weighted_images("deep weight", probes), cfg)
        for c in (3.0 - 4.0j, 2.0 ** 600, 2.0 ** -600):
            scaled = tuple(Poly(tuple(c * a for a in f.coeffs)) for f in probes)
            got = norms(space, weighted_images("deep weight", scaled), cfg)
            assert np.all(np.abs(got - abs(c) * want) <= 1e-12 * abs(c) * want), c


class TestPointEvalBound:
    def test_radius_validation(self):
        space = parse_space("hardy:2")
        with pytest.raises(ParameterError):
            pointeval_bound(space, 1.0)
        with pytest.raises(ParameterError):
            pointeval_bound(space, -0.1)

    @pytest.mark.parametrize("text", ALL_SPACE_STRINGS)
    def test_finite_and_monotone(self, text):
        space = parse_space(text)
        lo, hi = pointeval_bound(space, 0.3), pointeval_bound(space, 0.6)
        assert 0.0 < lo <= hi < np.inf

    def test_hardy_closed_form(self):
        assert pointeval_bound(parse_space("hardy:2"), 0.5) == pytest.approx((1.0 - 0.25) ** -0.5)

    def test_bloch_closed_form(self):
        got = pointeval_bound(parse_space("bloch:1"), 0.5)
        assert got == pytest.approx(0.5 * np.log(3.0))

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9, 0.999, 0.99999])
    def test_increment_closed_forms(self, r):
        # besov:2,0 integrates 1/(1-s^2), bloch:2 integrates 1/(1-s^2)^2.
        assert pointeval_bound(parse_space("besov:2,0"), r) == pytest.approx(np.arctanh(r), rel=1e-13)
        want = r / (2.0 * (1.0 - r * r)) + 0.5 * np.arctanh(r)
        assert pointeval_bound(parse_space("bloch:2"), r) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("text", ["bloch:0.5", "bloch:1.5", "logbloch:1", "logbloch:2", "besov:2,0", "besov:3,0.5"])
    def test_increment_matches_quad(self, text):
        # scipy's adaptive quad, the rule the bound used before, as a
        # test-only reference on the radii of the A1 check and beyond.
        import scipy.integrate

        space = parse_space(text)
        rate = {
            "bloch": lambda s: (1.0 - s**2) ** (-space.beta),
            "logbloch": lambda s: 1.0 / ((1.0 - s**2) * np.log(2.0 / (1.0 - s**2)) ** space.gamma),
            "besov": lambda s: (1.0 - s**2) ** (-(2.0 + space.alpha) / space.p),
        }[space.family]
        for r in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            want = scipy.integrate.quad(rate, 0.0, r, limit=200)[0]
            assert pointeval_bound(space, r) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("text", ["hardy:2", "bloch:1", "bergman:2,0"])
    def test_bound_holds_on_circle(self, cfg, text):
        space = parse_space(text)
        r = 0.5
        bound = pointeval_bound(space, r)
        z = r * np.exp(2j * np.pi * np.arange(32) / 32)
        for f in seeded_polys(5, seed=7, max_degree=8):
            total = norm(space, f, cfg).total
            gap = np.max(np.abs(f(z) - f(0.0)))
            assert gap <= bound * total * (1.0 + 1e-9)


_CHEAP_SPACES = ("hardy:2", "bergman:2,0", "bloch:1", "hinf")


@st.composite
def _small_polys(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    parts = draw(
        st.lists(
            st.tuples(
                st.floats(-2.0, 2.0, allow_nan=False),
                st.floats(-2.0, 2.0, allow_nan=False),
            ),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    coeffs = tuple(complex(a, b) for a, b in parts)
    if all(abs(c) < 1e-12 for c in coeffs):
        coeffs = (1.0,) + coeffs[1:]
    return Poly(coeffs)


class TestNormAxiomsProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        text=st.sampled_from(_CHEAP_SPACES),
        f=_small_polys(),
        scale_re=st.floats(-3.0, 3.0, allow_nan=False),
        scale_im=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_homogeneity(self, coarse_cfg, text, f, scale_re, scale_im):
        c = complex(scale_re, scale_im)
        if abs(c) < 1e-6:
            c = 1.0 + 0.0j
        space = parse_space(text)
        from wcolab.analytic_core import Mul

        a = norm(space, Mul(Const(c), f), coarse_cfg).total
        b = abs(c) * norm(space, f, coarse_cfg).total
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(text=st.sampled_from(_CHEAP_SPACES), f=_small_polys(), g=_small_polys())
    def test_triangle(self, coarse_cfg, text, f, g):
        space = parse_space(text)
        lhs = norm(space, Add(f, g), coarse_cfg).total
        rhs = norm(space, f, coarse_cfg).total + norm(space, g, coarse_cfg).total
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-10


def _modules_imported_by(calls: str) -> list:
    # Every module the package needs comes in with `import wcolab`, so that
    # no call pays for an import: the first norm, bound or decision of a
    # process costs what every later one does.  numpy's own submodules that
    # it loads on first use, numpy.fft and numpy.random, are the exception:
    # the package leaves them to the first call that needs them, and they
    # count as start-up here.  Returns the modules that `calls` imports in a
    # fresh interpreter after start-up.
    code = textwrap.dedent(
        """
        import sys
        import wcolab as wc
        from wcolab.axiom_harness import ALL_FAMILIES
        from wcolab.operators import WcoSymbols, finite_section
        import numpy.fft, numpy.random
        cfg = wc.default_config()
        before = set(sys.modules)
        """
    ) + textwrap.dedent(calls) + 'print(" ".join(sorted(set(sys.modules) - before)))\n'
    src = os.path.dirname(os.path.dirname(os.path.abspath(norm.__code__.co_filename)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_calls_import_nothing_after_start_up():
    calls = """
        f = wc.Poly((0.3, 1.0, 0.2j))
        for text in ALL_FAMILIES:
            space = wc.parse_space(text)
            wc.norm(space, f, cfg)
            wc.pointeval_bound(space, 0.5)
        """
    assert _modules_imported_by(calls) == []


def test_b1_measures_load_no_numpy_ma():
    # The nested angular rule of the p < 2 means picks its members and
    # radii without np.unique, which would load numpy.ma (1.6 MB of RSS).
    # The check's Moebius images refine at more radii than the norm.
    calls = """
        b1 = wc.parse_space("b1")
        wc.norm(b1, wc.Poly((0.3, 1.0, 0.2j, 0.5)), cfg)
        w = WcoSymbols(wc.Const(1.0), wc.Moebius(wc.MoebiusMap(0.4 - 0.2j, 1.0)))
        assert not wc.check_isometry(w, b1, cfg).surjective_isometry
        assert "numpy.ma" not in sys.modules
        """
    assert _modules_imported_by(calls) == []


def test_decisions_import_nothing_after_start_up():
    # The decision calls reach what no norm does: seeded probe families
    # (numpy.random), the roundtrip, finite sections, the empirical
    # multiplier branch of besov:2,0 and the axiom harness.
    calls = """
        w = WcoSymbols(wc.Poly((1.0, 0.3)), wc.Poly((0.0, 1.0)))
        assert wc.check_invertible(w, wc.parse_space("bloch:1"), cfg).verdict == "Invertible"
        assert wc.check_invertible(w, wc.parse_space("besov:2,0"), cfg).verdict == "Inconclusive"
        rotation = WcoSymbols(wc.Poly((1.0,)), wc.Poly((0.0, -1.0)))
        assert wc.check_isometry(rotation, wc.parse_space("bloch:1"), cfg).surjective_isometry
        finite_section(w, 8, cfg)
        assert all(r.passed for r in wc.run_all(wc.parse_space("hardy:2"), cfg))
        """
    assert _modules_imported_by(calls) == []
