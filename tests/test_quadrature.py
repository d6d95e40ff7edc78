import json
import math
import pathlib

import numpy as np
import pytest

from wcolab import (
    GridConfig,
    ParameterError,
    Poly,
    taylor_coefficients,
)
from wcolab.analytic_core import R_MAX, Const, Moebius, MoebiusMap, Pow, Recip, as_family, rotation_map
from wcolab.operators import WcoSymbols, apply, default_probe_family
from wcolab.quadrature import (
    FLAT_WEIGHT,
    _POLISH_CANDIDATES,
    _binom,
    _jacobi01,
    _jacobi_poly,
    _legendre_poly,
    _select_candidates,
    gauss01,
    refined_modulus_sup,
    scan_radii,
    unit_circle,
    weighted_radial_integral,
)
from wcolab.spaces import _logbloch_weight, _power_weight, norms, parse_space

from conftest import seeded_polys


class TestGridConfig:
    def test_defaults(self, cfg):
        assert cfg == GridConfig()
        assert cfg.n_theta == 512
        assert cfg.n_radial == 64
        assert cfg.r_max == R_MAX
        for r_max in (0.3, R_MAX, 0.9999999):
            grid = GridConfig(r_max=r_max)
            ladder = []
            for k in range(1, 21):
                r = min(1.0 - 2.0 ** -k, r_max)
                if r not in ladder:
                    ladder.append(r)
            assert grid.sup_radii == tuple(ladder)
            fine = grid.refined()
            assert (fine.n_theta, fine.n_radial, fine.r_max) == (1024, 128, r_max)

    def test_power_of_two_required(self):
        with pytest.raises(ParameterError):
            GridConfig(n_theta=100)
        with pytest.raises(ParameterError):
            GridConfig(n_theta=32)

    def test_radial_minimum(self):
        with pytest.raises(ParameterError):
            GridConfig(n_radial=2)

    def test_rmax_range(self):
        with pytest.raises(ParameterError):
            GridConfig(r_max=1.0)
        with pytest.raises(ParameterError):
            GridConfig(r_max=0.0)

    def test_refined_doubles(self, cfg):
        fine = cfg.refined()
        assert fine.n_theta == 1024
        assert fine.n_radial == 128


class TestCircleQuadrature:
    def test_trapezoid_kills_low_harmonics(self, cfg):
        # The n-point trapezoid rule integrates e^{ik s} exactly to zero
        # for 0 < k < n; monomial means on a circle vanish accordingly.
        z = 0.9 * unit_circle(cfg.n_theta)
        for k in (1, 5, 100):
            vals = z**k
            assert abs(np.mean(vals)) < 1e-13


class TestRadialQuadrature:
    def test_gauss01_moments(self):
        t, w = gauss01(64)
        for k in range(0, 21):
            assert w @ t**k == pytest.approx(1.0 / (k + 1), abs=1e-13)

    def test_weighted_radial_constants_exact(self, cfg):
        for e in (-0.5, 0.0, 1.5, 3.0):
            assert weighted_radial_integral(lambda r: np.ones_like(r), e, cfg) == pytest.approx(1.0, abs=1e-13)

    def test_weighted_radial_beta_moment(self, cfg):
        # (e+1) * Integral of t (1-t)^e dt equals 1/(e+2) after the
        # normalization built into the substitution.
        for e in (-0.5, 0.0, 1.5, 3.0):
            val = weighted_radial_integral(lambda r: r**2, e, cfg)
            assert val == pytest.approx(1.0 / (e + 2.0), abs=1e-9)

    def test_exponent_validation(self, cfg):
        with pytest.raises(ParameterError):
            weighted_radial_integral(lambda r: r, -1.0, cfg)

    # n = 20 is where scipy's binomial factor switches to the beta
    # function, n = 127 has a middle node at 0, and alpha = 0 is the only
    # exponent the ten default families use (n_radial 64 and 128).
    @pytest.mark.parametrize("n", [4, 20, 33, 64, 127, 128])
    def test_jacobi_rule_matches_scipy(self, n):
        # The rule follows scipy.special.roots_jacobi with numpy's
        # eigensolver; alpha = 0 takes scipy's Legendre branch.
        from scipy.special import roots_jacobi

        for alpha in (0.0, -0.5, 0.5, 1.0, 2.5):
            t, w = _jacobi01(n, alpha)
            x, v = roots_jacobi(n, alpha, 0.0)
            np.testing.assert_allclose(t, 0.5 * (x + 1.0), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(w, v * 0.5 ** (alpha + 1.0), rtol=1e-14, atol=0.0)

    def test_recurrences_match_scipy(self):
        # The recurrences are scipy's for integer degree, operation for
        # operation.  The Legendre values are bitwise equal except for
        # |x| < 1e-5, where scipy sums the power series.  The Jacobi values
        # are bitwise equal below degree 20; from there scipy takes the
        # factor binom(m + a, m), constant in x, from the beta function.
        from scipy.special import binom, eval_jacobi, eval_legendre

        x = np.concatenate([np.linspace(-1.0, 1.0, 801), np.random.default_rng(5).uniform(-1.0, 1.0, 400)])
        far = np.abs(x) >= 1e-5
        for m in [*range(2, 24), 32, 33, 63, 64, 100, 127, 128]:
            got, want = _legendre_poly(m, x), eval_legendre(m, x)
            assert got[far].tobytes() == want[far].tobytes(), m
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
            for a, b in ((-0.5, 0.0), (0.5, 0.0), (1.5, 1.0), (2.5, 0.0), (1.0, 1.0), (-0.75, 1.0)):
                got, want = _jacobi_poly(m, a, b, x), eval_jacobi(m, a, b, x)
                if m < 20:
                    assert got.tobytes() == want.tobytes(), (m, a, b)
                else:
                    scale = np.abs(want).max()
                    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * scale)
                    assert abs(_binom(m + a, m) / binom(m + a, m) - 1.0) < 1e-14

    def test_binomial_factor_beyond_scipy_switch(self):
        # At high degree scipy's beta-function binomial drifts by up to
        # 4e-13; the running product stays within a few ulp of the exact
        # value, checked here against exact rational products.
        from fractions import Fraction

        for m, a in ((255, 0.25), (256, 1.5), (255, -0.5), (300, 2.5)):
            exact = math.prod((Fraction(a) + i) / i for i in range(1, m + 1))
            assert abs(_binom(m + a, m) / float(exact) - 1.0) < 4e-15

    def test_probe_norms_pinned(self, cfg):
        # Norms of the 47 default probes, as computed when the rule still
        # took its polynomials from scipy.special: the recurrences must not
        # move a single bit of them.
        pinned = json.loads((pathlib.Path(__file__).parent / "probe_norms.json").read_text())
        probes = default_probe_family()
        for text, values in pinned.items():
            assert norms(parse_space(text), probes, cfg).tolist() == values, text

    def test_scan_radii_contents(self, cfg):
        radii = scan_radii(cfg)
        assert radii[0] == 0.0
        assert radii[-1] == cfg.r_max
        assert np.all(np.diff(radii) > 0)

    def test_scan_radii_stop_at_rmax(self):
        radii = scan_radii(GridConfig(r_max=0.3))
        assert radii[-1] == 0.3
        assert np.all(radii <= 0.3)


def _disk_weight(t):
    return 1.0 - t


def _dlog_disk_weight(t):
    return -1.0 / (1.0 - t)


class TestSupEngines:
    def test_angularly_constant_profile(self, cfg):
        # (1-|z|^2)|2z|, the weighted derivative of z^2, peaks at
        # r = 1/sqrt(3) with value 4 sqrt(3)/9.
        [val] = refined_modulus_sup(Poly((0.0, 0.0, 1.0)), 1, _disk_weight, _dlog_disk_weight, cfg)
        assert val == pytest.approx(4.0 * math.sqrt(3.0) / 9.0, abs=1e-9)

    def test_boundary_supremum(self, cfg):
        # (1-|z|^2)/|1-z| climbs to 2 at the boundary along the positive axis.
        from wcolab import Recip

        f = Recip(Poly((1.0, -1.0)))
        [val] = refined_modulus_sup(f, 0, _disk_weight, _dlog_disk_weight, cfg)
        assert val == pytest.approx(2.0, abs=2e-6)

    def test_refined_sup_flat_weight(self, cfg):
        f = Poly((0.3, 1.0, -0.5j, 0.25))
        [got] = refined_modulus_sup(f, 0, *FLAT_WEIGHT, cfg)
        # dense reference on a fine boundary ring
        ring = cfg.r_max * np.exp(2j * np.pi * np.linspace(0, 1, 1 << 16, endpoint=False))
        ref = float(np.max(np.abs(f.jet(ring).f)))
        assert got >= ref - 1e-12
        assert got == pytest.approx(ref, rel=1e-9)

    def test_refined_sup_log_weight(self, cfg):
        # weight (1-t) log(2/(1-t)) against h = 1 has maximum 2/e.
        from wcolab import Const

        def omega(t):
            return (1.0 - t) * np.log(2.0 / (1.0 - t))

        def dlog(t):
            return -1.0 / (1.0 - t) + 1.0 / ((1.0 - t) * np.log(2.0 / (1.0 - t)))

        [got] = refined_modulus_sup(Const(1.0), 0, omega, dlog, cfg)
        assert got == pytest.approx(2.0 / math.e, abs=1e-12)


def _grid_scan(family, order, omega, cfg):
    radii = scan_radii(cfg)
    angles = 2.0 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    z = radii[:, None] * np.exp(1j * angles)[None, :]
    weight = omega(radii[:, None] ** 2)
    return radii, angles, family.rowwise(z, order, lambda h, rows: weight[rows] * np.abs(h))


def _lbfgsb_sup(family, order, omega, dlog_omega, cfg):
    """The per-member L-BFGS-B polish the batched one replaced, as a reference.

    Same grid scan, candidates, start points, boxes and options; each
    run walks the member's own expression tree one point at a time.
    """
    import scipy.optimize

    radii, angles, vals = _grid_scan(family, order, omega, cfg)
    best = vals.reshape(len(family), -1).max(axis=1)
    dtheta = 2.0 * np.pi / cfg.n_theta
    for k, member in enumerate(family):

        def negated(x):
            r, th = x
            zz = r * np.exp(1j * th)
            jet = member.jet(zz)
            hv, hp = (jet.f, jet.df) if order == 0 else (jet.df, jet.d2f)
            mod = abs(hv)
            tt = r * r
            phi = float(omega(tt) * mod)
            if mod < 1e-300:
                return -phi, np.zeros(2)
            q = hp / hv
            grad_r = phi * (2.0 * r * float(dlog_omega(tt)) + (q * np.exp(1j * th)).real)
            grad_th = phi * (-(q * zz).imag)
            return -phi, np.array([-grad_r, -grad_th])

        for i, j in _select_candidates(vals[k], _POLISH_CANDIDATES):
            lo_r = radii[i - 1] if i > 0 else 0.0
            hi_r = radii[i + 1] if i + 1 < len(radii) else cfg.r_max
            th0 = angles[j]
            res = scipy.optimize.minimize(
                negated,
                np.array([radii[i], th0]),
                jac=True,
                method="L-BFGS-B",
                bounds=[(lo_r, hi_r), (th0 - 2.0 * dtheta, th0 + 2.0 * dtheta)],
                options={"ftol": 0.0, "gtol": 1e-14, "maxiter": 80},
            )
            if np.isfinite(res.fun):
                best[k] = max(best[k], float(-res.fun))
    return best


POLISH_WEIGHTS = {
    "bloch:1": (1, _power_weight(1.0)),
    "logbloch:1": (1, _logbloch_weight(1.0)),
    "flat": (0, FLAT_WEIGHT),
    "growth:1": (0, _power_weight(1.0)),
}

POLISH_FAMILIES = {
    "probes": lambda fam: fam,
    "rotation images": lambda fam: apply(WcoSymbols(Const(np.exp(0.7j)), Moebius(rotation_map(1.3))), fam),
    "involution images": lambda fam: apply(WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.5 - 0.3j, 1.0))), fam),
    "trees": lambda fam: as_family([Pow(Poly((2.0, 0.5, 0.3j)), 1.5), Recip(Poly((1.5, -1.0))), Recip(Pow(Poly((1.2, 1.0)), 0.7))]),
}


class TestBatchedPolish:
    @pytest.mark.parametrize("weight", sorted(POLISH_WEIGHTS))
    @pytest.mark.parametrize("name", sorted(POLISH_FAMILIES))
    def test_matches_per_member_lbfgsb(self, cfg, name, weight):
        family = POLISH_FAMILIES[name](as_family(default_probe_family()))
        order, (omega, dlog_omega) = POLISH_WEIGHTS[weight]
        got = refined_modulus_sup(family, order, omega, dlog_omega, cfg)
        want = _lbfgsb_sup(family, order, omega, dlog_omega, cfg)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        # A lower bound that still improves on the grid.
        grid = _grid_scan(family, order, omega, cfg)[2].reshape(len(family), -1).max(axis=1)
        assert np.all(got >= grid)

    def test_monomials_stay_below_the_bloch_sup(self, cfg):
        # (1 - r^2) n r^(n-1) peaks at r^2 = (n-1)/(n+1).
        ns = np.arange(1, 25)
        got = refined_modulus_sup([Poly((0.0,) * n + (1.0,)) for n in ns], 1, *_power_weight(1.0), cfg)
        t = (ns - 1.0) / (ns + 1.0)
        exact = (1.0 - t) * ns * np.sqrt(t) ** (ns - 1)
        # Up to the rounding of both sides, a few units in the last place.
        assert np.all(got <= exact * (1.0 + 1e-14))
        assert np.all(got >= exact * (1.0 - 1e-12))


class TestTaylorCoefficients:
    def test_roundtrip(self, cfg):
        for f in seeded_polys(8, 5):
            count = len(f.coeffs)
            got = taylor_coefficients(f, count, 0.5, cfg)
            np.testing.assert_allclose(got, np.asarray(f.coeffs), atol=1e-10)

    def test_truncation_of_series(self, cfg):
        # 1/(2+z) has coefficients (-1)^k / 2^(k+1).
        from wcolab import Recip

        f = Recip(Poly((2.0, 1.0)))
        got = taylor_coefficients(f, 8, 0.5, cfg)
        exact = np.array([(-1.0) ** k / 2.0 ** (k + 1) for k in range(8)])
        np.testing.assert_allclose(got, exact, atol=1e-12)

    def test_count_cap(self, cfg):
        with pytest.raises(ParameterError):
            taylor_coefficients(Poly((1.0,)), cfg.n_theta, 0.5, cfg)

    def test_ill_conditioned_warning(self, cfg):
        with pytest.warns(RuntimeWarning):
            taylor_coefficients(Poly((1.0,)), 30, 0.3, cfg)
