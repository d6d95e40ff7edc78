import math
from fractions import Fraction

import numpy as np
import pytest

from wcolab import (
    GridConfig,
    ParameterError,
    Poly,
    series,
)
from wcolab.analytic_core import R_MAX, Compose, Const, Moebius, MoebiusMap, Pow, Recip, as_family, rotation_map
from wcolab.operators import WcoSymbols, apply, default_probe_family
from wcolab.quadrature import (
    FLAT_WEIGHT,
    _POLISH_CANDIDATES,
    _jacobi01,
    _polish,
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

    def test_non_integral_sizes_rejected(self):
        for sizes in ({"n_theta": 512.9}, {"n_radial": 64.5}, {"n_theta": 512.9, "n_radial": 64.5}):
            with pytest.raises(ParameterError):
                GridConfig(**sizes)
        grid = GridConfig(n_theta=512.0, n_radial=64.0)
        assert (grid.n_theta, grid.n_radial) == (512, 64)
        assert type(grid.n_theta) is int and type(grid.n_radial) is int

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

    # n = 127 has a middle node at 0, and alpha = 0 is the only exponent
    # the ten default families use (n_radial 64 and 128).
    @pytest.mark.parametrize("n", [4, 20, 33, 64, 127, 128])
    def test_jacobi_rule_moments_exact(self, n):
        # sum w_i t_i^k against the exact Beta value B(k+1, alpha+1) for
        # every degree the rule integrates exactly.
        for alpha in (0.0, -0.5, 0.5, 1.0, 2.5):
            t, w = _jacobi01(n, alpha)
            a = Fraction(alpha)
            exact = 1 / (a + 1)
            for k in range(2 * n):
                if k:
                    exact *= k / (a + k + 1)
                assert abs(float(w @ t**k) / float(exact) - 1.0) < 2e-13, (alpha, k)

    def test_probe_norms_closed_form(self, cfg):
        # The 47 default probes are polynomials, whose L2-type norms have
        # closed forms in their coefficients c_k:
        #   bergman:2,alpha  ||f||^2 = sum |c_k|^2 G(k+1) G(alpha+2) / G(k+alpha+2)
        #   besov:2,alpha    ||f|| = |c_0| + (sum k^2 |c_k|^2 G(k) G(alpha+2) / G(k+alpha+1))^(1/2)
        # and mixed:2,2,0.5 is bergman:2,0.  The Gamma ratios are taken as
        # exact rational products.
        def ratio(k, a, shift):
            return math.prod((Fraction(i) / (i + a + 1) for i in range(1, k + shift)), start=Fraction(1))

        def closed(besov, a, probe):
            sq = [Fraction(c.real) ** 2 + Fraction(c.imag) ** 2 for c in map(complex, probe.coeffs)]
            if not besov:
                return math.sqrt(sum(s * ratio(k, a, 1) for k, s in enumerate(sq)))
            return math.sqrt(sq[0]) + math.sqrt(sum(k * k * s * ratio(k, a, 0) for k, s in enumerate(sq)))

        probes = default_probe_family()
        cases = [(text, grid) for text in ("bergman:2,0", "mixed:2,2,0.5", "besov:2,0") for grid in (cfg, cfg.refined())]
        cases += [
            (text, GridConfig(n_radial=m))
            for text in ("bergman:2,-0.5", "besov:2,-0.5", "bergman:2,2.5")
            for m in (64, 128, 200)
        ]
        for text, grid in cases:
            space = parse_space(text)
            a = Fraction(0.0 if space.family == "mixed" else space.alpha)
            want = np.array([closed(space.family == "besov", a, p) for p in probes])
            got = norms(space, probes, grid)
            assert np.max(np.abs(got / want - 1.0)) < 5e-15, (text, grid.n_radial)

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


class TestSupEngines:
    def test_angularly_constant_profile(self, cfg):
        # (1-|z|^2)|2z|, the weighted derivative of z^2, peaks at
        # r = 1/sqrt(3) with value 4 sqrt(3)/9.
        [val] = refined_modulus_sup(Poly((0.0, 0.0, 1.0)), 1, _disk_weight, cfg)
        assert val == pytest.approx(4.0 * math.sqrt(3.0) / 9.0, abs=1e-9)

    def test_boundary_supremum(self, cfg):
        # (1-|z|^2)/|1-z| climbs to 2 at the boundary along the positive axis.
        from wcolab import Recip

        f = Recip(Poly((1.0, -1.0)))
        [val] = refined_modulus_sup(f, 0, _disk_weight, cfg)
        assert val == pytest.approx(2.0, abs=2e-6)

    def test_refined_sup_flat_weight(self, cfg):
        f = Poly((0.3, 1.0, -0.5j, 0.25))
        [got] = refined_modulus_sup(f, 0, FLAT_WEIGHT, cfg)
        # dense reference on a fine boundary ring
        ring = cfg.r_max * np.exp(2j * np.pi * np.linspace(0, 1, 1 << 16, endpoint=False))
        ref = float(np.max(np.abs(f(ring))))
        assert got >= ref - 1e-12
        assert got == pytest.approx(ref, rel=1e-9)

    def test_refined_sup_log_weight(self, cfg):
        # weight (1-t) log(2/(1-t)) against h = 1 has maximum 2/e.
        from wcolab import Const

        def omega(t):
            return (1.0 - t) * np.log(2.0 / (1.0 - t))

        [got] = refined_modulus_sup(Const(1.0), 0, omega, cfg)
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
            hv, hp = member.derivatives(zz, order + 1)[order:]
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


def _disk_polish_sup(family, cfg):
    """The flat sup by the 2-D scan and polish of the weighted sups, as a reference for the circle rule."""
    radii, angles, vals = _grid_scan(family, 0, FLAT_WEIGHT, cfg)
    best = vals.reshape(len(family), -1).max(axis=1)
    dtheta = 2.0 * np.pi / cfg.n_theta
    picks = [_select_candidates(v, _POLISH_CANDIDATES) for v in vals]
    n_boxes = max(len(p) for p in picks)
    i, j = np.array([p + p[:1] * (n_boxes - len(p)) for p in picks]).transpose(2, 0, 1)
    ladder = np.concatenate([[0.0], radii, [cfg.r_max]])
    lo = np.stack([ladder[i], angles[j] - 2.0 * dtheta], axis=-1)
    hi = np.stack([ladder[i + 2], angles[j] + 2.0 * dtheta], axis=-1)

    def modulus(x, starts):
        return np.abs(family.derivative_at(x[..., 0] * np.exp(1j * x[..., 1]), 0, starts[0]))

    polished = _polish(modulus, np.stack([radii[i], angles[j]], axis=-1), lo, hi)
    return np.maximum(best, np.where(np.isfinite(polished), polished, -np.inf).max(axis=1))


def _dlog_power_weight(t):
    # d/dt log (1 - t)
    return -1.0 / (1.0 - t)


def _dlog_logbloch_weight(t):
    # d/dt log ((1 - t) log(2 / (1 - t)))
    return -1.0 / (1.0 - t) + 1.0 / ((1.0 - t) * np.log(2.0 / (1.0 - t)))


# order, weight and the derivative of its logarithm in t = |z|^2
POLISH_WEIGHTS = {
    "bloch:1": (1, _power_weight(1.0), _dlog_power_weight),
    "logbloch:1": (1, _logbloch_weight(1.0), _dlog_logbloch_weight),
    "flat": (0, FLAT_WEIGHT, np.zeros_like),
    "growth:1": (0, _power_weight(1.0), _dlog_power_weight),
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
        order, omega, dlog_omega = POLISH_WEIGHTS[weight]
        for grid in (cfg, GridConfig(r_max=0.6)):
            got = refined_modulus_sup(family, order, omega, grid)
            want = _lbfgsb_sup(family, order, omega, dlog_omega, grid)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
            # A lower bound that still improves on the grid.
            scan = _grid_scan(family, order, omega, grid)[2].reshape(len(family), -1).max(axis=1)
            assert np.all(got >= scan)

    @pytest.mark.parametrize("name", sorted(POLISH_FAMILIES))
    def test_flat_sup_on_the_circle_matches_the_disk_polish(self, cfg, name):
        # By the maximum principle the circle |z| = r_max holds the flat
        # sup: scanning and polishing it alone loses nothing against the
        # 2-D scan and polish that the weighted sups keep.
        family = POLISH_FAMILIES[name](as_family(default_probe_family()))
        for grid in (cfg, GridConfig(r_max=0.6)):
            got = refined_modulus_sup(family, 0, FLAT_WEIGHT, grid)
            want = _disk_polish_sup(family, grid)
            assert np.all(np.abs(got - want) <= 1e-15 * want)
            assert np.all(got >= want)

    def test_monomials_stay_below_the_bloch_sup(self, cfg):
        # (1 - r^2) n r^(n-1) peaks at r^2 = (n-1)/(n+1).
        ns = np.arange(1, 25)
        got = refined_modulus_sup([Poly((0.0,) * n + (1.0,)) for n in ns], 1, _power_weight(1.0), cfg)
        t = (ns - 1.0) / (ns + 1.0)
        exact = (1.0 - t) * ns * np.sqrt(t) ** (ns - 1)
        # Up to the rounding of both sides, a few units in the last place.
        assert np.all(got <= exact * (1.0 + 1e-14))
        assert np.all(got >= exact * (1.0 - 1e-12))


    def test_box_that_ends_next_to_the_circle(self):
        # |z + z^2/2| peaks at z = r_max.  The stencil must not leave the
        # box for |z| >= 1, and the start must reach the face r = r_max.
        cfg = GridConfig(r_max=1.0 - 1e-13)
        [got] = refined_modulus_sup(Poly((0.0, 1.0, 0.5)), 0, FLAT_WEIGHT, cfg)
        r = cfg.r_max
        assert got == pytest.approx(r + 0.5 * r * r, rel=0.0, abs=1e-15)


def _circle_max(f, r):
    """Max of |f| on |z| = r: the best of 2^16 samples, polished by a bounded scalar search."""
    import scipy.optimize

    n = 1 << 16
    theta = 2.0 * np.pi * np.arange(n) / n
    mod = np.abs(f(r * np.exp(1j * theta)))
    k = int(np.argmax(mod))
    res = scipy.optimize.minimize_scalar(
        lambda t: -abs(complex(f(r * np.exp(1j * t)))),
        bounds=(theta[k] - 2.0 * np.pi / n, theta[k] + 2.0 * np.pi / n),
        method="bounded",
        options={"xatol": 1e-15},
    )
    return max(float(mod[k]), -float(res.fun))


class TestSupOnOtherGrids:
    # By the maximum principle the H-infinity norm on a grid is the max of
    # |f| on |z| = r_max.  On 0.9999999 the scan ladder stops below r_max;
    # on 0.9 the scan radii hold both 0.9 and the float just below it.
    @pytest.mark.parametrize(
        "f, r_max",
        [
            (Poly((1.0, 1.0, 1.0j)), 0.9999999),
            (Compose(Poly((1.0, 1.0j)), Moebius(MoebiusMap(0.5 - 0.3j, 1.0))), 0.9),
        ],
        ids=["poly-0.9999999", "compose-0.9"],
    )
    def test_hinf_reaches_the_circle_maximum(self, f, r_max):
        [got] = norms(parse_space("hinf"), [f], GridConfig(r_max=r_max))
        want = _circle_max(f, r_max)
        assert abs(got - want) <= 1e-12 * want


class TestPolish:
    def test_interior_maximum_in_one_dimension(self):
        # 2 + sin(3x + c) peaks at 3 where 3x + c = pi/2.
        c = np.linspace(0.0, 1.0, 5)[:, None, None]
        top = (np.pi / 2.0 - c) / 3.0
        x = top + np.array([-0.1, 0.15])[:, None]
        got = _polish(lambda p, s: 2.0 + np.sin(3.0 * p[..., 0] + c[s[0], 0]), x, top - 0.3, top + 0.2)
        assert got.shape == (5, 2)
        np.testing.assert_allclose(got, 3.0, rtol=1e-15, atol=0.0)

    def test_maximum_on_a_face_in_one_dimension(self):
        # exp(x) and exp(-x) on [0, 1] peak on opposite faces.
        sign = np.array([1.0, -1.0])[:, None, None]
        x = np.array([0.3, 0.99995, 0.00005])[:, None] * np.ones((2, 1, 1))
        got = _polish(lambda p, s: np.exp(sign[s[0], 0] * p[..., 0]), x, np.zeros_like(x), np.ones_like(x))
        np.testing.assert_array_equal(got, [[np.e] * 3, [1.0] * 3])

    def test_rotated_ridge(self):
        # exp(-(u^2 + 100 v^2)) with (u, v) turned 45 degrees from (x, y):
        # a ridge along the diagonal, where coordinate steps stall.
        def ridge(p, starts):
            dx, dy = p[..., 0] - 0.2, p[..., 1] + 0.1
            u, v = (dx + dy) / np.sqrt(2.0), (dx - dy) / np.sqrt(2.0)
            return np.exp(-(u * u + 100.0 * v * v))

        x = np.array([[0.7, 0.6], [-0.6, -0.8], [0.5, -0.5]])
        lo, hi = np.full_like(x, -1.0), np.full_like(x, 1.0)
        got = _polish(ridge, x, lo, hi)
        np.testing.assert_allclose(got, 1.0, rtol=0.0, atol=1e-15)

    def test_maximum_outside_the_box(self):
        # The peaks at (2, 3) and (0.25, 3) lie outside [0, 1]^2: the best
        # points of the box are the corner (1, 1) and the face point (0.25, 1).
        peaks = np.array([[2.0, 3.0], [0.25, 3.0]])[:, None, :]

        def bump(p, starts):
            return np.exp(-((p - peaks[starts]) ** 2).sum(axis=-1))

        x = np.full((2, 2), 0.5)
        got = _polish(bump, x, np.zeros_like(x), np.ones_like(x))
        np.testing.assert_allclose(got, [np.exp(-5.0), np.exp(-4.0)], rtol=1e-15, atol=0.0)


class TestTaylorCoefficients:
    # Coefficients at 0 come from the Taylor rules (analytic_core.series), exactly here.
    def test_roundtrip(self):
        for f in seeded_polys(8, 5):
            np.testing.assert_array_equal(series(f, len(f.coeffs)), np.asarray(f.coeffs))

    def test_truncation_of_series(self):
        # 1/(2+z) has coefficients (-1)^k / 2^(k+1).
        from wcolab import Recip

        got = series(Recip(Poly((2.0, 1.0))), 8)
        exact = np.array([(-1.0) ** k / 2.0 ** (k + 1) for k in range(8)])
        np.testing.assert_array_equal(got, exact)
