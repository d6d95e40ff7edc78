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
from wcolab import analytic_core, quadrature, spaces
from wcolab.analytic_core import (
    R_MAX,
    Add,
    Compose,
    Const,
    Moebius,
    MoebiusMap,
    Mul,
    PolyFamily,
    Pow,
    Recip,
    TreeFamily,
    as_family,
    image_family,
    rotation_map,
)
from wcolab.axiom_harness import harness_family
from wcolab.errors import DomainError
from wcolab.operators import WcoSymbols, apply, default_probe_family, monomial
from wcolab.quadrature import (
    FLAT_WEIGHT,
    _POLISH_CANDIDATES,
    _TOP,
    _grid_maxima,
    _jacobi01,
    _polish,
    _power_means,
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
        # Every degree the rule integrates exactly, k < 2n: n = 20 is the
        # panel rule of the point-evaluation bounds, 64 and 128 the radial
        # rules of the default grid and its refinement.
        for n in (20, 64, 128):
            t, w = gauss01(n)
            for k in range(2 * n):
                assert abs(float(w @ t**k) * (k + 1) - 1.0) < 1e-13, (n, k)

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


def _b1_area_part(f, cfg, n):
    # B1's area integral of |f''|, each circle mean sampled on n angles.
    circle = unit_circle(n)
    return weighted_radial_integral(lambda r: np.mean(np.abs(f.derivatives(r[:, None] * circle, 2)[2]), axis=-1), 0.0, cfg)


class TestNestedAngularRule:
    """The p < 2 circle means: n_theta angles first, up to 4 n_theta where two nested levels disagree."""

    @pytest.mark.parametrize("n", [2**k for k in range(6, 13)])
    def test_levels_share_their_points(self, n):
        # Bitwise: 2 pi (2 j) / (2 n) rounds as 2 pi j / n, each step scaled by a power of two.
        assert unit_circle(2 * n)[::2].tobytes() == unit_circle(n).tobytes()

    @pytest.mark.parametrize("text", ["hardy:1", "besov:1,0"])
    def test_degree_guard_against_aliasing(self, cfg, text):
        # z^n_theta takes one value on the n_theta and on the n_theta / 2
        # angles, so the two levels agree on |1 + 0.5 z^n_theta|; the degree
        # bound sends it on to the 4 n_theta angles of the fixed rule.  On
        # besov:1,0 that is f' of z + 0.5 z^(n_theta + 1) / (n_theta + 1).
        n = cfg.n_theta
        space = parse_space(text)
        z_n = Poly((0.0,) * n + (1.0,))
        members = [Poly((1.0,) + (0.0,) * (n - 1) + (0.5,)), Compose(Poly((1.0, 0.5)), z_n)]
        if space.family == "besov":
            c = 0.5 / (n + 1)
            members += [Poly((0.0, 1.0) + (0.0,) * (n - 1) + (c,)), Mul(Poly((0.0, 1.0)), Compose(Poly((1.0, c)), z_n))]
        order = space.shape.order
        circle = unit_circle(4 * n)
        for f in members:
            mean = lambda r: np.mean(np.abs(f.derivatives(r[:, None] * circle, order)[order]), axis=-1)
            if space.family == "hardy":
                want = mean(np.array([cfg.r_max]))[0]
            else:
                want = abs(f(0j)) + weighted_radial_integral(mean, 0.0, cfg)
            assert norms(space, [f], cfg)[0] == pytest.approx(want, rel=1e-15, abs=0.0), (text, f)
            if space.family == "hardy":
                # On n_theta angles alone it would read 1 + 0.5 r_max^n_theta, 1.4997.
                assert want == pytest.approx(1.0589597773765567, rel=1e-15, abs=0.0)

    def test_zero_on_a_radial_node(self, cfg):
        # f'' = z - z0 with |z0| a Gauss-Jacobi node of the B1 rule: |f''|
        # has its kink on that circle.  The nested rule is as near a
        # 16 n_theta mean as the 4 n_theta rule.
        r0 = _jacobi01(cfg.n_radial, 0.0)[0][40]
        z0 = r0 * np.exp(0.3j)
        f = Poly((0.0, 0.0, -z0 / 2.0, 1.0 / 6.0))
        b1 = parse_space("b1")
        got = norms(b1, [f], cfg)[0]
        brute, fixed = (_b1_area_part(f, cfg, m * cfg.n_theta) for m in (16, 4))
        assert abs(got - brute) <= abs(fixed - brute) + 4.0 * np.spacing(brute)
        assert abs(got - brute) <= 1e-6 * brute

    @staticmethod
    def refined_means(family, radii, cfg):
        # The b1 means of f'' and the members that a later level refines.
        refined = []
        subset = family.subset
        family.subset = lambda m: refined.extend(m.tolist()) or subset(m)
        with np.errstate(all="ignore"):
            means = _power_means(family, 1.0, radii, cfg.n_theta, 2)
        return means, refined

    def test_vanishing_member_is_taken_on_the_first_sweep(self, cfg):
        # f'' = 0 is taken on the first sweep: a polynomial family's members
        # have a degree bound below n_theta.
        family = as_family((Poly((1.0, 2.0)), Poly((0.5, 0.0, 1.0, 0.3))))
        assert isinstance(family, PolyFamily)
        means, refined = self.refined_means(family, np.array([0.1, 0.5, 0.7, 0.9]), cfg)
        assert np.all(means[0] == 0.0)
        assert 0 not in refined
        assert np.all(means[1] > 0.0)

    def test_nan_members_stay_nan(self, cfg):
        # 1e308 z^3 - 1e308 z^3 has f'' / 2 = 3e308 z - 3e308 z, NaN where
        # 3e308 |z| overflows, and its means there stay NaN.  A tree has no
        # degree bound, so its members are refined up to 4 n_theta angles.
        big = Poly((0.0, 0.0, 0.0, 1.0))
        family = as_family((Add(Mul(Const(1e308), big), Mul(Const(-1e308), big)), Poly((0.5, 0.0, 1.0, 0.3))))
        assert isinstance(family, TreeFamily)
        means, _ = self.refined_means(family, np.array([0.1, 0.5, 0.7, 0.9]), cfg)
        assert np.all(means[0, :2] == 0.0) and np.all(np.isnan(means[0, 2:]))
        assert np.all(means[1] > 0.0)

    def test_b1_evaluates_few_points(self, cfg, monkeypatch):
        # Points evaluated per member, counted through _evaluate, against
        # the 4 n_theta angles at each of the n_radial radii of the fixed rule.
        probes = as_family(default_probe_family(1))
        image = image_family(None, Moebius(MoebiusMap(0.5, 1.0)), probes)
        points = []
        evaluate = PolyFamily._evaluate

        def counted(self, z, order, members=None):
            points.append(len(self) * z.size if members is None else z.size)
            return evaluate(self, z, order, members)

        monkeypatch.setattr(PolyFamily, "_evaluate", counted)
        for family in (probes, image):
            points.clear()
            norms(parse_space("b1"), family, cfg)
            assert sum(points) <= 0.4 * len(family) * 4 * cfg.n_theta * cfg.n_radial


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

    def test_sup_of_values_that_are_all_nan_is_nan(self, cfg):
        # 0 (1e200 + 1e200 z)^2 is 0 inf = NaN at every point: no block of
        # the scan is kept, and the sup is NaN, not an error.
        f = Mul(Poly((0.0,)), Pow(Poly((1e200, 1e200)), 2.0))
        with np.errstate(all="ignore"):
            for omega in (FLAT_WEIGHT, _disk_weight):
                [got] = refined_modulus_sup(f, 0, omega, cfg)
                assert np.isnan(got)

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
    weight = omega(radii[:, None] ** 2)
    return radii, angles, family.rowwise(radii, np.exp(1j * angles), order, lambda h, rows: weight[rows] * np.abs(h))


def _full_grid_order(vals):
    # Flat indices of the _TOP largest values of a whole grid, largest first, ties by index.
    return np.argsort(-vals.ravel(), kind="stable")[:_TOP]


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

        for i, j in _select_candidates(_full_grid_order(vals[k]), cfg.n_theta, _POLISH_CANDIDATES):
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
    picks = [_select_candidates(_full_grid_order(v), cfg.n_theta, _POLISH_CANDIDATES) for v in vals]
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


def _full_sweep(family, order, weight, radii, circle):
    # Every block of the grid swept: each member's maximum and its
    # _TOP largest values' flat indices (_full_grid_order).
    values = family.rowwise(radii, circle, order, lambda h, rows: weight[rows] * np.abs(h)).reshape(len(family), -1)
    return values.max(axis=1), np.array([_full_grid_order(v) for v in values])


def _rudin_shapiro(n):
    # Coefficients +-1 of length n, a power of two, whose polynomial stays
    # below sqrt(2 n) on the unit circle: sum |c_j| r^j exceeds it about
    # sqrt(n / 2) times near the circle.
    p, q = np.ones(1), np.ones(1)
    while len(p) < n:
        p, q = np.concatenate([p, q]), np.concatenate([p, -q])
    return p


_HARNESS = as_family(harness_family())

# Each kind of PolyFamily whose weight folds: the default probes and their
# rotation and Moebius images, and the axiom harness family with its A3
# and A5 images.
ROW_SKIP_FAMILIES = {
    **{
        name: (lambda name=name: POLISH_FAMILIES[name](as_family(default_probe_family())))
        for name in ("probes", "rotation images", "involution images")
    },
    "harness": lambda: _HARNESS,
    "harness A3": lambda: image_family(monomial(1), None, _HARNESS),
    "harness A5": lambda: image_family(None, Moebius(MoebiusMap(-0.7, 1.0)), _HARNESS),
}


class TestRowSkip:
    """_grid_maxima skips the row blocks that a PolyFamily's Cauchy bounds rule out, and returns the full sweep's answer bitwise."""

    @staticmethod
    def scan(monkeypatch, family, order, omega, grid):
        # (_grid_maxima's maxima and candidates, the full sweep's, the first
        # radius of every block the scan evaluates, and of every block).
        radii, circle = scan_radii(grid), unit_circle(grid.n_theta)
        weight = omega(radii[:, None] ** 2)
        want = _full_sweep(family, order, weight, radii, circle)
        evaluated = []
        evaluate = type(family)._evaluate
        with monkeypatch.context() as m:
            # circle[0] = 1: a block's first point is its first radius.
            m.setattr(type(family), "_evaluate", lambda fam, z, *rest: evaluated.append(z[0, 0].real) or evaluate(fam, z, *rest))
            got = _grid_maxima(family, order, weight, radii, circle)
        blocks = [radii[rows][0] for rows in family.row_blocks((len(radii), grid.n_theta), order)]
        return got, want, evaluated, blocks

    @staticmethod
    def assert_equal(got, want):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(ROW_SKIP_FAMILIES))
    def test_circle_bounds_hold_every_value(self, cfg, name, order):
        # Each family has members that reach their bound on the grid up to
        # its rounding margin, z^k among them.
        family = ROW_SKIP_FAMILIES[name]()
        radii, circle = scan_radii(cfg), unit_circle(cfg.n_theta)
        peaks = family.rowwise(radii, circle, order, lambda h, rows: np.abs(h).max(axis=-1))
        bounds = family.circle_bounds(radii, order)
        assert np.all(peaks <= bounds)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.nanmin(bounds / peaks) <= 1.0 + 1e-12

    @pytest.mark.parametrize("refined", [False, True], ids=["default", "refined"])
    @pytest.mark.parametrize("text", ["growth:1", "bloch:1", "logbloch:1"])
    @pytest.mark.parametrize("name", sorted(ROW_SKIP_FAMILIES))
    def test_maxima_and_candidates_equal_the_full_sweep(self, cfg, monkeypatch, name, text, refined):
        order, _, _, omega, _ = parse_space(text).shape
        grid = cfg.refined() if refined else cfg
        got, want, evaluated, blocks = self.scan(monkeypatch, ROW_SKIP_FAMILIES[name](), order, omega, grid)
        self.assert_equal(got, want)
        assert len(evaluated) < len(blocks)

    def test_bloch_probes_skip_blocks_past_their_constant(self, cfg, monkeypatch):
        # (1 - r^2) |f'| falls toward the circle, where the outer blocks lie
        # under every member's floor.  The first probe is the constant 1:
        # its bound is 0 and its floor 0, so only a bound at its floor, whose
        # values lose the tie to earlier ones, lets a block go.
        family = as_family(default_probe_family())
        got, want, evaluated, blocks = self.scan(monkeypatch, family, 1, _power_weight(1.0), cfg)
        self.assert_equal(got, want)
        assert not np.any(family.circle_bounds(scan_radii(cfg), 1)[0])
        assert evaluated == sorted(evaluated) and set(evaluated) < set(blocks)
        assert blocks[-1] not in evaluated

    def test_overflowing_bound_is_never_skipped(self, cfg, monkeypatch):
        # 2^1019 times a Rudin-Shapiro polynomial of length 64: its values stay
        # below 6.4e307, but its coefficient sum overflows near the circle.
        # Under (1 - t)^20 the outer blocks are skipped at scale 1 and
        # evaluated at that scale, with the same maxima and candidates.
        radii, weight = scan_radii(cfg), _power_weight(20.0)
        runs = {}
        for scale in (1.0, 2.0**1019):
            # The derivative matrices of f'' overflow as they are built.
            with np.errstate(over="ignore"):
                family = as_family([Poly(tuple(scale * _rudin_shapiro(64))), Poly((0.3, 1.0, 0.5j))])
            runs[scale] = self.scan(monkeypatch, family, 0, weight, cfg)
            self.assert_equal(*runs[scale][:2])
            bounds = family.circle_bounds(radii, 0)
        (got, _, skipping, blocks), (scaled, _, evaluated, _) = runs.values()
        outer = radii[np.flatnonzero(~np.isfinite(bounds[0]))]
        assert len(outer) and np.all(np.isfinite(scaled[0]))
        unbounded = [b for b, end in zip(blocks, blocks[1:] + [np.inf]) if np.any((outer >= b) & (outer < end))]
        assert set(unbounded) <= set(evaluated)
        assert not set(unbounded) & set(skipping)
        assert scaled[0][0] == 2.0**1019 * got[0][0] and scaled[1].tolist() == got[1].tolist()

    @pytest.mark.parametrize("kind", ["leibniz", "tree"])
    def test_families_without_bounds_sweep_every_block(self, cfg, monkeypatch, kind):
        probes = as_family(default_probe_family()[:12])
        family = {
            "leibniz": image_family(Recip(Poly((2.0, 1.0))), None, probes),
            "tree": POLISH_FAMILIES["trees"](probes),
        }[kind]
        assert np.all(family.circle_bounds(scan_radii(cfg), 1) == np.inf)
        got, want, evaluated, blocks = self.scan(monkeypatch, family, 1, _power_weight(1.0), cfg)
        self.assert_equal(got, want)
        assert evaluated == blocks


# A disk automorphism and a point z0, |z0| < 1, at which its value rounds
# to modulus 1; and a self-map of the R_MAX circle that leaves the disk
# at |z| = 1 - 1e-8.
OFF_DISK_MAP = MoebiusMap(0.24653103717861768 - 0.41438391522503343j, 0.9670770782414161 + 0.25448364336445267j)
OFF_DISK_POINT = -0.9662591200406879 - 0.2575719568163331j
LEAVING_INNER = Poly((0.0, 1.0 + 1e-7))


# The sweeps over a grid, each of a family at order 1.
SWEEPS = {
    "rowwise": lambda fam, radii, circle: fam.rowwise(radii, circle, 1, lambda h, rows: np.abs(h).max(axis=-1)),
    "grid maxima": lambda fam, radii, circle: _grid_maxima(fam, 1, _power_weight(1.0)(radii[:, None] ** 2), radii, circle),
}


class TestPointChecks:
    """A sweep checks its grid's outermost circle once; map values and Compose inner values are checked on every evaluation."""

    @pytest.mark.parametrize("name, sweep", [(n, s) for n in ("probes", "involution images", "trees") for s in sorted(SWEEPS)])
    def test_one_sweep_checks_its_points_once(self, cfg, monkeypatch, name, sweep):
        family = POLISH_FAMILIES[name](as_family(default_probe_family()))
        radii, circle = scan_radii(cfg), unit_circle(cfg.n_theta)
        assert len(family.row_blocks((len(radii), len(circle)), 1)) > 1
        checks = []
        checked = analytic_core._checked_points
        monkeypatch.setattr(analytic_core, "_checked_points", lambda z, what="evaluation point": checks.append(what) or checked(z, what))
        SWEEPS[sweep](family, radii, circle)
        assert checks.count("evaluation point") == 1
        # The map's values, block by block, under the Moebius map alone.
        assert set(checks) == {"evaluation point"} | ({"composition inner value"} if name == "involution images" else set())

    @pytest.mark.parametrize("name, sweep", [(n, s) for n in ("probes", "trees") for s in sorted(SWEEPS)])
    def test_sweep_off_the_disk_raises(self, cfg, name, sweep):
        # Only the outermost radius leaves the disk, or is NaN.
        family = POLISH_FAMILIES[name](as_family(default_probe_family()))
        circle = unit_circle(cfg.n_theta)
        for outer, message in ((1.0, "lies outside the open unit disk"), (np.nan, "is not finite")):
            with pytest.raises(DomainError, match=f"^evaluation point {message}$"):
                SWEEPS[sweep](family, np.append(scan_radii(cfg)[:-1], outer), circle)

    @pytest.mark.parametrize("weight", [None, Recip(Poly((2.0, 1.0)))], ids=["folded", "leibniz"])
    def test_map_value_off_the_disk_raises_on_every_path(self, weight):
        family = image_family(weight, Moebius(OFF_DISK_MAP), as_family([Poly((0.5, 1.0, 0.25j)), Poly((0.0, 1.0))]))
        assert isinstance(family, PolyFamily)
        z = np.array([OFF_DISK_POINT])
        assert abs(OFF_DISK_POINT) < 1.0 <= np.abs(OFF_DISK_MAP(z))[0]
        paths = [
            lambda: family.derivative(z, 1),
            lambda: family.derivative_at(np.array([z, z]), 1, [0, 1]),
            lambda: family.rowwise(np.ones(1), z, 1, lambda h, rows: h),
            lambda: _grid_maxima(family, 1, np.ones((1, 1)), np.ones(1), z),
        ]
        for path in paths:
            with pytest.raises(DomainError, match="^composition inner value lies outside the open unit disk$"):
                path()

    def test_compose_inner_value_off_the_disk_raises_on_every_path(self):
        # The inner map passes Compose's check on the R_MAX circle, and
        # leaves the disk on the circle of radius 1 - 1e-8.
        family = as_family([Compose(Poly((1.0, 2.0)), LEAVING_INNER), Poly((0.0, 1.0))])
        assert isinstance(family, TreeFamily)
        r = 1.0 - 1e-8
        z = r * unit_circle(64)
        grid = GridConfig(n_theta=64, r_max=r)
        paths = [
            lambda: family.derivative(z, 1),
            lambda: family.derivative_at(np.array([z, z]), 1, [0, 1]),
            lambda: family.rowwise(np.array([0.5, r]), unit_circle(64), 1, lambda h, rows: h),
            lambda: _grid_maxima(family, 1, np.ones((2, 1)), np.array([0.5, r]), unit_circle(64)),
            lambda: _power_means(family, 1.0, np.array([r]), 64, 1),
            lambda: refined_modulus_sup(family, 0, FLAT_WEIGHT, grid),
            lambda: norms(parse_space("hinf"), family, grid),
        ]
        for path in paths:
            with pytest.raises(DomainError, match="^composition inner value lies outside the open unit disk$"):
                path()


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

    @pytest.mark.parametrize("weight", ["bloch:1", "flat"])
    def test_each_newton_step_calls_fn_twice(self, cfg, monkeypatch, weight):
        # One call for the starts, then per Newton step one for the
        # difference stencil and one for the full step with its halvings; a
        # stencil after which no start goes on is the last call.  The 2-D
        # boxes of bloch:1 take five stencil points per start, the circle's
        # 1-D boxes of the flat sup two.
        order, omega, d = (1, _power_weight(1.0), 2) if weight == "bloch:1" else (0, FLAT_WEIGHT, 1)
        calls, results = [], []
        real = quadrature._polish

        def counting(fn, x, lo, hi):
            def counted(points, starts):
                values = fn(points, starts)
                calls.append((points.shape[1], set(np.ravel_multi_index(starts, x.shape[:-1]).tolist()), values))
                return values

            results.append(real(counted, x, lo, hi))
            return results[-1]

        monkeypatch.setattr(quadrature, "_polish", counting)
        refined_modulus_sup(as_family(default_probe_family()), order, omega, cfg)
        [polished] = results
        sizes = [m for m, _, _ in calls]
        assert sizes[0] == 1 and len(sizes) >= 3
        assert sizes[1::2] == [2 * d + d * (d - 1) // 2] * len(sizes[1::2])
        assert sizes[2::2] == [1 + 8] * len(sizes[2::2])
        # A line search takes the starts its stencil keeps going, and a
        # stencil those that the line search before it lifted.
        assert calls[1][1] == set(range(polished.size))
        for (_, before, _), (_, after, _) in zip(calls[1:], calls[2:]):
            assert after <= before
        start = calls[0][2][:, 0].reshape(polished.shape)
        finite = np.isfinite(start)
        assert np.all(polished[finite] >= start[finite])

    @pytest.mark.parametrize("text", ["bmoa", "mixed:2,inf,0.5"])
    def test_profiles_take_nine_points_per_start(self, cfg, monkeypatch, text):
        # A line search asks each start's profile at nine points in one call:
        # the values are those of the points asked one at a time.
        captured = []
        real = spaces._polish
        monkeypatch.setattr(spaces, "_polish", lambda fn, x, lo, hi: captured.append((fn, x, lo, hi)) or real(fn, x, lo, hi))
        norms(parse_space(text), as_family(default_probe_family()[::4]), cfg)
        [(fn, x, lo, hi)] = captured
        ends = (np.broadcast_to(lo, x.shape), np.broadcast_to(hi, x.shape))
        points = np.linspace(*ends, 9, axis=-2).reshape(-1, 9, x.shape[-1])
        starts = np.unravel_index(np.arange(len(points)), x.shape[:-1])
        together = fn(points, starts)
        assert together.shape == (len(points), 9)
        alone = np.stack([fn(points[:, j : j + 1], starts)[:, 0] for j in range(9)], axis=-1)
        np.testing.assert_allclose(together, alone, rtol=1e-15, atol=0.0)


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
