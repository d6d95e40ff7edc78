import re

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings, strategies as st

from wcolab import (
    Add,
    Compose,
    Const,
    ContourZero,
    DomainError,
    Moebius,
    MoebiusMap,
    Mul,
    ParameterError,
    Poly,
    Pow,
    R_MAX,
    Recip,
    BranchError,
    moebius_inverse,
    rotation_map,
    series,
    winding_number,
)
from wcolab.analytic_core import TreeFamily, _checked_points
from wcolab.quadrature import gauss01, scan_radii, unit_circle
from wcolab.spaces import norms, parse_space

from conftest import seeded_polys


def fd_jet(f, z, h=1e-5):
    """Finite-difference derivative pair; d2f from differences of df.

    Analytic derivatives are direction-independent, so a real step
    suffices and keeps the probes inside the disk.
    """
    df = (f(z + h) - f(z - h)) / (2.0 * h)
    d2f = (f.derivatives(z + h, 1)[1] - f.derivatives(z - h, 1)[1]) / (2.0 * h)
    return df, d2f


def assert_jets_close(f, z, rtol=1e-6):
    _, d1, d2 = f.derivatives(z, 2)
    df, d2f = fd_jet(f, z)
    scale1 = max(abs(d1), 1.0)
    scale2 = max(abs(d2), 1.0)
    assert abs(d1 - df) / scale1 < rtol
    assert abs(d2 - d2f) / scale2 < rtol


class TestJetRules:
    def test_poly_jet_closed_form(self):
        f = Poly((1.0, -2.0, 3.0))
        z = 0.5 + 0.1j
        value, d1, d2 = f.derivatives(z, 2)
        assert value == pytest.approx(1 - 2 * z + 3 * z * z)
        assert d1 == pytest.approx(-2 + 6 * z)
        assert d2 == pytest.approx(6.0)

    def test_product_rule(self):
        f = Poly((1.0, 1.0))
        g = Poly((0.0, 0.0, 1.0))
        z = 0.3 - 0.4j
        _, d1, d2 = Mul(f, g).derivatives(z, 2)
        (f0, f1, f2), (g0, g1, g2) = f.derivatives(z, 2), g.derivatives(z, 2)
        assert d1 == pytest.approx(f1 * g0 + f0 * g1)
        assert d2 == pytest.approx(f2 * g0 + 2 * f1 * g1 + f0 * g2)

    def test_fd_agreement_battery(self):
        rng = np.random.default_rng(7)
        m = Moebius(MoebiusMap(0.4 - 0.2j, 1.0))
        exprs = [
            Poly((0.5, 1.0, -0.25j)),
            m,
            Compose(Poly((0.0, 0.0, 1.0)), m),
            Recip(Poly((2.0, 1.0))),
            Pow(Poly((2.0, 0.5)), 1.5),
            Mul(Poly((1.0, 2.0)), Add(Const(1.0), Poly((0.0, 1.0)))),
        ]
        for f in exprs:
            for _ in range(6):
                z = 0.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                assert_jets_close(f, complex(z))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.complex_numbers(max_magnitude=0.85, allow_nan=False, allow_infinity=False),
    )
    def test_add_mul_consistency(self, coeffs, z):
        f = Poly(tuple(coeffs))
        g = Poly((0.5, -0.25))
        s = Add(f, g).derivatives(z, 1)
        (f0, f1), (g0, g1) = f.derivatives(z, 1), g.derivatives(z, 1)
        assert s[0] == pytest.approx(f0 + g0)
        assert s[1] == pytest.approx(f1 + g1)
        assert Mul(f, g)(z) == pytest.approx(f0 * g0)

    def test_vectorized_matches_scalar(self):
        f = Compose(Recip(Poly((2.0, 1.0))), Moebius(MoebiusMap(0.3, 1.0)))
        pts = 0.7 * np.exp(2j * np.pi * np.linspace(0, 1, 17, endpoint=False))
        block = f.derivatives(pts, 2)
        for k, z in enumerate(pts):
            single = f.derivatives(complex(z), 2)
            for order in (0, 1, 2):
                assert single[order] == pytest.approx(block[order][k])


class TestMoebius:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            MoebiusMap(1.2, 1.0)
        with pytest.raises(ParameterError):
            MoebiusMap(0.5, 2.0)

    def test_lam_normalized(self):
        m = MoebiusMap(0.0, 1.0 + 1e-10j)
        assert abs(abs(m.lam) - 1.0) < 1e-15

    def test_involution(self):
        m = MoebiusMap(0.4 + 0.3j, 1.0)
        z = 0.2 - 0.6j
        assert m(m(z)) == pytest.approx(z)

    def test_inverse(self):
        m = MoebiusMap(0.5 - 0.2j, np.exp(0.8j))
        inv = moebius_inverse(m)
        for z in (0.1, -0.3 + 0.4j, 0.7j):
            assert inv(m(z)) == pytest.approx(z)
            assert m(inv(z)) == pytest.approx(z)

    def test_rotation_map(self):
        rot = rotation_map(0.7)
        assert rot(0.5) == pytest.approx(0.5 * np.exp(0.7j))
        assert rot.a == 0

    def test_jet_closed_form_vs_fd(self):
        m = Moebius(MoebiusMap(0.35 + 0.2j, np.exp(0.3j)))
        for z in (0.1, 0.4 - 0.5j, -0.8):
            assert_jets_close(m, complex(z))


class TestDomainValidation:
    def test_outside_disk_rejected(self):
        f = Poly((0.0, 1.0))
        with pytest.raises(DomainError):
            f.derivatives(1.0, 2)
        with pytest.raises(DomainError):
            f.derivatives(np.array([0.1, 1.3j]), 2)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            Poly((1.0,)).derivatives(np.nan + 0j, 2)

    def test_compose_requires_self_map(self):
        with pytest.raises(DomainError):
            Compose(Poly((1.0,)), Poly((0.0, 2.0)))

    def test_recip_rejects_interior_zero(self):
        with pytest.raises(DomainError):
            Recip(Poly((0.0, 1.0)))
        with pytest.raises(DomainError):
            Recip(Poly((-0.25, 0.0, 1.0)))

    def test_nonfinite_inner_rejected(self):
        # 2^2000 overflows and 0.5^2000 underflows: the inner function is NaN on the circle.
        nan = Mul(Pow(Poly((2.0,)), 2000.0), Pow(Poly((0.5,)), 2000.0))
        for node in (Recip, lambda u: Pow(u, 0.5)):
            with pytest.raises(DomainError, match="not finite"):
                node(nan)

    def test_recip_jet_closed_form(self):
        f = Recip(Poly((2.0, 1.0)))
        z = 0.3 + 0.2j
        value, d1, d2 = f.derivatives(z, 2)
        assert value == pytest.approx(1.0 / (2.0 + z))
        assert d1 == pytest.approx(-1.0 / (2.0 + z) ** 2)
        assert d2 == pytest.approx(2.0 / (2.0 + z) ** 3)

    def test_pow_branch_cut(self):
        f = Pow(Const(-1.0 + 0.0j), 0.5)
        with pytest.raises(BranchError):
            f.derivatives(0.1, 2)

    def test_pow_matches_integer_product(self):
        u = Poly((2.0, 0.3, 0.1))
        p2 = Pow(u, 2.0)
        m2 = Mul(u, u)
        z = 0.4 - 0.3j
        assert p2.derivatives(z, 2) == pytest.approx(m2.derivatives(z, 2))


def _bits(x):
    return type(x), np.asarray(x).tobytes()


class TestValuePath:
    """derivatives(z, n) is the prefix of derivatives(z, 2), checks included.

    f(z) is its order-0 case, and jet(z), kept for the benchmark tracer,
    its order-2 case.
    """

    U = Poly((2.0, 0.5j, 0.25))
    MAP = Moebius(MoebiusMap(0.3 - 0.4j, np.exp(0.7j)))
    NODES = {
        "const": Const(0.5 - 2.0j),
        "poly": Poly((1.0, -0.5, 0.25j, 0.1)),
        "moebius": MAP,
        "add": Add(U, MAP),
        "mul": Mul(U, MAP),
        "compose": Compose(Recip(U), MAP),
        "recip": Recip(Pow(U, 1.5)),
        "pow": Pow(Add(U, Mul(MAP, Const(0.2))), -0.7),
    }

    @staticmethod
    def grid(cfg):
        return scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]

    @pytest.mark.parametrize("name", sorted(NODES))
    def test_values_equal_jet_values_bitwise(self, cfg, name):
        f = self.NODES[name]
        for z in (self.grid(cfg), 0.3 - 0.2j, 0.0 + 0.0j):
            full = [_bits(d) for d in f.derivatives(z, 2)]
            if np.ndim(z) == 0:
                assert {kind for kind, _ in full} == {complex}
            for n in (0, 1):
                assert [_bits(d) for d in f.derivatives(z, n)] == full[: n + 1]
            assert [_bits(d) for d in f.jet(z)] == full
            assert _bits(f(z)) == full[0]
        for n in (-1, 3):
            with pytest.raises(ParameterError):
                f.derivatives(0.0, n)

    @pytest.mark.parametrize(
        "f, z",
        [
            # Passes the check on the validation circle of radius R_MAX,
            # but maps z = 0.9999999 outside the disk.
            (Compose(Poly((1.0, 1.0)), Poly((0.0, (1.0 - 1e-9) / R_MAX))), 0.9999999),
            # The zero at 0.9999999 lies outside the validation circle.
            (Recip(Poly((-0.9999999, 1.0))), 0.9999999),
            (Pow(Const(-1.0 + 0.0j), 0.5), 0.1),
        ],
        ids=["compose", "recip", "pow"],
    )
    def test_errors_equal_jet_errors(self, f, z):
        for at in (z, np.array([0.0, z])):
            with pytest.raises((DomainError, BranchError)) as first:
                f.derivatives(at, 2)
            same = {"expected_exception": first.type, "match": f"^{re.escape(str(first.value))}$"}
            for n in (0, 1, 2):
                with pytest.raises(**same):
                    f.derivatives(at, n)
            with pytest.raises(**same):
                f(at)

    def test_tree_family_orders_match_members(self, cfg):
        family = TreeFamily(self.NODES[name] for name in sorted(self.NODES))
        z = self.grid(cfg)[: len(family)]
        got = [family.derivative_at(z, order, np.arange(len(family))) for order in (0, 1)]
        for k, f in enumerate(family):
            want = f.derivatives(z[k], 1)
            assert [_bits(got[0][k]), _bits(got[1][k])] == [_bits(want[0]), _bits(want[1])]


class TestSeries:
    """series(f, N) against references built without the Taylor rules, at orders above 2."""

    N = 24
    U = Poly((2.0, 0.5j, 0.25))
    MAP = MoebiusMap(0.3 - 0.4j, np.exp(0.7j))
    OUTER = Poly((0.5, -1.0, 0.25j, 0.3, -0.2, 0.1j))
    INNER = Poly((0.1, 0.5, 0.2j))

    @classmethod
    def padded(cls, coeffs):
        out = np.zeros(cls.N, dtype=complex)
        coeffs = np.asarray(coeffs, dtype=complex)[: cls.N]
        out[: len(coeffs)] = coeffs
        return out

    @classmethod
    def reciprocal(cls, coeffs):
        # The quotient of w^(N-1+d) by the reversed polynomial lists the series of 1/p from its top.
        d = len(coeffs) - 1
        quotient, _ = P.polydiv(np.eye(1, cls.N + d)[0][::-1], np.asarray(coeffs)[::-1])
        return quotient[::-1]

    @classmethod
    def geometric(cls, m):
        # lam (a - z) / (1 - conj(a) z) = lam (a - z) sum (conj(a) z)^k
        k = np.arange(cls.N)
        return cls.padded(P.polymul([m.lam * m.a, -m.lam], np.conj(m.a) ** k))

    @classmethod
    def composed(cls, outer, inner):
        out = np.zeros(cls.N, dtype=complex)
        for c in reversed(outer):
            out = cls.padded(P.polymul(out, inner))
            out[0] += c
        return out

    @classmethod
    def cases(cls):
        alpha = 1.3113
        binomial = np.concatenate([[1.0], np.cumprod((alpha - np.arange(cls.N - 1)) / np.arange(1, cls.N))])
        pow_real = (Pow(Poly((2.2558, 0.9 + 0.4j)), alpha), 2.2558**alpha * binomial * ((0.9 + 0.4j) / 2.2558) ** np.arange(cls.N))
        recip = (Recip(cls.U), cls.reciprocal(cls.U.coeffs))
        moebius = (Moebius(cls.MAP), cls.geometric(cls.MAP))
        compose = (Compose(cls.OUTER, Moebius(cls.MAP)), cls.composed(cls.OUTER.coeffs, moebius[1]))
        return {
            "poly": (cls.OUTER, cls.padded(cls.OUTER.coeffs)),
            "recip": recip,
            "pow_integer": (Pow(cls.U, 3.0), cls.padded(P.polypow(cls.U.coeffs, 3))),
            "pow_real": pow_real,
            "moebius": moebius,
            "compose_moebius": compose,
            "compose_poly": (Compose(cls.OUTER, cls.INNER), cls.composed(cls.OUTER.coeffs, cls.padded(cls.INNER.coeffs))),
            "mul": (Mul(recip[0], compose[0]), cls.padded(P.polymul(recip[1], compose[1]))),
            "add": (Add(pow_real[0], moebius[0]), pow_real[1] + moebius[1]),
        }

    @pytest.mark.parametrize("name", ["poly", "recip", "pow_integer", "pow_real", "moebius", "compose_moebius", "compose_poly", "mul", "add"])
    def test_matches_reference(self, name):
        f, want = self.cases()[name]
        got = series(f, self.N)
        assert got.shape == (self.N,)
        if name == "poly":
            assert got.tobytes() == want.tobytes()
        assert _normwise(got, want) <= 1e-14

    @pytest.mark.parametrize("name", sorted(TestValuePath.NODES))
    def test_derivatives_are_scaled_coefficients(self, name):
        f = TestValuePath.NODES[name]
        for c in (0.3 - 0.2j, -0.55 + 0.61j, 0.9j):
            t = f._taylor(_checked_points(c), 2)
            assert [_bits(d) for d in f.derivatives(c, 2)] == [_bits(complex(d)) for d in (t[0], t[1], 2 * t[2])]

    @pytest.mark.parametrize("name", sorted(TestValuePath.NODES))
    def test_coefficients_do_not_depend_on_the_order(self, name, cfg):
        f = TestValuePath.NODES[name]
        for z in (TestValuePath.grid(cfg)[::8, ::16], np.asarray(0.3 - 0.2j)):
            full = [_bits(c) for c in f._taylor(z, self.N)]
            for n in (0, 1, 2, 7):
                assert [_bits(c) for c in f._taylor(z, n)] == full[: n + 1]

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            series(self.U, 0)


def _normwise(got, ref) -> float:
    # Largest deviation over the largest modulus of the reference.
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class TestKernels:
    """Pow and Moebius agree with the textbook complex forms to rounding."""

    @staticmethod
    def grid(cfg):
        return scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.5, 3.5])
    @pytest.mark.parametrize("u", [Poly((2.0 / 3.0, 1.0 / 3.0)), Poly((2.5, 0.4, 0.3))], ids=["a4", "quadratic"])
    def test_pow_matches_complex_log_rule(self, cfg, u, alpha):
        z = self.grid(cfg)
        v = u.derivatives(z, 2)
        f = np.exp(alpha * np.log(v[0]))
        s1 = f / v[0]
        ref = [f, alpha * s1 * v[1], alpha * (alpha - 1.0) * (s1 / v[0]) * v[1] ** 2 + alpha * s1 * v[2]]
        for got, want in zip(Pow(u, alpha).derivatives(z, 2), ref):
            assert _normwise(got, want) <= 2e-15

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_pow_branch_cut_either_signed_zero(self, imag):
        inner = Const(complex(-1.0, imag))
        assert np.signbit(inner(0.1).imag) == np.signbit(imag)
        for n in (0, 1, 2):
            with pytest.raises(BranchError):
                Pow(inner, 0.5).derivatives(np.array([0.1, 0.5j]), n)
            with pytest.raises(BranchError):
                Pow(Poly((-0.5, 0.1)), 2.5).derivatives(np.array([0.5j, 0.0]), n)

    @pytest.mark.parametrize("modulus", [0.0, 0.5, 0.99])
    def test_moebius_matches_closed_forms(self, cfg, modulus):
        a, lam = modulus * np.exp(0.7j), np.exp(-0.4j)
        z = self.grid(cfg)
        d = 1.0 - np.conj(a) * z
        top = lam * (abs(a) ** 2 - 1.0)
        ref = [top / d**2, 2.0 * np.conj(a) * top / d**3]
        for got, want in zip(Moebius(MoebiusMap(a, lam)).derivatives(z, 2)[1:], ref):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    NOT_FINITE = "evaluation point is not finite"
    OUTSIDE = "evaluation point lies outside the open unit disk"

    @pytest.mark.parametrize(
        "z, message",
        [
            (np.nan, NOT_FINITE),
            (complex(np.inf, 0.0), NOT_FINITE),
            (1.0, OUTSIDE),
            (2.0, OUTSIDE),
            (np.array([0.1, np.nan, 2.0]), NOT_FINITE),
        ],
    )
    def test_checked_points_messages(self, z, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            _checked_points(z)
        assert _checked_points(np.array([0.0, 0.999j])).shape == (2,)
        assert _checked_points(np.zeros(0)).shape == (0,)

    def test_tree_is_evaluated_in_row_blocks(self, cfg, monkeypatch):
        # A4's tree on the b1 area grid: blocked, its norms agree with
        # the whole-grid evaluation to rounding.
        family = TreeFamily((Mul(Poly((0.0, 0.0, 1.0)), Pow(Poly((2.0 / 3.0, 1.0 / 3.0)), 3.5)),))
        z = np.sqrt(gauss01(cfg.n_radial)[0])[:, None] * unit_circle(4 * cfg.n_theta)[None, :]
        assert len(family.row_blocks(z, 2)) > 1
        spaces = [parse_space(s) for s in ("hinf", "b1", "bmoa")]
        blocked = [norms(space, family, cfg)[0] for space in spaces]
        monkeypatch.setattr(TreeFamily, "row_blocks", lambda self, z, order: [slice(0, len(z))])
        for space, value in zip(spaces, blocked):
            whole = norms(space, family, cfg)[0]
            assert abs(value - whole) <= 1e-15 * whole


class TestWinding:
    def test_counts_constructed_roots(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            roots = rng.uniform(0.1, 1.5, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            # keep roots away from the test contour
            roots = np.array([r * 1.15 if 0.75 < abs(r) < 0.85 else r for r in roots])
            coeffs = np.poly(roots)[::-1]
            f = Poly(tuple(coeffs))
            inside = int(np.sum(np.abs(roots) < 0.8))
            assert winding_number(f, 0.8) == inside

    def test_contour_zero_raises(self):
        # A zero on the contour, and a NaN function (2^2000 overflows, 0.5^2000
        # underflows, inf * 0 = NaN), whose samples have no phase either.
        for f in (Poly((-0.5, 1.0)), Mul(Pow(Poly((2.0,)), 2000.0), Pow(Poly((0.5,)), 2000.0))):
            with pytest.raises(ContourZero):
                winding_number(f, 0.5)

    def test_zero_threshold_is_relative(self):
        # c * f has the zeros of f: the tests scale with the largest sample.
        for c in (1e-12, 1.0, 1e12):
            assert winding_number(Poly((2.0 * c, c)), 0.5) == 0
            assert winding_number(Poly((0.25 * c, c)), 0.5) == 1
            Recip(Const(c))
            Pow(Poly((2.0 * c, c)), 0.5)
            with pytest.raises(ContourZero):
                winding_number(Poly((-0.5 * c, c)), 0.5)
        with pytest.raises(ContourZero):
            winding_number(Const(0.0), 0.5)
        with pytest.raises(DomainError):
            Recip(Const(0.0))

    def test_radius_validation(self):
        f = Poly((1.0,))
        with pytest.raises(ParameterError):
            winding_number(f, 0.0)
        with pytest.raises(ParameterError):
            winding_number(f, R_MAX * 1.01)


def test_seeded_polys_match_package_recipe():
    from wcolab import random_polynomials

    ours = seeded_polys(5, 0x5EED)
    theirs = random_polynomials(5)
    for a, b in zip(ours, theirs):
        assert a.coeffs == b.coeffs
