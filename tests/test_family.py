"""Stacked family evaluation against per-expression tree evaluation."""

import numpy as np
import pytest

from wcolab.analytic_core import (
    Const,
    Moebius,
    MoebiusMap,
    Poly,
    PolyFamily,
    Pow,
    Recip,
    TreeFamily,
    as_family,
    image_family,
    rotation_map,
)
from wcolab.axiom_harness import ALL_FAMILIES
from wcolab.errors import DomainError, ParameterError
from wcolab.operators import WcoSymbols, apply, default_probe_family
from wcolab.quadrature import gauss01, scan_radii, unit_circle
from wcolab.spaces import norm, norms, parse_space, seminorms

SYMBOLS = {
    "rotation": WcoSymbols(Const(np.exp(0.9j)), Moebius(rotation_map(2.1))),
    "involution": WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.3 - 0.2j, 1.0))),
    "recip_pow": WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j)))),
}


def scan_grid(cfg):
    return scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]


def b1_grid(cfg):
    t, _ = gauss01(cfg.n_radial)
    return np.sqrt(t)[:, None] * unit_circle(4 * cfg.n_theta)[None, :]


def assert_stacked_matches_trees(family, z):
    # Eight rows at a time, so the stacked arrays stay small.
    for start in range(0, len(z), 8):
        rows = slice(start, start + 8)
        stacked = [family.derivative(z[rows], order) for order in (0, 1, 2)]
        for k, member in enumerate(family):
            for got, want in zip(stacked, member.derivatives(z[rows], 2)):
                assert np.all(np.abs(got[k] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_probe_family_is_a_poly_family():
    fam = as_family(default_probe_family())
    assert isinstance(fam, PolyFamily)
    assert len(fam) == 47
    assert list(fam) == list(default_probe_family())


@pytest.mark.parametrize("grid", [scan_grid, b1_grid])
def test_probe_jets_match_trees(cfg, grid):
    assert_stacked_matches_trees(as_family(default_probe_family()), grid(cfg))


def b1_grid_rows(cfg):
    # Every fourth radius of the area grid, innermost to outermost.
    return b1_grid(cfg)[::4]


@pytest.mark.parametrize("name", sorted(SYMBOLS))
@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_image_jets_match_trees(cfg, name, grid):
    images = apply(SYMBOLS[name], as_family(default_probe_family()))
    assert isinstance(images, PolyFamily)
    assert_stacked_matches_trees(images, grid(cfg))


def test_nested_images_and_products_match_trees(cfg):
    w, v = SYMBOLS["involution"], SYMBOLS["recip_pow"]
    fam = as_family(default_probe_family()[:12])
    z = scan_grid(cfg)
    assert_stacked_matches_trees(apply(w, apply(v, fam)), z)
    assert_stacked_matches_trees(image_family(v.F, None, fam), z)
    assert_stacked_matches_trees(image_family(None, v.phi, fam), z)


def test_images_share_the_polynomials_matrices(cfg):
    # An image is a copy of the polynomials' family with F and phi set,
    # and an image of an image folds into one level over the same matrices.
    w, v = SYMBOLS["involution"], SYMBOLS["recip_pow"]
    fam = as_family(default_probe_family()[:12])
    single, nested = apply(w, fam), apply(w, apply(v, fam))
    for images in (single, nested):
        assert images._matrices is fam._matrices
        assert images._joined is fam._joined
    assert nested.polys is fam.polys
    assert fam.F is fam.phi is None
    z = scan_grid(cfg)[::4]
    unfolded = TreeFamily(apply(w, apply(v, f)) for f in fam.polys)
    for reference in (TreeFamily(list(nested)), unfolded):
        for order in (0, 1, 2):
            got, want = nested.derivative(z, order), reference.derivative(z, order)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_values_equal_stacked_jet_values_bitwise(cfg):
    # One order alone skips the terms that only the others use, and must
    # equal its rows of one evaluation of all three orders.  Points per
    # member take their own contraction, so derivative_at is compared with
    # an evaluation of all three orders at the same points.
    w, v = SYMBOLS["involution"], SYMBOLS["recip_pow"]
    fam = as_family(default_probe_family()[:12])
    z = scan_grid(cfg)[::4]
    for family in (
        fam,
        apply(v, fam),
        apply(w, fam),
        apply(w, apply(v, fam)),
        image_family(v.F, None, fam),
        image_family(None, v.phi, fam),
        TreeFamily((Recip(Poly((2.0, 1.0))), v.F, Poly((0.0, 1.0)))),
    ):
        together = family._shared(z, (0, 1, 2))
        zk = np.linspace(0.1, 0.9, len(family))[:, None] * unit_circle(64)[None, :]
        several = family._evaluate(zk, (0, 1, 2), np.arange(len(family)))
        for order, stacked in enumerate(together):
            assert family.derivative(z, order).tobytes() == stacked.tobytes()
            assert family.derivative_at(zk, order, np.arange(len(family))).tobytes() == several[order].tobytes()


def test_member_rows_equal_member_aligned_calls_bitwise():
    # derivative_at(z, order, members) evaluates member members[i] at
    # z[i]: each row must equal that member's row of a call where every
    # member has its own row, whatever the order or repeats of members.
    w, v = SYMBOLS["involution"], SYMBOLS["recip_pow"]
    fam = as_family(default_probe_family()[:12])
    members = np.array([7, 2, 7, 0, 11, 2, 2, 5])
    scales = np.linspace(0.05, 0.95, len(members)) * np.exp(0.3j * np.arange(len(members)))
    z = scales[:, None] * unit_circle(16)[None, :]
    for family in (
        fam,
        apply(w, fam),
        apply(v, fam),
        image_family(v.F, None, fam),
        image_family(None, v.phi, fam),
        TreeFamily(list(apply(v, fam))),
    ):
        for order in (0, 1, 2):
            got = family.derivative_at(z, order, members)
            assert got.shape == z.shape
            for i, k in enumerate(members):
                rows = np.broadcast_to(z[i], (len(family),) + z[i].shape)
                aligned = family.derivative_at(rows, order, np.arange(len(family)))
                assert got[i].tobytes() == aligned[k].tobytes()


def test_zero_weight_images_are_zero(cfg):
    # Every factor of F = 0 vanishes, so every piece is dropped.
    fam = as_family(default_probe_family()[:12])
    images = image_family(Const(0.0), SYMBOLS["involution"].phi, fam)
    z = scan_grid(cfg)[::4]
    zk = np.linspace(0.1, 0.9, len(fam))[:, None] * unit_circle(64)[None, :]
    for order in (0, 1, 2):
        got = images.derivative(z, order)
        assert got.shape == (len(fam),) + z.shape
        assert not np.any(got)
        assert images.derivative_at(zk, order, np.arange(len(fam))).shape == zk.shape
        assert not np.any(images.derivative_at(zk, order, np.arange(len(fam))))


def test_constants_have_zero_derivatives():
    # Width one: the derivative tables and matrices have no columns.
    fam = PolyFamily([Poly((2.0,)), Poly((0.5j,))])
    z = np.array([0.0, 0.3, -0.5j])
    np.testing.assert_array_equal(fam.derivative(z, 0), [[2.0] * 3, [0.5j] * 3])
    for order in (1, 2):
        assert fam.derivative(z, order).shape == (2, 3)
        assert not np.any(fam.derivative(z, order))
    # Images of constants: F times the constant, and F' times it.
    F = Poly((1.0, 2.0))
    images = image_family(F, SYMBOLS["involution"].phi, fam)
    for order, want in enumerate(([2.0 * F(z), 0.5j * F(z)], [[4.0] * 3, [1j] * 3], np.zeros((2, 3)))):
        np.testing.assert_allclose(images.derivative(z, order), want, rtol=1e-15, atol=0.0)


def test_member_points(cfg):
    fam = apply(SYMBOLS["involution"], as_family(default_probe_family()[:9]))
    z = np.linspace(0.1, 0.9, 9)[:, None] * unit_circle(64)[None, :]
    trees = TreeFamily(list(fam))
    for order in (0, 1, 2):
        for family in (fam, trees):
            got = family.derivative_at(z, order, np.arange(len(family)))
            for k, member in enumerate(fam):
                want = member.derivatives(z[k], order)[order]
                np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-12)


def test_tree_family_fallback(cfg):
    members = (Recip(Poly((2.0, 1.0))), Poly((0.0, 1.0)), Const(0.5j))
    fam = as_family(members)
    assert isinstance(fam, TreeFamily)
    assert_stacked_matches_trees(fam, scan_grid(cfg))
    assert isinstance(apply(SYMBOLS["rotation"], fam), TreeFamily)


def test_image_leaving_the_disk_raises():
    # phi = 2z leaves the disk for |z| >= 1/2.
    images = image_family(Const(1.0), Poly((0.0, 2.0)), as_family(default_probe_family()))
    images.derivative(np.array([0.1, 0.4j]), 2)
    with pytest.raises(DomainError):
        images.derivative(np.array([0.1, 0.6]), 2)
    with pytest.raises(DomainError):
        images.derivative(np.array([0.1, 0.6]), 0)


def test_orders_beyond_two_raise():
    fam = as_family(default_probe_family()[:12])
    z = np.array([0.1, 0.4j])
    for family in (fam, apply(SYMBOLS["involution"], fam)):
        with pytest.raises(ParameterError):
            family.derivative(z, 3)


def test_points_outside_the_disk_raise():
    fam = as_family(default_probe_family())
    with pytest.raises(DomainError):
        fam.derivative(np.array([0.2, 1.0]), 2)
    with pytest.raises(DomainError):
        fam.derivative(np.array([np.nan]), 0)


@pytest.mark.parametrize("text", ALL_FAMILIES + ("mixed:2,inf,0.5",))
def test_norms_match_one_member_norms(cfg, text):
    space = parse_space(text)
    # Every fifth probe: monomials, random polynomials and 1 + lambda z.
    fam = default_probe_family()[::5]
    got = norms(space, fam, cfg)
    want = np.array([norm(space, f, cfg).total for f in fam])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_norms_of_images_match_one_member_norms(cfg):
    w = SYMBOLS["involution"]
    fam = as_family(default_probe_family()[::6])
    for text in ("bloch:1", "b1", "bmoa", "besov:2,0"):
        space = parse_space(text)
        got = norms(space, apply(w, fam), cfg)
        want = np.array([norm(space, apply(w, f), cfg).total for f in fam])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_empty_family_has_no_norms(cfg):
    assert norms(parse_space("hardy:2"), (), cfg).shape == (0,)
    assert seminorms(parse_space("b1"), (), cfg).shape == (0,)
