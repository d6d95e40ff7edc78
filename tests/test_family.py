"""Stacked family evaluation against per-expression tree evaluation."""

import numpy as np
import pytest

from wcolab import analytic_core
from wcolab.analytic_core import (
    R_MAX,
    Compose,
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
    moebius_inverse,
    rotation_map,
)
from wcolab.axiom_harness import ALL_FAMILIES
from wcolab.errors import DomainError, ParameterError
from wcolab.minilang import parse_expression
from wcolab.operators import WcoSymbols, apply, default_probe_family
from wcolab.quadrature import (
    _POLISH_CANDIDATES,
    _TOP,
    _grid_maxima,
    _select_candidates,
    gauss01,
    scan_grid,
    scan_radii,
    unit_circle,
)
from wcolab.spaces import _norm_parts, _power_weight, norm, norms, parse_space, seminorm, seminorms

from conftest import seeded_polys

SYMBOLS = {
    "rotation": WcoSymbols(Const(np.exp(0.9j)), Moebius(rotation_map(2.1))),
    "involution": WcoSymbols(Const(1.0), Moebius(MoebiusMap(0.3 - 0.2j, 1.0))),
    "recip_pow": WcoSymbols(Recip(Pow(Poly((2.0, 0.5j, 0.25)), 1.5)), Moebius(MoebiusMap(0.4j, np.exp(0.3j)))),
}


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
    # An image is a family of the same polynomials with F and phi set,
    # sharing their matrices, and an image of an image folds into one
    # level over them.
    w, v = SYMBOLS["involution"], SYMBOLS["recip_pow"]
    fam = as_family(default_probe_family()[:12])
    single, nested = apply(w, fam), apply(w, apply(v, fam))
    for images in (single, nested):
        assert images.polys is fam.polys
        assert images._plain is fam._plain
    assert nested.F is not v.F and nested.phi is not v.phi
    assert fam.F is fam.phi is None
    z = scan_grid(cfg)[::4]
    unfolded = TreeFamily(apply(w, apply(v, f)) for f in fam.polys)
    for reference in (TreeFamily(list(nested)), unfolded):
        for order in (0, 1, 2):
            got, want = nested.derivative(z, order), reference.derivative(z, order)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def moebius(a, lam=1.0):
    return Moebius(MoebiusMap(a, lam))


class TreeEvaluated(Exception):
    pass


def evaluates_without_trees(family, z):
    # Whether every order evaluates with the Taylor rules of all nodes
    # refused: a folded image reads its matrices and phi's closed form, and
    # evaluates neither F nor phi as a tree.
    def refuse(self, z, n):
        raise TreeEvaluated

    with pytest.MonkeyPatch.context() as patch:
        for node in (Const, Poly, Moebius, Compose, Recip, Pow):
            patch.setattr(node, "_taylor", refuse)
        try:
            for order in (0, 1, 2):
                family.derivative(z, order)
        except TreeEvaluated:
            return False
    return True


# lam != 1 makes conj(a) conj(lam) differ from conj(a).  a is real: at
# |a| = 0.999 the outer scan radii sit at the floor of double precision
# for f o phi, where values alone, the same f(phi(z)) on both paths, lie
# up to 1.6e-12 from an 80-bit evaluation.  A complex a rounds conj(a) z
# in more places, and for some a and lam the two paths' second
# derivatives then differ by up to 2.7e-12 there.
FOLDED_MAPS = [(a, lam) for a in (0.0, 0.5, 0.9, 0.999) for lam in (1.0, np.exp(1.9j))]


@pytest.mark.parametrize("a,lam", FOLDED_MAPS, ids=[f"{a}-{'involution' if lam == 1.0 else 'rotated'}" for a, lam in FOLDED_MAPS])
@pytest.mark.parametrize("F", [None, Const(0.6 - 0.8j)], ids=["no-weight", "const"])
@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_folded_moebius_images_match_trees(cfg, a, lam, F, grid):
    images = image_family(F, moebius(a, lam), as_family(default_probe_family()))
    assert evaluates_without_trees(images, grid(cfg)[:2])
    assert_stacked_matches_trees(images, grid(cfg))


# The three ways to write a rotation: rotation_map, a mobius literal with
# a = 0, and poly(0, lam) with |lam| exactly 1.
ROTATIONS = {
    "rotation_map": Moebius(rotation_map(2.1)),
    "mobius literal": parse_expression("mobius(0.0,0.0,1.3)"),
    "poly": Poly((0.0, 0.6 + 0.8j)),
}


def refuse_map(self, z):
    raise TreeEvaluated


@pytest.mark.parametrize("name", sorted(ROTATIONS))
@pytest.mark.parametrize("F", [None, Const(0.6 - 0.8j)], ids=["no-weight", "const"])
@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_rotation_images_are_polynomials_in_z(cfg, monkeypatch, name, F, grid):
    # A rotation folds into the coefficient matrices: its images are read
    # on the power table of z, with no map evaluated, and they keep their
    # Taylor coefficients.
    images = image_family(F, ROTATIONS[name], as_family(default_probe_family()))
    z = grid(cfg)[::4]
    want = [TreeFamily(list(images)).derivative(z, order) for order in (0, 1, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(MoebiusMap, "__call__", refuse_map)
        got = [images.derivative(z, order) for order in (0, 1, 2)]
    for order in (0, 1, 2):
        assert np.all(np.abs(got[order] - want[order]) <= 1e-12 * np.maximum(1.0, np.abs(want[order])))
        coeffs = images.z_coefficients(order)
        summed = np.einsum("kj,jrn->krn", coeffs, z[None] ** np.arange(coeffs.shape[1])[:, None, None])
        assert np.all(np.abs(summed - want[order]) <= 1e-12 * np.maximum(1.0, np.abs(want[order])))


@pytest.mark.parametrize("order", [1, 2])
def test_moebius_factor_scales_the_table_or_the_values(cfg, order):
    # phi' (order 1) or phi' q (order 2) scales the power table's rows in
    # place when the members outnumber them, as the 47 probes do.  At points
    # per member it scales each member's values.  Each way matches the trees.
    images = image_family(Const(0.6 - 0.8j), moebius(0.5 - 0.3j, np.exp(1.9j)), as_family(default_probe_family()))
    assert len(images) > images._width
    z = scan_grid(cfg)[::8]
    want = TreeFamily(list(images)).derivative(z, order)
    per_member = np.broadcast_to(z, (len(images),) + z.shape)
    for got in (
        images.derivative(z, order),
        images.derivative_at(per_member, order, np.arange(len(images))),
    ):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_product_polynomial_images_match_trees(cfg, grid):
    images = image_family(Poly((0.5, -1.0j, 0.25)), None, as_family(default_probe_family()))
    assert evaluates_without_trees(images, grid(cfg)[:2])
    assert_stacked_matches_trees(images, grid(cfg))


@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_images_of_folded_images_match_trees(cfg, grid):
    fam = as_family(default_probe_family()[::2])
    inner = {
        "moebius": image_family(Const(0.6 - 0.8j), moebius(0.9j, np.exp(1.9j)), fam),
        "map alone": image_family(None, moebius(0.5), fam),
        "product": image_family(Poly((0.5, -1.0j, 0.25)), None, fam),
    }
    z = grid(cfg)
    for name, images in inner.items():
        for F, phi in ((Const(-1.0j), moebius(0.5 - 0.5j, np.exp(1.9j))), (Poly((1.0, 0.5)), None), (Const(2.0), None)):
            nested = image_family(F, phi, images)
            assert nested.polys is fam.polys
            # A constant weight over a map alone stays folded, with weight F
            # and the composed map reduced to one Moebius node.
            assert evaluates_without_trees(nested, z[:2]) == (name == "map alone" and isinstance(F, Const))
            assert_stacked_matches_trees(nested, z)


# A Const weight and a Moebius map fold; a Recip/Pow weight takes
# Leibniz's rule, with and without a map.
SWEPT = {
    "fold": lambda fam: image_family(Const(np.exp(0.9j)), SYMBOLS["involution"].phi, fam),
    "leibniz": lambda fam: image_family(SYMBOLS["recip_pow"].F, None, fam),
    "leibniz-map": lambda fam: apply(SYMBOLS["recip_pow"], fam),
    "tree": lambda fam: TreeFamily((Recip(Poly((2.0, 1.0))), SYMBOLS["recip_pow"].F, Poly((0.0, 1.0)))),
}


def two_row_blocks(monkeypatch, family, z, order):
    # BLOCK_BYTES that fits two rows of z per block, so an odd number of
    # rows ends in a shorter block.
    monkeypatch.setattr(analytic_core, "BLOCK_BYTES", 2 * family._height(order) * z.shape[1] * 16)
    blocks = family.row_blocks(z.shape, order)
    assert [len(range(len(z))[rows]) for rows in blocks] == [2] * (len(z) // 2) + [1] * (len(z) % 2)
    return blocks


@pytest.mark.parametrize("name", sorted(SWEPT))
@pytest.mark.parametrize("order", [0, 1, 2])
def test_sweep_values_equal_block_derivatives_bitwise(cfg, monkeypatch, name, order):
    family = SWEPT[name](as_family(default_probe_family()[:12]))
    z = scan_grid(cfg)[:7]
    blocks = two_row_blocks(monkeypatch, family, z, order)
    got = family.rowwise(scan_radii(cfg)[:7], unit_circle(cfg.n_theta), order, lambda values, rows: values.copy())
    want = np.concatenate([family.derivative(z[rows], order) for rows in blocks], axis=1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def blocks_of_rows(monkeypatch, family, shape, order, rows):
    # BLOCK_BYTES that fits the given number of grid rows per block.
    monkeypatch.setattr(analytic_core, "BLOCK_BYTES", rows * family._height(order) * shape[1] * 16)
    assert len(family.row_blocks(shape, order)) == -(-shape[0] // rows)


def full_grid_order(values):
    # Flat indices of the _TOP largest values of one member's whole grid,
    # largest first, ties by index: the order the sweep must reproduce.
    return np.argsort(-values.ravel(), kind="stable")[:_TOP]


def scan_values(family, order, weight, cfg):
    radii = scan_radii(cfg)
    return family.rowwise(radii, unit_circle(cfg.n_theta), order, lambda h, rows: weight(radii[rows, None] ** 2) * np.abs(h))


SELECTED = {
    "random probes": lambda: as_family(seeded_polys(20, 5)),
    "moebius images": lambda: image_family(Const(np.exp(0.4j)), moebius(0.5 - 0.3j), as_family(seeded_polys(20, 6))),
}
# Under (1 - t)^20 the random probes' derivatives peak in scan rows 1-6:
# no later block adds to their candidates.  Their values at order 0 tie
# along the row r = 0.
WEIGHTED = {
    **{name: (make, _power_weight(1.0)) for name, make in SELECTED.items()},
    "random probes, weight 20": (SELECTED["random probes"], _power_weight(20.0)),
}


@pytest.mark.parametrize(
    "rows, order, name",
    [(rows, order, name) for name in sorted(SELECTED) for order in (0, 1) for rows in (None, 2, 7, 56)]
    + [(rows, 1, "random probes, weight 20") for rows in (None, 2, 7, 56)],
)
def test_streamed_candidates_equal_full_grid_selection(cfg, monkeypatch, name, order, rows):
    make, weight = WEIGHTED[name]
    family = make()
    values = scan_values(family, order, weight, cfg)
    # Tie-free: the (_TOP + 1) largest values of every member are distinct.
    top = -np.sort(-values.reshape(len(family), -1), axis=1)[:, : _TOP + 1]
    assert np.all(top[:, :-1] > top[:, 1:])
    radii = scan_radii(cfg)
    if rows is not None:
        blocks_of_rows(monkeypatch, family, values.shape[1:], order, rows)
    best, got = _grid_maxima(family, order, weight(radii[:, None] ** 2), radii, unit_circle(cfg.n_theta))
    assert best.tobytes() == values.reshape(len(family), -1).max(axis=1).tobytes()
    for k in range(len(family)):
        want = full_grid_order(values[k])
        assert got[k].tolist() == want.tolist()
        assert _select_candidates(got[k], cfg.n_theta, _POLISH_CANDIDATES) == _select_candidates(
            want, cfg.n_theta, _POLISH_CANDIDATES
        )


# Weights in t = |z|^2 under which z has grid values that tie exactly:
# everywhere, from the first row past t = 0.3 on, and along the row of
# largest t (1 - t).
TIED_WEIGHTS = {
    "flat": np.ones_like,
    "step": lambda t: np.where(t > 0.3, 1.0, 0.5),
    "hump": lambda t: t * (1.0 - t),
}


@pytest.mark.parametrize("name", sorted(TIED_WEIGHTS))
@pytest.mark.parametrize("rows", [None, 1, 2, 3, 56])
def test_tied_grid_values_keep_the_smallest_flat_indices(cfg, monkeypatch, name, rows):
    # f = z at order 1: every grid value is the weight of its row.
    family = as_family([Poly((0.0, 1.0)), Poly((0.5, 2.0))])
    weight = TIED_WEIGHTS[name]
    radii = scan_radii(cfg)
    values = scan_values(family, 1, weight, cfg)
    if rows is not None:
        blocks_of_rows(monkeypatch, family, values.shape[1:], 1, rows)
    _, got = _grid_maxima(family, 1, weight(radii[:, None] ** 2), radii, unit_circle(cfg.n_theta))
    first = int(np.argmax(weight(radii ** 2))) * cfg.n_theta
    for k in range(len(family)):
        assert got[k].tolist() == list(range(first, first + _TOP))
        assert got[k].tolist() == full_grid_order(values[k]).tolist()


ONE_BLOCK_CASES = {
    **{f"{name}, order {order}": (WEIGHTED[name][0], order, WEIGHTED[name][1]) for name in WEIGHTED for order in (0, 1)},
    **{f"z, {name} weight": (lambda: as_family([Poly((0.0, 1.0)), Poly((0.5, 2.0))]), 1, w) for name, w in TIED_WEIGHTS.items()},
}


@pytest.mark.parametrize("name", sorted(ONE_BLOCK_CASES))
def test_one_block_candidates_equal_the_streamed_ones_bitwise(cfg, monkeypatch, name):
    # A grid swept in one block selects its candidates once; in smaller
    # blocks they are merged block by block.  The tied weights make values
    # that tie at the _TOP-th largest.
    make, order, weight = ONE_BLOCK_CASES[name]
    family = make()
    radii = scan_radii(cfg)
    shape = (len(radii), cfg.n_theta)
    args = (family, order, weight(radii[:, None] ** 2), radii, unit_circle(cfg.n_theta))
    blocks_of_rows(monkeypatch, family, shape, order, len(radii))
    best, top = _grid_maxima(*args)
    for rows in (1, 2, 7):
        blocks_of_rows(monkeypatch, family, shape, order, rows)
        streamed_best, streamed_top = _grid_maxima(*args)
        assert streamed_best.tobytes() == best.tobytes()
        assert streamed_top.tobytes() == top.tobytes()


# Families whose members are scaled by Family.subset: each kind of PolyFamily
# image, and a tree.
SCALED = {
    "plain": lambda fam: fam,
    "rotation": lambda fam: image_family(None, moebius(0.0, np.exp(1.9j)), fam),
    "moebius": lambda fam: image_family(None, moebius(0.5 - 0.3j, np.exp(0.4j)), fam),
    "const": lambda fam: image_family(Const(0.6 - 0.8j), moebius(0.5 - 0.3j, np.exp(0.4j)), fam),
    "poly": lambda fam: image_family(Poly((0.5, -1.0j, 0.25)), None, fam),
    "leibniz": lambda fam: image_family(Recip(Poly((2.0, 0.5j))), moebius(0.4j, np.exp(0.3j)), fam),
    "tree": lambda fam: TreeFamily(fam),
}


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scaled_subset_scales_its_members(cfg, name):
    # Powers of two far from 1 scale every value exactly, and each scaled
    # member, evaluated as a tree, is its family row.
    fam = SCALED[name](as_family(default_probe_family()[::4]))
    members = np.array([5, 0, 3, 11])
    scales = np.ldexp(1.0, np.array([-600, 3, 0, 600]))
    part, scaled = fam.subset(members), fam.subset(members, scales)
    assert type(scaled) is type(fam) and len(scaled) == len(members)
    z = scan_grid(cfg)[::8]
    for order in (0, 1, 2):
        got, unscaled = scaled.derivative(z, order), part.derivative(z, order)
        assert np.array_equal(got, scales[:, None, None] * unscaled)
        want = TreeFamily(list(scaled)).derivative(z, order)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(scales[:, None, None], np.abs(want)))


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
    # phi = 2z leaves the disk for |z| >= 1/2.  It is no Moebius map, so
    # the images are trees, and Compose rejects phi as they are built.
    with pytest.raises(DomainError):
        image_family(Const(1.0), Poly((0.0, 2.0)), as_family(default_probe_family()))


def test_images_under_other_maps_are_trees(cfg):
    fam = as_family(default_probe_family()[::3])
    z = scan_grid(cfg)[::4]
    for phi in (Poly((0.0, 0.99999999)), Poly((0.1, 0.5, 0.3j)), Compose(moebius(0.5), Poly((0.0, 0.9)))):
        for F in (None, Const(2.0), Poly((1.0, 0.5))):
            images = image_family(F, phi, fam)
            assert isinstance(images, TreeFamily)
            trees = TreeFamily(apply(WcoSymbols(Const(1.0) if F is None else F, phi), f) for f in fam.polys)
            for order in (0, 1, 2):
                got, want = images.derivative(z, order), trees.derivative(z, order)
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# phi o phi, phi o phi^-1 (the identity) and phi o psi for the folded maps.
COMPOSED_MAPS = [
    (MoebiusMap(a, lam), other)
    for a, lam in FOLDED_MAPS
    for other in (MoebiusMap(a, lam), moebius_inverse(MoebiusMap(a, lam)), MoebiusMap(0.3 - 0.6j, np.exp(0.4j)))
]
COMPOSED_IDS = [f"{a}-{'involution' if lam == 1.0 else 'rotated'}-{other}" for a, lam in FOLDED_MAPS for other in ("twice", "inverse", "other")]


@pytest.mark.parametrize("outer,inner", COMPOSED_MAPS, ids=COMPOSED_IDS)
def test_composed_moebius_maps_reduce_to_one_node(outer, inner):
    # The images of f = z are the map itself, read from one Moebius node.
    images = image_family(None, Compose(Moebius(outer), Moebius(inner)), as_family([Poly((0.0, 1.0))]))
    assert isinstance(images.phi, Moebius)
    z = R_MAX * unit_circle(4096)
    got, want = images.derivative(z, 0)[0], outer(inner(z))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    if inner == moebius_inverse(outer):
        assert np.all(np.abs(got - z) <= 1e-12)


@pytest.mark.parametrize("grid", [scan_grid, b1_grid_rows])
def test_composed_moebius_images_fold(cfg, grid):
    # A composition of Moebius nodes, and a rotation written as a polynomial
    # whose coefficient has modulus exactly 1.
    fam = as_family(default_probe_family()[::2])
    z = grid(cfg)
    for phi in (Compose(moebius(0.5 - 0.5j, np.exp(1.9j)), moebius(0.9, np.exp(0.4j))), Poly((0.0, 0.6 + 0.8j))):
        for F in (Const(0.6 - 0.8j), Poly((1.0, 0.5)), Recip(Poly((2.0, 1.0)))):
            w = WcoSymbols(F, phi)
            images = apply(w, fam)
            assert isinstance(images, PolyFamily)
            assert evaluates_without_trees(images, z[:2]) == isinstance(F, Const)
            trees = TreeFamily(apply(w, f) for f in fam.polys)
            for order in (0, 1, 2):
                got, want = images.derivative(z, order), trees.derivative(z, order)
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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


@pytest.mark.parametrize("text", ALL_FAMILIES + ("mixed:2,2,0.5",))
def test_norms_match_one_member_norms(cfg, text):
    space = parse_space(text)
    # Every fifth probe: monomials, random polynomials and 1 + lambda z.
    fam = default_probe_family()[::5]
    got = norms(space, fam, cfg)
    # Each member measured as a one-member tree: norm of a Poly takes the family path.
    want = np.array([norms(space, TreeFamily([f]), cfg)[0] for f in fam])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind", ["poly", "const", "tree"])
@pytest.mark.parametrize("text", ALL_FAMILIES + ("mixed:2,2,0.5",))
def test_one_answer_per_polynomial(cfg, text, kind):
    # norm and seminorm of one expression are, bitwise, the one-member
    # cases of the family path.
    f = {
        "poly": Poly((0.3, -0.5j, 0.25, 0.1 + 0.2j)),
        "const": Const(0.6 - 0.8j),
        "tree": Pow(Poly((2.0, 0.5j, 0.25)), 1.5),
    }[kind]
    space = parse_space(text)
    want = [float(part[0]).hex() for part in _norm_parts(space, as_family([f]), cfg)]
    got = norm(space, f, cfg)
    assert [v.hex() for v in (got.total, got.point_part, got.seminorm_part)] == want
    if space.has_a6_form:
        assert seminorm(space, f, cfg).hex() == want[2]


def test_constants_join_polynomial_families():
    # A constant c is the one-coefficient polynomial Poly((c,)).
    fam = as_family([Const(0.6 + 0.8j), Poly((0.3, -0.5j))])
    assert isinstance(fam, PolyFamily)
    assert fam[0] == Poly((0.6 + 0.8j,))
    assert isinstance(as_family(Const(2.0)), PolyFamily)
    assert isinstance(as_family([Const(2.0), Recip(Poly((2.0, 1.0)))]), TreeFamily)


@pytest.mark.parametrize("text", ALL_FAMILIES)
def test_constants_measure_as_their_trees(cfg, text):
    # Bitwise the parts of the Const trees, as the constants measured before
    # they joined PolyFamily.
    constants = [Const(c) for c in (0.6 + 0.8j, 5.0, -2.0 + 1.0j, 0.25j)]
    space = parse_space(text)
    got = _norm_parts(space, as_family(constants), cfg)
    want = _norm_parts(space, TreeFamily(constants), cfg)
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


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


def test_z_coefficients_give_the_members_derivatives(cfg):
    fam = as_family(default_probe_family())
    polynomials = {
        "plain": lambda fam: fam,
        "const": lambda fam: image_family(Const(0.6 - 0.8j), None, fam),
        "product": lambda fam: image_family(Poly((0.5, -1.0j, 0.25)), None, fam),
        "rotation": lambda fam: image_family(None, moebius(0.0, np.exp(1.9j)), fam),
        "weighted rotation": lambda fam: image_family(Const(-1.0j), Moebius(rotation_map(0.7)), fam),
        "composed rotations": lambda fam: image_family(None, moebius(0.0, np.exp(1.9j)), image_family(None, moebius(0.0), fam)),
    }
    z = scan_grid(cfg)[::4]
    trees = TreeFamily(list(fam))
    for name, images_of in polynomials.items():
        images = images_of(fam)
        for order in (0, 1, 2):
            coeffs = images.z_coefficients(order)
            got = np.einsum("kj,jrn->krn", coeffs, z[None] ** np.arange(coeffs.shape[1])[:, None, None])
            want = images_of(trees).derivative(z, order)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name


def horner(coeffs, z):
    # sum over j of coeffs[:, j] z^j, by Horner's rule: powers of z near the
    # circle, taken one by one, lose digits for the long series.
    out = np.zeros((len(coeffs),) + z.shape, dtype=complex)
    for c in coeffs.T[::-1]:
        out *= z
        out += c[:, None, None]
    return out


@pytest.mark.parametrize("a", [0.3, 0.5j, -0.7, 0.9 * np.exp(1.1j)], ids=["0.3", "0.5", "0.7", "0.9"])
@pytest.mark.parametrize("F", [None, Const(0.6 - 0.8j)], ids=["no-weight", "const"])
def test_moebius_images_give_their_taylor_series(cfg, a, F):
    # The series of c (f o phi), cut where its tail falls below rounding,
    # summed on the scan grid.  The error is measured against the largest
    # modulus of each member's derivative on the grid: near the circle
    # the sum cancels, and at |a| = 0.9 the second derivative's terms
    # reach 1e5 times its value, so the series' own rounding is 3e-12 of
    # the value there, where the tree is within 1e-16 of a 40-digit
    # reference.  Against that scale the error is below 1.5e-14.
    images = image_family(F, moebius(a, np.exp(1.9j)), as_family(default_probe_family()))
    z = scan_grid(cfg)[::4]
    for order in (0, 1, 2):
        coeffs = images.z_coefficients(order)
        want = TreeFamily(list(images)).derivative(z, order)
        scale = np.maximum(1.0, np.abs(want).max(axis=(1, 2), keepdims=True))
        assert np.all(np.abs(horner(coeffs, z) - want) <= 1e-12 * scale), order


@pytest.mark.parametrize("a", [0.3, -0.9j])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_moebius_series_drops_only_a_tail_below_rounding(a, order):
    # The terms past the cut, read from a series twice as long, add up to
    # less than 2^-53 times the sum of |c_j|, which bounds |f| on the disk.
    fam = as_family(default_probe_family())
    images = image_family(None, moebius(a, np.exp(0.4j)), fam)
    coeffs = images.z_coefficients(order)
    powers = analytic_core._moebius_powers(images.phi.map, images._width, 2 * (coeffs.shape[1] + order))
    longer = analytic_core._derivative_matrix(fam._plain[0] @ powers, order)
    assert np.max(np.abs(longer[:, : coeffs.shape[1]] - coeffs)) <= 1e-15 * np.max(np.abs(coeffs))
    tail = np.abs(longer[:, coeffs.shape[1] :]).sum(axis=1)
    assert np.all(tail <= 2.0 ** -53 * np.abs(fam._plain[0]).sum(axis=1))


def convolved_powers(m, width, n):
    # phi^0 .. phi^(width-1) to n terms, each the truncated convolution of
    # the last with phi's series lam a, lam (|a|^2 - 1) conj(a)^(k-1).
    phi = np.empty(n, dtype=complex)
    phi[0] = m.lam * m.a
    phi[1:] = m.lam * (abs(m.a) ** 2 - 1.0) * np.conj(m.a) ** np.arange(n - 1)
    out = np.zeros((width, n), dtype=complex)
    out[0, 0] = 1.0
    for j in range(1, width):
        out[j] = np.convolve(out[j - 1], phi)[:n]
    return out


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 0.9, 0.95])
def test_moebius_powers_match_their_convolutions(s):
    # The doubling scan forms the convolutions' products: 3e-16 apart at most.
    m = MoebiusMap(s * np.exp(1.1j), np.exp(1.9j))
    for order in (0, 1, 2):
        n = analytic_core._series_length(s, 13, order)
        got = analytic_core._moebius_powers(m, 13, n)
        assert np.max(np.abs(got - convolved_powers(m, 13, n))) <= 1e-14, order


def test_z_coefficients_only_for_folded_weights_within_the_budget():
    # A weight left to Leibniz's rule, a tree, and a Moebius map whose
    # series (9,452 terms for f' at |a| = 0.99) would not fit BLOCK_BYTES
    # give none.
    fam = as_family(default_probe_family()[::5])
    others = (
        image_family(Recip(Poly((2.0, 1.0))), None, fam),
        image_family(Poly((1.0, 0.5)), moebius(0.0), fam),
        TreeFamily(list(fam)),
        image_family(Const(1.0), moebius(0.99j, np.exp(1.9j)), fam),
    )
    for images in others:
        assert all(images.z_coefficients(order) is None for order in (0, 1, 2))
