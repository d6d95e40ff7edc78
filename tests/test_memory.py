"""Peak traced memory of the grid sweeps: no member x grid array is held.

numpy reports its buffers to tracemalloc, so the traced peak of a call
counts every array it holds at once.  Each call runs once before it is
measured, so that the cached grids and kernels are not counted.
"""

import tracemalloc

import numpy as np

from wcolab.analytic_core import Const, Moebius, MoebiusMap, Poly, PolyFamily, Recip, as_family, image_family
from wcolab.operators import _FIXED_PROBES, default_probe_family
from wcolab.quadrature import refined_modulus_sup
from wcolab.spaces import _b1_area_integrals, _bmoa_seminorms, _power_weight, norms, parse_space

MiB = 1 << 20


def traced_peak(call) -> int:
    """Bytes that call holds at its peak, above what was held before it."""
    call()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def moebius_images(family):
    return image_family(Const(1.0), Moebius(MoebiusMap(0.5 - 0.2j, 1.0)), family)


def test_bloch_sup_of_the_probes_holds_no_grid(cfg):
    # The 47 probes' weighted |f'| on the 56 x 512 scan grid alone is 10.8 MB.
    probes = as_family(default_probe_family())
    assert traced_peak(lambda: refined_modulus_sup(probes, 1, _power_weight(1.0), cfg)) <= 4 * MiB


def test_bloch_sup_of_the_fixed_probes_in_taller_blocks_holds_no_grid(cfg):
    # 1, z, ..., z^8 and the eight 1 + lambda z sweep in taller blocks than
    # the 47 probes, so the scan's buffers are wider: a merge pool of the
    # candidates and two blocks reads 3.9 MiB here.
    fixed = as_family(list(_FIXED_PROBES))
    assert traced_peak(lambda: refined_modulus_sup(fixed, 1, _power_weight(1.0), cfg)) <= 3.6 * MiB


def test_b1_area_integral_on_the_refined_grid_holds_no_grid(cfg):
    # The refined B1 area grid, 128 x 4096 points, alone is 8 MiB.
    image = moebius_images(as_family([Poly((0.3, 1.0, 0.5j, 0.2))]))
    fine = cfg.refined()
    assert traced_peak(lambda: _b1_area_integrals(image, fine)) <= 4 * MiB


def test_bmoa_seminorms_of_images_hold_no_profile_of_all_members(cfg):
    images = moebius_images(as_family(default_probe_family()))
    assert traced_peak(lambda: _bmoa_seminorms(images, cfg)) <= 6 * MiB


def test_quadratic_form_of_weighted_images_holds_less_than_their_sweep(cfg, monkeypatch):
    # The basis of 13 monomial images is swept in the row blocks of the 47
    # images, 2 rows each.  In its own blocks, 5 rows each, it held 3.4 MiB,
    # more than the 2.1 MiB of the images' own sweep.  The guard rejects
    # some forms of these images, whose means then come from the basis
    # values of the same block.
    images = image_family(Recip(Poly((1.0, 0.99))), None, as_family(default_probe_family()))
    besov = parse_space("besov:2,0")
    form = traced_peak(lambda: norms(besov, images, cfg))
    monkeypatch.setattr(PolyFamily, "monomial_images", lambda self: None)
    assert form <= traced_peak(lambda: norms(besov, images, cfg))


def test_traced_peak_sees_numpy_buffers():
    # A 5 MiB array must show, or the bounds above would pass vacuously.
    assert traced_peak(lambda: np.ones(5 * MiB // 8).sum()) >= 5 * MiB
