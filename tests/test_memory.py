"""Peak traced memory of the grid sweeps, and their page faults when warm.

numpy reports its buffers to tracemalloc, so the traced peak of a call
counts every array it holds at once: no member x grid array may be
held.  Each call runs once before it is measured, so that the cached
grids and kernels are not counted.  Every block of a sweep allocates
fresh arrays; the heap setting at import keeps the freed ones resident,
so a warm sweep faults in no memory.
"""

import tracemalloc

import numpy as np
import pytest

from wcolab.analytic_core import _HEAP_KEPT, Const, Moebius, MoebiusMap, Poly, Recip, as_family, image_family
from wcolab.axiom_harness import run_all
from wcolab.operators import _FIXED_PROBES, default_probe_family
from wcolab.quadrature import refined_modulus_sup
from wcolab import spaces
from wcolab.spaces import _bmoa_seminorms, _power_weight, norms, parse_space, seminorms

from conftest import sampled_quadratic_means

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
    assert traced_peak(lambda: refined_modulus_sup(probes, 1, _power_weight(1.0), cfg)) <= 2.2 * MiB


def test_bloch_sup_of_the_fixed_probes_in_taller_blocks_holds_no_grid(cfg):
    # 1, z, ..., z^8 and the eight 1 + lambda z sweep in taller blocks than
    # the 47 probes, so the scan's blocks are wider: 2.4 MiB here against
    # 1.7 MiB for the 47.
    fixed = as_family(list(_FIXED_PROBES))
    assert traced_peak(lambda: refined_modulus_sup(fixed, 1, _power_weight(1.0), cfg)) <= 3 * MiB


def test_b1_area_integral_on_the_refined_grid_holds_no_grid(cfg):
    # The refined B1 area grid, 128 radii x 4096 angles, alone is 8 MiB.
    image = moebius_images(as_family([Poly((0.3, 1.0, 0.5j, 0.2))]))
    fine = cfg.refined()
    assert traced_peak(lambda: norms(parse_space("b1"), image, fine)) <= 3 * MiB


def test_bmoa_seminorms_of_images_hold_no_profile_of_all_members(cfg):
    images = moebius_images(as_family(default_probe_family()))
    assert traced_peak(lambda: _bmoa_seminorms(images, cfg)) <= 5 * MiB


def test_bmoa_series_of_images_near_the_circle_hold_a_few_blocks(cfg):
    # Under a = 0.9i the 47 probes' images have 850 Taylor coefficients of
    # f', whose cross-correlations are 2048 long: 16 members at a time
    # keep the transforms near BLOCK_BYTES, 4.3 MiB in all, as the
    # sampled sweep holds.  All 47 in each transform held 6.2 MiB.
    images = image_family(Const(1.0), Moebius(MoebiusMap(0.9j, 1.0)), as_family(default_probe_family()))
    assert images.z_coefficients(1) is not None
    assert traced_peak(lambda: _bmoa_seminorms(images, cfg)) <= 5 * MiB


def test_tree_family_blocks_hold_one_members_rows_at_a_time(cfg):
    # b1 seminorms of eight reciprocals, a tree family.  Each member's
    # derivatives up to order 2 go into one array of the members' values,
    # and are freed before the next member's: 1.3 MiB.  Kept alive until a
    # final stack, they held 2.3 MiB.
    trees = [Recip(Poly((2.0, 0.5 * c))) for c in np.exp(1j * np.arange(8))]
    assert traced_peak(lambda: seminorms(parse_space("b1"), trees, cfg)) <= 1.5 * MiB


def test_quadratic_form_of_weighted_images_holds_less_than_their_sweep(cfg, monkeypatch):
    # The images' table for f', 25 rows under Leibniz's rule, is swept in
    # their row blocks, 2 rows each: 1.1 MiB against the 1.5 MiB of their
    # own sweep.  Each block's table is freed before the next is built;
    # held by a loop variable while the next was built, it made 1.8 MiB.
    # The guard rejects some forms of these images, whose means then come
    # from the table of the same block.
    images = image_family(Recip(Poly((1.0, 0.99))), None, as_family(default_probe_family()))
    besov = parse_space("besov:2,0")
    form = traced_peak(lambda: norms(besov, images, cfg))
    monkeypatch.setattr(spaces, "_quadratic_means", sampled_quadratic_means)
    assert form <= traced_peak(lambda: norms(besov, images, cfg))


def test_traced_peak_sees_numpy_buffers():
    # A 5 MiB array must show, or the bounds above would pass vacuously.
    assert traced_peak(lambda: np.ones(5 * MiB // 8).sum()) >= 5 * MiB


def warm_minor_faults(call) -> int:
    """Minor page faults of the third call of call."""
    resource = pytest.importorskip("resource")
    call()
    call()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


WARM_SWEEPS = {
    "run_all_bloch": lambda cfg: run_all(parse_space("bloch:1"), cfg),
    "bmoa_norms_of_images": lambda cfg: norms(parse_space("bmoa"), moebius_images(as_family(default_probe_family())), cfg),
}


@pytest.mark.skipif(not _HEAP_KEPT, reason="the heap setting needs glibc's mallopt")
@pytest.mark.parametrize("name", sorted(WARM_SWEEPS))
def test_warm_sweeps_fault_in_no_memory(cfg, name):
    # 0-2 faults with the heap setting.  With glibc's thresholds forced back
    # to 128 KiB the freed blocks go back to the system, and the third call
    # takes about 40,000 (bmoa) and 50,000 (bloch:1).
    assert warm_minor_faults(lambda: WARM_SWEEPS[name](cfg)) <= 300
