"""The known wrong answers, each asserting the truth and expected to fail.

Every case is strict: a change that fixes one by accident fails the
suite, and the fix then moves the case into its item's own tests.  The
first seven are wrong exact verdicts, the other fifteen wrong outputs
that are no verdicts.  Each message gives today's answer beside the truth.
"""

import numpy as np
import pytest

from wcolab import WcoSymbols, check_invertible, check_isometry, multiplier_test, norm, parse_space, seminorm, seminorms
from wcolab.analytic_core import Compose, Moebius, MoebiusMap, Poly, as_family, image_family
from wcolab.axiom_harness import harness_family
from wcolab.errors import WcolabError
from wcolab.minilang import parse_expression
from wcolab.operators import default_probe_family


def ledger(item: str, why: str):
    # Only a failed assertion counts as the recorded failure: any other
    # exception is a new fault and fails the test.
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}: {why}")


def verdict(F: str, phi: str, space: str, cfg) -> str:
    return check_invertible(WcoSymbols(parse_expression(F), parse_expression(phi)), parse_space(space), cfg).verdict


VERDICTS = {
    "near zero outside": (
        ("poly(1.0001,1.0)", "poly(0.0,1.0)", "Invertible"),
        ledger("2", "false exact negative from the trend test, |F| >= 1e-4 on the closed disk"),
    ),
    "small power of a boundary zero": (
        ("pow(poly(1.0,1.0),0.01)", "poly(0.0,1.0)", "NotInvertible"),
        ledger("2", "false positive, F -> 0 at z = -1 but its grid minimum is 0.871"),
    ),
    "blaschke zero between samples": (
        ("mobius(0.6,0.797,0.0)", "mobius(0.3,0.0,0.0)", "NotInvertible"),
        ledger("2", "false positive, F(0.6+0.797i) = 0 between two of the 512 counting samples"),
    ),
    "fast phase near the circle": (
        ("pow(poly(1.0,-0.9990009990009990),2.5)", "mobius(0.3,0.0,0.0)", "Invertible"),
        ledger("2", "false exact negative, the sampled unwrapping counts 2 zeros of a zero-free F"),
    ),
    "rotated zero": (
        ("poly(1.0,-0.9999911751943531+0.006135946008614561i)", "mobius(0.3,0.0,0.0)", "NotInvertible"),
        ledger("14", "false positive, the zero at 1 - 1e-5 turned by half a sample step is not counted"),
    ),
    "contraction of an automorphism": (
        ("const(1.0,0.0)", "mul(const(0.999999999,0.0),mobius(0.3,0.0,0.0))", "NotInvertible"),
        ledger("15", "false positive, phi maps into |w| <= 0.999999999 and the fit accepts it"),
    ),
}


@pytest.mark.parametrize(
    "F,phi,truth", [pytest.param(*case, marks=mark, id=name) for name, (case, mark) in VERDICTS.items()]
)
def test_invertibility_verdict_on_hardy(cfg, F, phi, truth):
    today = verdict(F, phi, "hardy:2", cfg)
    assert today == truth, f"today {today}, truth {truth}"


@ledger("15", "a contraction rz, r < 1, is taken as a rotation: ||C_phi z|| = r ||z||")
def test_contraction_is_no_surjective_isometry(cfg):
    w = WcoSymbols(parse_expression("const(1.0,0.0)"), parse_expression("poly(0.0,0.99999999)"))
    today = check_isometry(w, parse_space("bloch:1"), cfg).surjective_isometry
    assert today is False, f"today surjective_isometry {today}, truth False"


@ledger("2", "the pole at 0.6+0.797i is missed and the sup on |z| = r_max reads a finite norm")
def test_pole_in_the_disk_has_no_hinf_norm(cfg):
    try:
        today = norm(parse_space("hinf"), parse_expression("recip(mobius(0.6,0.797,0.0))"), cfg).total
    except WcolabError:
        return
    assert False, f"today the norm {today!r}, truth an error: 1/F has a pole in the disk"


@ledger(
    '"A function outside B1 gets a finite B1 norm" (a smaller item)',
    "the radial rule stops at its outermost node and cannot see the area integral of |f''| diverge toward z = 1",
)
def test_function_outside_b1_has_no_finite_b1_norm(cfg):
    try:
        today = norm(parse_space("b1"), parse_expression("recip(pow(poly(1.0,-1.0),0.5))"), cfg).total
    except WcolabError:
        return
    assert today == np.inf, f"today the norm {today!r}, truth infinite: f'' = (3/4)(1 - z)^(-5/2) is not area-integrable"


@ledger("24 (a)", "the norm is read on |z| <= r_max, or by a radial rule with fixed nodes, and stays finite")
@pytest.mark.parametrize("text", ["hardy:2", "hinf", "besov:2,0", "bmoa"])
def test_function_outside_the_space_has_no_finite_norm(cfg, text):
    try:
        today = norm(parse_space(text), parse_expression("recip(pow(poly(1.0,-1.0),0.5))"), cfg).total
    except WcolabError:
        return
    assert today == np.inf, f"today the norm {today!r}, truth infinite: (1 - z)^(-1/2) does not lie in {text}"


@ledger("1", "the principal branch is accepted although the inner range crosses the cut")
def test_power_across_the_cut_is_rejected():
    try:
        today = parse_expression("pow(poly(-1.0+0.1i,0.5),0.5)")
    except WcolabError:
        return
    assert False, f"today accepted as {today!r}, truth an error: the inner function crosses (-inf, 0]"


@ledger("1", "the hardy norm is the mean on |z| = r_max, not on the circle")
def test_hardy_norm_of_a_polynomial_is_exact(cfg):
    today = norm(parse_space("hardy:2"), parse_expression("poly(3.0,4.0)"), cfg).total
    assert abs(today - 5.0) <= 1e-14 * 5.0, f"today {today!r}, truth 5"


@ledger("18", "the scale-free empirical cap passes an unbounded symbol")
def test_unbounded_symbol_is_no_empirical_multiplier(cfg):
    today = multiplier_test(parse_expression("recip(poly(1.0,-1.0))"), parse_space("besov:2,0"), cfg).status
    assert not today.startswith("Yes"), f"today {today}, truth not a multiplier: 1/(1 - z) is unbounded"


@ledger("3", "the sup scan misses the maximum between its radii 0.96875 and 0.984375")
def test_bloch_seminorm_reaches_a_point_value(cfg):
    f = parse_expression(
        "compose(poly(-0.002862239515058417-0.6144862245628784i,0.07829798079843153-0.7817813320840309i,"
        "-0.3624940035925319+0.5687735923750004i,-0.2135470204093303+0.7028483223783909i,"
        "0.14758835361878714-0.20767948555975307i,0.8442357827120046+0.07530662827392719i,"
        "0.581421249811482+0.2740476840103049i),mobius(0.48610953847322586,0.7439056593896877,-2.4896813463852987))"
    )
    r, theta = 0.9809942678169542, 0.9387962421860124
    # (1 - r^2) |f'| at one point is a lower bound of the bloch:1 seminorm.
    at_point = (1.0 - r * r) * abs(f.derivatives(r * np.exp(1j * theta), 1)[1])
    today = seminorm(parse_space("bloch:1"), f, cfg)
    assert today >= at_point, f"today {today!r}, truth at least {at_point!r}"


@ledger("26", "|a| is maximized over six moduli only, so the image's seminorm reads 16.6 % low")
def test_bmoa_seminorm_is_moebius_invariant(cfg):
    f = default_probe_family(1)[12]
    image = Compose(f, Moebius(MoebiusMap(0.1402714574906726 + 0.8890016412883851j, 1.0)))
    bmoa = parse_space("bmoa")
    truth, today = seminorm(bmoa, f, cfg), seminorm(bmoa, image, cfg)
    assert abs(today - truth) <= 1e-9 * truth, f"today {today!r}, truth {truth!r}"


@ledger("26", "the invariance defect that A5 reads on bloch:1 is 1.0e-2 on bmoa")
def test_bmoa_invariance_defect_on_the_harness_family(cfg):
    fam = as_family(harness_family(1))
    bmoa = parse_space("bmoa")
    p0 = seminorms(bmoa, fam, cfg)
    p1 = seminorms(bmoa, image_family(None, Moebius(MoebiusMap(-0.7, 1.0)), fam), cfg)
    today = float(np.max(np.abs(p1 - p0) / np.maximum(p0, 1e-12)))
    assert today <= 1e-6, f"today {today!r}, truth 0"


# The b1 seminorm of z^3 / 6 - z0 z^2 / 2, whose f'' = z - z0 has its zero
# at modulus b: the integral of M_1(r) 2r dr over [0, 1], with
# M_1(r) = (2 / pi) (r + b) E(4 r b / (r + b)^2), split at b.
B1_REFERENCES = {0.5: 0.7896702325872645, 0.9: 1.049395068743181, 0.3 + 0.4j: 0.7896702325872645}


@ledger("27", "M_1(r) is weakly singular where the zero of f'' crosses the circle, and the radial rule converges as n^-3")
@pytest.mark.parametrize("z0", sorted(B1_REFERENCES, key=str))
def test_b1_seminorm_of_a_cubic_is_exact(cfg, z0):
    truth = B1_REFERENCES[z0]
    today = seminorm(parse_space("b1"), Poly((0.0, 0.0, -z0 / 2.0, 1.0 / 6.0)), cfg)
    assert abs(today - truth) <= 1e-10 * truth, f"today {today!r}, truth {truth!r}"
