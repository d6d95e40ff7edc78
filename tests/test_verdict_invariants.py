"""What every invertibility verdict must rest on, read from its report alone.

These checks restate the theorem's rule over the report's fields, not
over the decision's code: NotInvertible comes only from an exact
negative, Inconclusive always says why, and Invertible carries two exact
multiplier memberships and the inverse symbols.  The inputs are the
invertibility benchmark ops of seeds 1-2 and inputs at the edge of each
condition.
"""

import pytest

import wcolab
from wcolab import GridConfig, WcoSymbols, check_invertible, default_config, parse_space
from wcolab.minilang import parse_expression

from conftest import perfbench_module

workloads = perfbench_module("workloads")

# (space, F, phi, grid flags), each on the edge of one condition.
EDGES = {
    "zeros counted short of the disk": ("hardy:2", "poly(2.0,0.5)", "mobius(0.3,0.0,0.0)", {"r_max": 0.9}),
    "zero inside a short count": ("hardy:2", "poly(-0.5,1.0)", "mobius(0.3,0.0,0.0)", {"r_max": 0.9}),
    "zero at 1 - 1e-5": ("hardy:2", "poly(-0.99999,1.0)", "poly(0.0,1.0)", {}),
    "contraction phi": ("hardy:2", "const(1.0,0.0)", "poly(0.0,0.5)", {}),
    "unbounded F": ("bloch:1", "recip(poly(1.0,-1.0))", "mobius(0.3,0.0,0.0)", {}),
    "empirical multiplier test": ("besov:2,0", "poly(2.0,1.0)", "mobius(0.3,0.0,0.0)", {}),
}

OPS = {
    f"seed {seed} op {i} {op['space']} {op['expect']}": op
    for seed in (1, 2)
    for i, op in enumerate(workloads.generate("invertibility", seed))
}


def assert_rests_on_its_evidence(report) -> None:
    statuses = [v.status for v in (report.multiplier, report.weight_multiplier) if v is not None]
    if report.verdict == "NotInvertible":
        # A zero counted in |z| < r_max lies in the disk, on any grid.
        assert (
            not report.automorphism.found or report.zero_count != 0 or "No_Exact" in statuses
        ), f"NotInvertible without an exact negative: {report}"
    elif report.verdict == "Inconclusive":
        assert report.caveat, f"Inconclusive without a caveat: {report}"
    elif report.verdict == "Invertible":
        assert statuses == ["Yes_Exact", "Yes_Exact"], f"Invertible with multiplier statuses {statuses}"
        assert report.inverse_weight is not None and report.inverse_map is not None
    else:
        pytest.fail(f"unknown verdict {report.verdict!r}")


@pytest.mark.parametrize("op", OPS.values(), ids=OPS.keys())
def test_benchmark_op_verdict_rests_on_its_evidence(op, cfg):
    w = WcoSymbols(workloads.build(op["F"], wcolab), workloads.build(op["phi"], wcolab))
    assert_rests_on_its_evidence(check_invertible(w, parse_space(op["space"]), cfg, op["seed"]))


@pytest.mark.parametrize("space,F,phi,grid", EDGES.values(), ids=EDGES.keys())
def test_edge_verdict_rests_on_its_evidence(space, F, phi, grid):
    cfg = GridConfig(**grid) if grid else default_config()
    w = WcoSymbols(parse_expression(F), parse_expression(phi))
    assert_rests_on_its_evidence(check_invertible(w, parse_space(space), cfg))
