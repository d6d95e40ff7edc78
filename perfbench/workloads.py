"""Seeded op lists for the four benchmark workloads.

An op is plain data: which public call (or CLI subcommand) to make, on
which space, with which symbols, and what the answer must be.  The
symbols are specs, nested tuples that `build` turns into expression
trees and `render` turns into the CLI mini-language, so the in-process
and the CLI workloads share one generator.  Only the numeric parameters
come from the seed; which spaces and call kinds appear, and in which
order, is fixed, so every seed costs about the same.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random

# Ordered so that ops of similar cost sit apart in time: the machine's
# speed drifts over seconds, and a cluster run back to back would carry
# one drift into the batch median.
ISOMETRY_SPACES = ("b1", "bloch:1", "besov:2,0", "logbloch:1", "bmoa")
INVERTIBILITY_SPACES = (
    "hinf",
    "hardy:2",
    "bergman:2,0",
    "mixed:2,2,0.5",
    "growth:1",
    "bloch:1",
    "besov:2,0",
)
# Spaces whose multiplier test for 1/F is empirical, so a positive pair
# ends Inconclusive rather than Invertible.
EMPIRICAL_MULTIPLIER_SPACES = frozenset({"besov:2,0"})
# The ten families in the order of wcolab.axiom_harness.ALL_FAMILIES.
AXIOM_SPACES = (
    "hinf",
    "hardy:2",
    "bergman:2,0",
    "mixed:2,2,0.5",
    "growth:1",
    "bloch:1",
    "logbloch:1",
    "bmoa",
    "besov:2,0",
    "b1",
)
WORKLOADS = ("isometry", "invertibility", "axioms", "cli")

# Golden norms from the acceptance criteria: (command, space, f, value,
# absolute tolerance).  The CLI ops scale f by a seeded constant c, which
# scales the value by |c| and the tolerance with it.
_SQRT3 = math.sqrt(3.0)
GOLDEN_NORMS = (
    ("norm", "bloch:1", ("poly", (0j, 1 + 0j)), 1.0, 1e-5),
    ("norm", "bloch:1", ("poly", (0j, 0j, 1 + 0j)), 4.0 * _SQRT3 / 9.0, 1e-5),
    ("norm", "hardy:2", ("poly", (3 + 0j, 4 + 0j)), 5.0, 1e-5),
    ("norm", "b1", ("poly", (0j, 0j, 1 + 0j)), 2.0, 1e-5),
    ("norm", "bergman:2,0", ("poly", (0j,) * 4 + (1 + 0j,)), 1.0 / math.sqrt(5.0), 1e-5),
    ("norm", "bergman:2,0", ("poly", (0j,) * 10 + (1 + 0j,)), 1.0 / math.sqrt(11.0), 1e-5),
)
GOLDEN_SEMINORMS = (
    ("seminorm", "bloch:1", ("poly", (0j, 0j, 1 + 0j)), 4.0 * _SQRT3 / 9.0, 1e-5),
    ("seminorm", "bloch:1", ("poly", (5 + 0j, 1 + 0j)), 1.0, 1e-5),
)


def _unimodular(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _in_annulus(rng: random.Random, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * _unimodular(rng)


def _probe_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _scale_spec(spec: tuple, c: complex) -> tuple:
    kind, coeffs = spec
    return (kind, tuple(c * x for x in coeffs))


def _rotation(rng: random.Random) -> tuple:
    # z -> lam * (0 - z) is the rotation by -lam.
    return ("mobius", 0j, _unimodular(rng))


def _automorphism(rng: random.Random) -> tuple:
    return ("mobius", _in_annulus(rng, 0.1, 0.6), _unimodular(rng))


def _linear_weight(rng: random.Random) -> tuple:
    # |c1| / |c0| <= 2/3: the zero sits outside the closed disk.
    return ("poly", (_in_annulus(rng, 1.5, 2.5), _in_annulus(rng, 0.3, 1.0)))


def _deep_weight(rng: random.Random, kind: str) -> tuple:
    # A positive real constant term dominating the rest keeps the
    # polynomial in the right half plane: no zeros, no branch cut.
    inner = ("poly", (complex(rng.uniform(2.0, 3.0)), _in_annulus(rng, 0.2, 0.6), _in_annulus(rng, 0.1, 0.5)))
    if kind == "pow":
        return ("pow", inner, rng.uniform(1.2, 1.8))
    return ("recip", inner)


def _vanishing_weight(rng: random.Random) -> tuple:
    b = _in_annulus(rng, 0.1, 0.7)
    s = _in_annulus(rng, 1.0, 2.0)
    return ("poly", (-s * b, s))


def _two_to_one(rng: random.Random) -> tuple:
    return ("poly", (0j, 0j, _in_annulus(rng, 0.4, 0.9)))


def _not_onto(rng: random.Random) -> tuple:
    # A contraction s*z + b, |b| + |s| < 1, with its zero inside the disk.
    s = rng.uniform(0.3, 0.6)
    b = _in_annulus(rng, 0.0, min(0.5 * s, 0.95 - s))
    return ("poly", (b, s * _unimodular(rng)))


def _isometry_ops(rng: random.Random) -> list:
    ops = []
    for space in ISOMETRY_SPACES:
        ops.append(dict(call="check_isometry", space=space, F=("const", _unimodular(rng)),
                        phi=_rotation(rng), seed=_probe_seed(rng), expect="isometry"))
    for space in ISOMETRY_SPACES:
        a = _in_annulus(rng, 0.25, 0.6)
        ops.append(dict(call="check_isometry", space=space, F=("const", _unimodular(rng)),
                        phi=("mobius", a, 1 + 0j), seed=_probe_seed(rng), expect="not_isometry", origin=a))
    return ops


def _invertibility_ops(rng: random.Random) -> list:
    ops = []
    for i, space in enumerate(INVERTIBILITY_SPACES):
        positive = "inconclusive" if space in EMPIRICAL_MULTIPLIER_SPACES else "invertible"
        deep = "pow" if i % 2 == 0 else "recip"
        for F in (_linear_weight(rng), _deep_weight(rng, deep)):
            ops.append(dict(call="check_invertible", space=space, F=F, phi=_automorphism(rng),
                            seed=_probe_seed(rng), expect=positive))
        ops.append(dict(call="check_invertible", space=space, F=_vanishing_weight(rng),
                        phi=_automorphism(rng), seed=_probe_seed(rng), expect="zeros_inside"))
        ops.append(dict(call="check_invertible", space=space, F=_linear_weight(rng),
                        phi=_two_to_one(rng), seed=_probe_seed(rng), expect="not_automorphism"))
        ops.append(dict(call="check_invertible", space=space, F=_linear_weight(rng),
                        phi=_not_onto(rng), seed=_probe_seed(rng), expect="not_automorphism"))
    return ops


def _axiom_ops(rng: random.Random) -> list:
    return [dict(call="run_all", space=space, seed=_probe_seed(rng), expect="axioms_pass")
            for space in AXIOM_SPACES]


def _golden_op(rng: random.Random, table: tuple) -> dict:
    command, space, f, value, tol = table[rng.randrange(len(table))]
    c = _in_annulus(rng, 0.5, 2.0)
    return dict(call=command, space=space, fn=_scale_spec(f, c), seed=_probe_seed(rng),
                expect="value", value=abs(c) * value, tol=abs(c) * tol)


def _cli_ops(rng: random.Random) -> list:
    ops = [_golden_op(rng, GOLDEN_NORMS), _golden_op(rng, GOLDEN_SEMINORMS)]
    ops.append(dict(call="check-invertible", space="hardy:2", F=_linear_weight(rng),
                    phi=_automorphism(rng), seed=_probe_seed(rng), expect="invertible"))
    for expect, F, phi in (
        ("zeros_inside", _vanishing_weight(rng), _automorphism(rng)),
        ("not_automorphism", _linear_weight(rng), _two_to_one(rng)),
        ("not_automorphism", _linear_weight(rng), _not_onto(rng)),
    ):
        ops.append(dict(call="check-invertible", space="bloch:1", F=F, phi=phi,
                        seed=_probe_seed(rng), expect=expect))
    ops.append(dict(call="invert", space="hardy:2", F=_linear_weight(rng),
                    phi=_automorphism(rng), seed=_probe_seed(rng), expect="invertible"))
    ops.append(dict(call="check-isometry", space="besov:2,0", F=("const", _unimodular(rng)),
                    phi=_rotation(rng), seed=_probe_seed(rng), expect="isometry"))
    ops.append(dict(call="check-isometry", space="hardy:2", F=("const", _unimodular(rng)),
                    phi=_rotation(rng), seed=_probe_seed(rng), expect="unsupported"))
    ops.append(dict(call="axioms", space="hardy:2", seed=_probe_seed(rng), expect="axioms_pass"))
    ops.append(dict(call="section", space=None, F=("const", _unimodular(rng)), phi=_rotation(rng),
                    seed=_probe_seed(rng), dim=8, expect="section"))
    return ops


_GENERATORS = {
    "isometry": _isometry_ops,
    "invertibility": _invertibility_ops,
    "axioms": _axiom_ops,
    "cli": _cli_ops,
}

# The op of each workload that runs once, untimed, before the batch to
# fill the package's caches and grow the heap: a cheap op that still
# evaluates on the full grid.  In-process it is part of set-up; a CLI
# call pays its own, so the cli workload runs it only before the
# in-process batches of a traced run.
WARMUP_INDEX = {"isometry": 7, "invertibility": 0, "axioms": 1, "cli": 2}


def generate(workload: str, seed: int) -> list:
    """The op list (one cycle) of a workload for a seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(ops: list) -> str:
    """A short hash of an op list; equal lists give equal digests."""
    text = repr([sorted(op.items()) for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(spec: tuple, wcolab):
    """The expression tree of a spec, built from the package's public classes."""
    kind = spec[0]
    if kind == "const":
        return wcolab.Const(spec[1])
    if kind == "poly":
        return wcolab.Poly(spec[1])
    if kind == "mobius":
        return wcolab.Moebius(wcolab.MoebiusMap(spec[1], spec[2]))
    if kind == "pow":
        return wcolab.Pow(build(spec[1], wcolab), spec[2])
    if kind == "recip":
        return wcolab.Recip(build(spec[1], wcolab))
    raise ValueError(f"unknown spec kind {kind!r}")


def _num(x: float) -> str:
    return repr(float(x))


def _literal(c: complex) -> str:
    sign = "-" if math.copysign(1.0, c.imag) < 0 else "+"
    return f"{_num(c.real)}{sign}{_num(abs(c.imag))}i"


def render(spec: tuple) -> str:
    """The CLI mini-language form of a spec."""
    kind = spec[0]
    if kind == "const":
        return f"const({_num(spec[1].real)},{_num(spec[1].imag)})"
    if kind == "poly":
        return "poly(" + ",".join(_literal(c) for c in spec[1]) + ")"
    if kind == "mobius":
        a, lam = spec[1], spec[2]
        return f"mobius({_num(a.real)},{_num(a.imag)},{_num(cmath.phase(lam))})"
    if kind == "pow":
        return f"pow({render(spec[1])},{_num(spec[2])})"
    if kind == "recip":
        return f"recip({render(spec[1])})"
    raise ValueError(f"unknown spec kind {kind!r}")


def cli_argv(op: dict, csv_path: str | None = None) -> list:
    """Arguments of the CLI call for a cli-workload op."""
    argv = [op["call"]]
    if op.get("space"):
        argv += ["--space", op["space"]]
    argv += ["--seed", str(op["seed"])]
    if "fn" in op:
        argv += ["--fn", render(op["fn"])]
    if "F" in op:
        argv += ["--F", render(op["F"]), "--phi", render(op["phi"])]
    if op["call"] == "section":
        argv += ["--dim", str(op["dim"])]
        if csv_path is not None:
            argv += ["--csv", csv_path]
    return argv
