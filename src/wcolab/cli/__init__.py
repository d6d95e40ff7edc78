"""Batch command-line interface.

Every invocation prints one JSON envelope {"command", "space", "inputs",
"result"} on standard output and exits 0 for a success or positive
verdict, 1 for a negative verdict, 2 when no verdict could be reached,
and 64 for unusable input.  Identical invocations produce byte-identical
output: floats are serialized in shortest round-trip decimal form and
all randomness is seeded.

Functions are written in the mini-language of `wcolab.minilang`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import traceback

from ..analytic_core import AnalyticExpr
from ..axiom_harness import run_all
from ..characterization import IsometryReport, check_invertible, check_isometry, inverse_symbols
from ..errors import NonVanishingViolation, WcolabError
from ..minilang import format_expression, parse_expression
from ..operators import DEFAULT_SEED, WcoSymbols, finite_section
from ..quadrature import GridConfig
from ..spaces import SpaceSpec, norm, parse_space, seminorm


def _exit_code(report) -> int:
    """0 for a positive verdict, 1 for a negative one and 2 for none, from an invertibility or isometry report."""
    if isinstance(report, IsometryReport):
        return 0 if report.surjective_isometry else 1
    return ("Invertible", "NotInvertible", "Inconclusive").index(report.verdict)


def _jsonify(obj):
    if isinstance(obj, AnalyticExpr):
        return format_expression(obj)
    if isinstance(obj, SpaceSpec):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return float(obj)
    return str(obj)


def _envelope(command: str, space, inputs: dict, result) -> dict:
    return {
        "command": command,
        "space": str(space) if space is not None else None,
        "inputs": _jsonify(inputs),
        "result": _jsonify(result),
    }


class _Usage(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="wcolab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
        return value

    def common(p, space_required=True):
        if space_required:
            p.add_argument("--space", required=True, help="space string, e.g. bloch:1 or hardy:2")
        p.add_argument("--seed", type=seed, default=DEFAULT_SEED, help="seed for probe families")
        p.add_argument("--ntheta", type=int, default=None, help="angular grid size (power of two)")
        p.add_argument("--nradial", type=int, default=None, help="radial node count")
        p.add_argument("--rmax", type=float, default=None, help="outermost grid radius")
        p.add_argument("--json", metavar="PATH", default=None, help="also write the envelope to a file")

    p = sub.add_parser("norm", help="norm of a function in a space")
    common(p)
    p.add_argument("--fn", required=True, help="function in the mini-language")

    p = sub.add_parser("seminorm", help="seminorm of a function in a decomposed-norm space")
    common(p)
    p.add_argument("--fn", required=True)

    for name, help_text in (
        ("check-invertible", "invertibility verdict for a weighted composition operator"),
        ("check-isometry", "surjective-isometry verdict on a decomposed-norm space"),
        ("invert", "inverse symbols of an invertible operator"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--F", required=True, help="weight symbol")
        p.add_argument("--phi", required=True, help="composition symbol")

    p = sub.add_parser("axioms", help="run the axiom suite on one space")
    common(p)

    p = sub.add_parser("section", help="finite section matrix of an operator")
    common(p, space_required=False)
    p.add_argument("--F", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--dim", type=int, default=16, help="section dimension N")
    p.add_argument("--csv", metavar="PATH", default=None, help="write the matrix as CSV re,im pairs")
    return parser


def _grid_from_args(args) -> GridConfig:
    # The default grid, with the flags given; the ladder of sup radii follows r_max.
    given = {"n_theta": args.ntheta, "n_radial": args.nradial, "r_max": args.rmax}
    return GridConfig(**{k: v for k, v in given.items() if v is not None})


def _writable(path: str) -> bool:
    directory = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else directory
    return os.path.isdir(directory) and not os.path.isdir(path) and os.access(target, os.W_OK)


def _run_section(w: WcoSymbols, args, cfg) -> tuple:
    section = finite_section(w, args.dim, cfg)
    result = {"dimension": len(section)}
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in section:
                flat = []
                for v in row:
                    flat.extend((repr(float(v.real)), repr(float(v.imag))))
                writer.writerow(flat)
        result["csv_path"] = args.csv
    else:
        result["entries"] = [
            [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in section
        ]
    return result, 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"wcolab: {exc}", file=sys.stderr)
        return 64

    # Input phase: anything rejected here is a usage error, not a crash.
    try:
        cfg = _grid_from_args(args)
        # An empty string given for a flag is parsed, and rejected, like any other.
        space = parse_space(args.space) if getattr(args, "space", None) is not None else None
        fn = parse_expression(args.fn) if getattr(args, "fn", None) is not None else None
        w = None
        if getattr(args, "F", None) is not None:
            w = WcoSymbols(parse_expression(args.F), parse_expression(args.phi))
        dim = getattr(args, "dim", None)
        if dim is not None and not 2 <= dim <= cfg.n_theta // 2:
            raise _Usage(f"--dim must lie in [2, n_theta/2 = {cfg.n_theta // 2}], got {dim}")
        # An output file that cannot be written is found before any computation.
        for flag in ("json", "csv"):
            path = getattr(args, flag, None)
            if path and not _writable(path):
                raise _Usage(f"--{flag}: cannot write {path}")
    except Exception as exc:
        # Whatever rejects the input, it is unusable input, reported on one line.
        message = str(exc) if isinstance(exc, (WcolabError, _Usage)) else f"{type(exc).__name__}: {exc}"
        print("wcolab:", " ".join(message.split()), file=sys.stderr)
        return 64

    inputs = {"seed": args.seed, "grid": cfg}
    for key in ("fn", "F", "phi"):
        value = getattr(args, key, None)
        if value is not None:
            inputs[key] = value

    try:
        if args.subcommand == "norm":
            result, code = norm(space, fn, cfg), 0
        elif args.subcommand == "seminorm":
            result, code = {"seminorm": seminorm(space, fn, cfg)}, 0
        elif args.subcommand in ("check-invertible", "check-isometry", "invert"):
            check = check_isometry if args.subcommand == "check-isometry" else check_invertible
            result = report = check(w, space, cfg, args.seed)
            code = _exit_code(report)
            if args.subcommand == "invert":
                result = {
                    "verdict": report.verdict,
                    "inverse_weight": report.inverse_weight,
                    "inverse_map": report.inverse_map,
                    "roundtrip_residual": report.roundtrip_residual,
                }
                if report.verdict == "Inconclusive":
                    # Only a fitted phi and no zero counted leave the verdict open.  The
                    # formal inverse exists unless F vanishes beyond a short r_max; then
                    # its symbols stay null, and the caveat says why.
                    with contextlib.suppress(NonVanishingViolation):
                        result["inverse_weight"], result["inverse_map"] = inverse_symbols(w, report.automorphism)
                    result["caveat"] = report.caveat
        elif args.subcommand == "axioms":
            reports = run_all(space, cfg, args.seed)
            result = list(reports)
            code = 0 if all(r.passed for r in reports) else 1
        elif args.subcommand == "section":
            result, code = _run_section(w, args, cfg)
        else:
            raise AssertionError(args.subcommand)
    except Exception as exc:
        # No verdict: a crash must not exit 1, the code of a negative one.
        if not isinstance(exc, WcolabError):
            traceback.print_exc(file=sys.stderr)
        result = {"error": type(exc).__name__, "message": str(exc)}
        code = 2

    try:
        document = json.dumps(_envelope(args.subcommand, space, inputs, result), indent=2, allow_nan=False)
    except ValueError:
        result = {"error": "NonFiniteResult", "message": "the result holds a non-finite number"}
        code = 2
        document = json.dumps(_envelope(args.subcommand, space, inputs, result), indent=2, allow_nan=False)
    document += "\n"
    sys.stdout.write(document)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(document)
    return code
