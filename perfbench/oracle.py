"""Output checks for benchmark ops.

Every op was built so that its answer is known: the verdict, the exit
code, the booleans and the numbers that must fall inside the acceptance
tolerances of tests/test_acceptance.py.  `check` compares one result
against that answer.  `check_cli` also holds a CLI envelope to the
output contract: strict RFC 8259 JSON (no NaN or Infinity literals) that
validates against src/wcolab/schema/report.schema.json.

Each problem found is a string.  Every problem makes its op a failed
op.  Two defects of the package that are known and open are tagged
"known:" and leave the run's `correct` flag alone, so that they show as
failed ops without voiding every run: a non-finite number printed as a
bare NaN or Infinity literal, and a sup-type seminorm (bloch, logbloch)
that misses its invariance under a rotation or a disk automorphism, by
less than 1e-2, because the sup behind it (refined_modulus_sup) is only
a lower bound.
Any other problem, "contract:" ones about the envelope included, says
the output is wrong.
"""

from __future__ import annotations

import csv
import dataclasses
import json

ROTATION_DEFECT_TOL = 1e-7
BMOA_ROTATION_DEFECT_TOL = 1e-3
INVOLUTION_DEFECT_MIN = 0.05
ORIGIN_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
FIT_TOL = 1e-6
INCREMENT_DEFECT_TOL = 1e-10
INVARIANCE_DEFECT_TOL = 1e-6
# Upper end of the bloch:1 invariance defects seen at the parent commit
# (5e-6 to 8e-3); a larger one is not the known defect.
KNOWN_INVARIANCE_DEFECT_MAX = 1e-2
# Rotation defects of the sup-type seminorms below this are the same
# lower-bound defect: the norm of one probe or of its rotation falls
# short of the true sup at the default grid.  Seen on bloch:1 in 3 of 61
# isometry seeds, from 8.8e-7 to 6.6e-5 (seed 1454316798: 3.8e-6, from
# probe 10 of the family).  A larger defect is a real failure.
KNOWN_ROTATION_DEFECT_MAX = 1e-2
SUP_SEMINORM_FAMILIES = frozenset({"bloch", "logbloch"})
SECTION_TOL = 1e-10
A6_FAMILIES = frozenset({"bloch", "logbloch", "bmoa", "besov", "b1"})

EXIT_CODES = {
    "isometry": 0,
    "invertible": 0,
    "inverse": 0,
    "value": 0,
    "axioms_pass": 0,
    "section": 0,
    "zeros_inside": 1,
    "not_automorphism": 1,
    "not_isometry": 1,
    "inconclusive": 2,
    "unsupported": 2,
}


def plain(obj):
    """A report object as nested dicts and lists, complex numbers kept.

    Mirrors the shape of the CLI envelope's "result", so one set of
    checks serves both the in-process and the CLI workloads.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def _cx(v) -> complex:
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return complex(v)


def _expect(problems: list, cond: bool, message: str) -> None:
    if not cond:
        problems.append(message)


def _family(space: str) -> str:
    return space.partition(":")[0]


def _check_isometry(op, r, problems):
    positive = op["expect"] == "isometry"
    _expect(problems, r["surjective_isometry"] is positive, f"surjective_isometry {r['surjective_isometry']}")
    _expect(problems, r["F_is_unimodular_constant"] is True, "F not seen as a unimodular constant")
    _expect(problems, r["phi_is_rotation"] is positive, f"phi_is_rotation {r['phi_is_rotation']}")
    defect = r["measured_defect"]
    origin = _cx(r["phi_origin_value"])
    if positive:
        tol = BMOA_ROTATION_DEFECT_TOL if op["space"] == "bmoa" else ROTATION_DEFECT_TOL
        if tol <= defect < KNOWN_ROTATION_DEFECT_MAX and _family(op["space"]) in SUP_SEMINORM_FAMILIES:
            problems.append(f"known: rotation defect {defect!r} >= {tol}")
        else:
            _expect(problems, defect < tol, f"rotation defect {defect!r} >= {tol}")
        _expect(problems, abs(origin) <= ORIGIN_TOL, f"phi(0) = {origin!r}, expected 0")
    else:
        _expect(problems, defect >= INVOLUTION_DEFECT_MIN, f"involution defect {defect!r} < {INVOLUTION_DEFECT_MIN}")
        _expect(problems, abs(origin - op["origin"]) <= ORIGIN_TOL, f"phi(0) = {origin!r}, expected {op['origin']!r}")


def _check_fit(op, fit, problems):
    _expect(problems, fit["found"] is True, "automorphism not found")
    if fit["found"] and fit["map"] is not None:
        _, a, lam = op["phi"]
        a_fit, lam_fit = _cx(fit["map"]["a"]), _cx(fit["map"]["lam"])
        _expect(problems, abs(a_fit - a) <= FIT_TOL and abs(lam_fit - lam) <= FIT_TOL,
                f"fitted map ({a_fit!r}, {lam_fit!r}) != ({a!r}, {lam!r})")


def _check_invertibility(op, r, problems):
    expect = op["expect"]
    verdict = r["verdict"]
    if expect == "invertible":
        _expect(problems, verdict == "Invertible", f"verdict {verdict}")
        _check_fit(op, r["automorphism"], problems)
        _expect(problems, r["zero_count"] == 0, f"zero_count {r['zero_count']}")
        status = (r["multiplier"] or {}).get("status")
        _expect(problems, status == "Yes_Exact", f"multiplier status {status}")
        res = r["roundtrip_residual"]
        _expect(problems, isinstance(res, float) and res < ROUNDTRIP_TOL, f"roundtrip residual {res!r}")
        conds = r["section_conditions"] or {}
        _expect(problems, sorted(int(k) for k in conds) == [8, 16, 32], "section conditions missing")
    elif expect == "inconclusive":
        _expect(problems, verdict == "Inconclusive", f"verdict {verdict}")
        _check_fit(op, r["automorphism"], problems)
        _expect(problems, r["zero_count"] == 0, f"zero_count {r['zero_count']}")
        status = (r["multiplier"] or {}).get("status")
        _expect(problems, status == "Yes_Empirical", f"multiplier status {status}")
        _expect(problems, bool(r["caveat"]), "no caveat on an inconclusive verdict")
    elif expect == "zeros_inside":
        _expect(problems, verdict == "NotInvertible", f"verdict {verdict}")
        _expect(problems, r["automorphism"]["found"] is True, "automorphism not found")
        _expect(problems, r["zero_count"] == 1, f"zero_count {r['zero_count']}")
    elif expect == "not_automorphism":
        _expect(problems, verdict == "NotInvertible", f"verdict {verdict}")
        _expect(problems, r["automorphism"]["found"] is False, "a non-automorphism was fitted")
    else:
        problems.append(f"unknown expectation {expect!r}")


def _check_inverse(op, r, problems):
    _expect(problems, r["verdict"] == "Invertible", f"verdict {r['verdict']}")
    res = r["roundtrip_residual"]
    _expect(problems, isinstance(res, float) and res < ROUNDTRIP_TOL, f"roundtrip residual {res!r}")
    _expect(problems, isinstance(r["inverse_weight"], str) and isinstance(r["inverse_map"], str),
            "inverse symbols missing")


def _known_a5_failure(op, r) -> bool:
    """A bloch:1 A5 failure that only the known invariance defect explains.

    Every witness must be an invariance defect inside the known range;
    a stability witness or a larger defect is a real failure.
    """
    return (r["axiom"] == "A5" and op["space"] == "bloch:1" and bool(r["witnesses"]) and all(
        INVARIANCE_DEFECT_TOL <= w.get("invariance_defect", -1.0) < KNOWN_INVARIANCE_DEFECT_MAX
        for w in r["witnesses"]))


def _check_axioms(op, reports, problems):
    _expect(problems, [r["axiom"] for r in reports] == ["A1", "A2", "A3", "A4", "A5", "A6"],
            "axiom reports out of order")
    for r in reports:
        _expect(problems, r["passed"] is True or _known_a5_failure(op, r), f"{r['axiom']} failed")
    if len(reports) != 6:
        return
    slack = reports[3]["measured"]["slack"]
    _expect(problems, slack >= 0.0, f"A4 slack {slack!r} < 0")
    if _family(op["space"]) in A6_FAMILIES:
        inc = reports[5]["measured"]["increment_defect"]
        _expect(problems, inc < INCREMENT_DEFECT_TOL, f"A6 increment defect {inc!r}")
    if op["space"] == "bloch:1":
        for key, block in reports[4]["measured"].items():
            d = block["seminorm_invariance_defect"]
            if d >= KNOWN_INVARIANCE_DEFECT_MAX:
                problems.append(f"A5 {key} seminorm invariance defect {d!r} >= {KNOWN_INVARIANCE_DEFECT_MAX}")
            elif d >= INVARIANCE_DEFECT_TOL:
                problems.append(f"known: A5 {key} seminorm invariance defect {d!r} >= {INVARIANCE_DEFECT_TOL}")


def _check_value(op, r, problems):
    value = r["total"] if op["call"] == "norm" else r["seminorm"]
    _expect(problems, abs(value - op["value"]) <= op["tol"],
            f"{op['call']} {value!r} != {op['value']!r} +- {op['tol']!r}")


def _section_entries(r, csv_text):
    if csv_text is None:
        return [[_cx(v) for v in row] for row in r["entries"]]
    rows = []
    for row in csv.reader(csv_text.splitlines()):
        vals = [float(x) for x in row]
        rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    return rows


def _check_section(op, r, problems, csv_text):
    n = op["dim"]
    _expect(problems, r["dimension"] == n, f"dimension {r['dimension']}")
    entries = _section_entries(r, csv_text)
    if len(entries) != n or any(len(row) != n for row in entries):
        problems.append(f"section matrix is not {n} x {n}")
        return
    # F = c and phi = lam * (0 - z) send z^k to c * (-lam)^k z^k.
    c, lam = op["F"][1], op["phi"][2]
    worst = max(abs(entries[i][k] - (c * (-lam) ** k if i == k else 0.0)) for i in range(n) for k in range(n))
    _expect(problems, worst <= SECTION_TOL, f"section entries off by {worst!r}")


def check(op: dict, result, exit_code: int | None = None, csv_text: str | None = None) -> list:
    """Problems with one op's result; an empty list means it is right.

    result is a report object, or the "result" member of a CLI envelope.
    exit_code is given for CLI ops and must match the expected verdict.
    """
    problems = []
    expect = op["expect"]
    if exit_code is not None:
        want = EXIT_CODES["inverse" if op["call"] == "invert" else expect]
        _expect(problems, exit_code == want, f"exit code {exit_code}, expected {want}")
    r = plain(result)
    try:
        if expect == "unsupported":
            _expect(problems, isinstance(r, dict) and r.get("error") == "UnsupportedSpace",
                    f"expected an UnsupportedSpace error, got {r!r:.200}")
        elif op["call"] in ("check_isometry", "check-isometry"):
            _check_isometry(op, r, problems)
        elif op["call"] == "invert":
            _check_inverse(op, r, problems)
        elif op["call"] in ("check_invertible", "check-invertible"):
            _check_invertibility(op, r, problems)
        elif op["call"] in ("run_all", "axioms"):
            _check_axioms(op, r, problems)
        elif op["call"] in ("norm", "seminorm"):
            _check_value(op, r, problems)
        elif op["call"] == "section":
            _check_section(op, r, problems, csv_text)
        else:
            problems.append(f"unknown call {op['call']!r}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed result: {type(exc).__name__}: {exc}")
    return problems


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON literal {name}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=_reject_constant)


def check_cli(op: dict, exit_code: int, stdout: str, validator, csv_text: str | None = None) -> list:
    """Problems with one CLI call: its answer and its envelope.

    validator is a jsonschema validator for the report schema.
    """
    problems = []
    try:
        strict_loads(stdout)
    except ValueError as exc:
        tag = "known" if "non-standard JSON literal" in str(exc) else "contract"
        problems.append(f"{tag}: stdout is not strict JSON: {exc}")
    try:
        document = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON at all"]
    errors = sorted(validator.iter_errors(document), key=str)
    if errors:
        problems.append(f"contract: envelope breaks the schema: {errors[0].message:.200}")
    if not isinstance(document, dict) or "result" not in document:
        return problems + ["envelope has no result"]
    want_command = op["call"]
    if document.get("command") != want_command:
        problems.append(f"command {document.get('command')!r} != {want_command!r}")
    return problems + check(op, document["result"], exit_code, csv_text)


def load_validator(schema_path):
    """A draft-07 validator for the report schema."""
    import jsonschema

    with open(schema_path) as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)


def is_known(problem: str) -> bool:
    """True for a problem caused by one of the known open defects."""
    return problem.startswith("known:")

