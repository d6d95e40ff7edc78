"""Quick checks of the benchmark itself: `python3 perfbench/run.py --selftest`.

1. Every end-to-end and per-layer metric named in BENCHMARK.json is
   emitted, with its unit, by a one-op run of every workload.
2. The oracle accepts a real CLI envelope and rejects tampered copies: a
   wrong verdict, an Infinity literal, an envelope that breaks the
   schema, a wrong exit code, and a wrong in-process verdict.  It
   tags a bloch:1 A5 invariance defect, and a rotation defect of a
   sup-type seminorm, as known only inside the known range.
3. Two generations from the same seed give identical op lists, and
   another seed gives another list.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys

import oracle
import run
import workloads


class SelfTest:
    def __init__(self):
        self.failures = 0

    def expect(self, cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            self.failures += 1


def check_metrics(t: SelfTest, benchmark: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in benchmark["end_to_end"]},
              1: {m["name"]: m["unit"] for m in benchmark["per_layer"]}}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=benchmark["run_seconds"],
                                      trace=trace, quick=True)
            metrics, attempted, failed, correct, _ = run.run(args)
            got = {name: m["unit"] for name, m in metrics.items()}
            t.expect(got == wanted[trace], f"{workload} trace={trace}: metrics and units match BENCHMARK.json"
                     + ("" if got == wanted[trace] else
                        f" (missing {sorted(set(wanted[trace]) - set(got))}, extra {sorted(set(got) - set(wanted[trace]))},"
                        f" units {[n for n in got if n in wanted[trace] and got[n] != wanted[trace][n]]})"))
            t.expect(attempted >= 1 and correct, f"{workload} trace={trace}: {attempted} op(s) attempted, answers right")


def _cli_envelope(op: dict) -> tuple:
    import wcolab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wcolab.cli.main(workloads.cli_argv(op))
    return code, out.getvalue()


def check_oracle(t: SelfTest) -> None:
    validator = oracle.load_validator(run.SCHEMA)
    op = next(o for o in workloads.generate("cli", 1) if o["call"] == "check-invertible" and o["expect"] == "invertible")
    code, stdout = _cli_envelope(op)
    t.expect(oracle.check_cli(op, code, stdout, validator) == [], "oracle accepts a real check-invertible envelope")

    def rejects(text, exit_code, known, what):
        problems = oracle.check_cli(op, exit_code, text, validator)
        kind = [p for p in problems if oracle.is_known(p) == known]
        t.expect(bool(kind), f"oracle rejects {what}: {kind[:1]}")

    document = json.loads(stdout)
    wrong = json.loads(stdout)
    wrong["result"]["verdict"] = "NotInvertible"
    rejects(json.dumps(wrong), code, False, "a wrong verdict")
    rejects(stdout, 1, False, "a wrong exit code")
    infinite = stdout.replace(json.dumps(document["result"]["roundtrip_residual"]), "Infinity", 1)
    t.expect(infinite != stdout, "tampering put an Infinity literal in the envelope")
    rejects(infinite, code, True, "an Infinity literal")
    broken = json.loads(stdout)
    broken["result"]["unexpected"] = 1
    rejects(json.dumps(broken), code, False, "an envelope that breaks the schema")

    import wcolab as wc

    cfg = wc.default_config()
    neg = next(o for o in workloads.generate("invertibility", 1) if o["expect"] == "zeros_inside")
    w = wc.WcoSymbols(workloads.build(neg["F"], wc), workloads.build(neg["phi"], wc))
    report = wc.check_invertible(w, wc.parse_space(neg["space"]), cfg, neg["seed"])
    t.expect(oracle.check(neg, report) == [], "oracle accepts a real in-process negative")
    t.expect(oracle.check(neg, dataclasses.replace(report, verdict="Invertible")) != [],
             "oracle rejects a wrong in-process verdict")


def _axiom_reports(defect: float, stability_witness: bool = False) -> list:
    """A run_all result for bloch:1 whose only flaw is in A5."""
    witnesses = [{"a": 0.5, "invariance_defect": defect}] if defect > oracle.INVARIANCE_DEFECT_TOL else []
    if stability_witness:
        witnesses.append({"a": 0.5, "bound": 9.0, "refined": 1.0})
    measured = {3: {"slack": 0.1}, 4: {"a=0.5": {"seminorm_invariance_defect": defect}}, 5: {"increment_defect": 0.0}}
    return [{"axiom": f"A{k + 1}", "passed": k != 4 or not witnesses, "measured": measured.get(k, {}),
             "witnesses": witnesses if k == 4 else []} for k in range(6)]


def check_known_defect_range(t: SelfTest) -> None:
    op = {"call": "run_all", "space": "bloch:1", "seed": 1, "expect": "axioms_pass"}
    t.expect(oracle.check(op, _axiom_reports(1e-9)) == [], "oracle accepts a clean bloch:1 axiom report")
    problems = oracle.check(op, _axiom_reports(5e-3))
    t.expect(bool(problems) and all(oracle.is_known(p) for p in problems),
             f"oracle tags an A5 invariance defect of 5e-3 as known: {problems[:1]}")
    for what, reports in (("an A5 invariance defect of 0.5", _axiom_reports(0.5)),
                          ("an A5 stability failure", _axiom_reports(0.0, stability_witness=True)),
                          ("a known defect beside a stability failure", _axiom_reports(5e-3, stability_witness=True))):
        unknown = [p for p in oracle.check(op, reports) if not oracle.is_known(p)]
        t.expect(bool(unknown), f"oracle rejects {what}: {unknown[:1]}")

    rotation = next(o for o in workloads.generate("isometry", 1) if o["expect"] == "isometry")
    report = {"surjective_isometry": True, "F_is_unimodular_constant": True, "phi_is_rotation": True,
              "phi_origin_value": 0j}
    for space, defect, known in (("bloch:1", 1e-15, None), ("bloch:1", 4e-6, True), ("logbloch:1", 6e-5, True),
                                 ("bloch:1", 0.05, False), ("besov:2,0", 4e-6, False), ("b1", 4e-6, False)):
        problems = oracle.check(dict(rotation, space=space), dict(report, measured_defect=defect))
        if known is None:
            t.expect(problems == [], f"oracle accepts a {space} rotation defect of {defect}")
        else:
            ok = bool(problems) and all(oracle.is_known(p) == known for p in problems)
            t.expect(ok, f"oracle tags a {space} rotation defect of {defect} as {'known' if known else 'a real failure'}"
                     f": {problems[:1]}")


def check_generation(t: SelfTest) -> None:
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 12345):
            a, b = workloads.generate(workload, seed), workloads.generate(workload, seed)
            t.expect(a == b and workloads.digest(a) == workloads.digest(b),
                     f"{workload} seed {seed}: two generations are identical ({workloads.digest(a)})")
        t.expect(workloads.generate(workload, 1) != workloads.generate(workload, 2),
                 f"{workload}: seeds 1 and 2 give different op lists")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    t = SelfTest()
    check_generation(t)
    check_oracle(t)
    check_known_defect_range(t)
    check_metrics(t, benchmark)
    print(f"selftest: {t.failures} failure(s)")
    return 1 if t.failures else 0
