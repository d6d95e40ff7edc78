"""End-to-end command-line behavior: grammar, envelopes, exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wcolab
from wcolab import minilang
from wcolab.analytic_core import Add, Compose, Const, Moebius, MoebiusMap, Poly, Pow, Recip
from wcolab.axiom_harness import ALL_FAMILIES
from wcolab.cli import format_expression, main, parse_expression
from wcolab.errors import ParseError

SCHEMA = json.loads(
    (pathlib.Path(wcolab.__file__).parent / "schema" / "report.schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON literal {name}")


def run_checked(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    # Strict RFC 8259: no NaN or Infinity literals.
    document = json.loads(out, parse_constant=_reject_constant)
    jsonschema.validate(document, SCHEMA)
    return code, document, err


class TestExpressionGrammar:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("const(2.0,-1.0)", Const),
            ("poly(1.0,0.5i,1.0-2.0i)", Poly),
            ("mobius(0.3,0.0,1.1)", Moebius),
            ("add(poly(1.0),poly(0.0,1.0))", Add),
            ("compose(poly(0.0,0.0,1.0),mobius(0.5,0.0,0.0))", Compose),
            ("recip(poly(2.0,1.0))", Recip),
            ("pow(poly(2.0,0.5),1.5)", Pow),
        ],
    )
    def test_parse_kinds(self, text, kind):
        assert isinstance(parse_expression(text), kind)

    def test_values(self):
        e = parse_expression("poly(1.0, -0.5i, 2.0+3.0i)")
        assert e.coeffs == (1.0 + 0.0j, -0.5j, 2.0 + 3.0j)
        m = parse_expression("mobius(0.3,0.1,0.5)")
        assert m.map.a == pytest.approx(0.3 + 0.1j)
        assert m.map.lam == pytest.approx(np.exp(0.5j))

    @pytest.mark.parametrize(
        "text",
        [
            "const(2.0,-1.0)",
            "poly(1.0,0.5i,1.0-2.0i)",
            "add(poly(1.0),recip(poly(2.0,1.0)))",
            "pow(poly(2.0,0.5),1.5)",
            "compose(poly(0.0,1.0),mobius(0.3,0.0,1.1))",
        ],
    )
    def test_round_trip(self, text):
        canonical = format_expression(parse_expression(text))
        assert format_expression(parse_expression(canonical)) == canonical

    def test_whitespace_tolerated(self):
        a = parse_expression("  add( poly( 1.0 , 2.0 ) , const( 0.0 , 1.0 ) ) ")
        b = parse_expression("add(poly(1.0,2.0),const(0.0,1.0))")
        assert format_expression(a) == format_expression(b)

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_expression("poly(1.0,oops)")
        assert info.value.position == 9
        assert "position 9" in str(info.value)

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "gamma(1.0)", "poly()", "poly(1.0", "const(1.0)", "poly(1.0) trailing", "pow(poly(1.0),)"],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_expression(text)

    def test_moebius_round_trip_exact(self):
        m = Moebius(MoebiusMap(0.3 + 0.2j, np.exp(1.7j)))
        again = parse_expression(format_expression(m))
        assert again.map.a == pytest.approx(m.map.a, abs=1e-15)
        assert again.map.lam == pytest.approx(m.map.lam, abs=1e-15)


class TestNormCommands:
    def test_norm_envelope(self, capsys):
        code, doc, _ = run_checked(
            capsys, "norm", "--space", "bloch:1", "--fn", "poly(0.0,1.0)"
        )
        assert code == 0
        assert doc["command"] == "norm"
        assert doc["space"] == "bloch:1"
        assert doc["inputs"]["fn"] == "poly(0.0,1.0)"
        assert doc["result"]["total"] == pytest.approx(1.0, abs=1e-10)
        assert doc["result"]["has_a6_form"] is True

    def test_seminorm(self, capsys):
        code, doc, _ = run_checked(
            capsys, "seminorm", "--space", "b1", "--fn", "poly(5.0,1.0)"
        )
        assert code == 0
        assert doc["result"]["seminorm"] == pytest.approx(1.0, abs=1e-10)

    def test_seminorm_unsupported_space(self, capsys):
        code, doc, _ = run_checked(
            capsys, "seminorm", "--space", "hardy:2", "--fn", "poly(1.0,1.0)"
        )
        assert code == 2
        assert doc["result"]["error"] == "UnsupportedSpace"

    def test_byte_determinism(self, capsys):
        argv = ("norm", "--space", "hardy:2", "--fn", "poly(1.0,0.5i)")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_json_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        _, out, _ = run_cli(
            capsys, "norm", "--space", "hardy:2", "--fn", "poly(1.0)", "--json", str(path)
        )
        assert path.read_text() == out


class TestVerdictCommands:
    def test_invertible_exit_zero(self, capsys):
        # The second weight is tiny, yet its sections are no more singular
        # than those of poly(2.0,1.0): strict JSON holds no inf condition.
        for F, phi in (("poly(2.0,0.5)", "mobius(0.3,0.0,0.0)"), ("poly(2e-300,1e-300)", "mobius(0.5,0.0,0.0)")):
            code, doc, _ = run_checked(capsys, "check-invertible", "--space", "hardy:2", "--F", F, "--phi", phi)
            assert code == 0, F
            assert doc["result"]["verdict"] == "Invertible"
            assert doc["result"]["roundtrip_residual"] < 1e-9
            assert sorted(doc["result"]["section_conditions"]) == ["16", "32", "8"]

    @pytest.mark.parametrize("space", ["hinf", "hardy:2", "bloch:1", "bergman:2,0"])
    def test_unbounded_weight_exit_one(self, capsys, space):
        # 1/F = (1 - z)^0.5 is a multiplier, but F = (1 - z)^-0.5 is not,
        # so the operator is unbounded, let alone invertible.
        code, doc, _ = run_checked(
            capsys, "check-invertible", "--space", space, "--F", "pow(poly(1.0,-1.0),-0.5)", "--phi", "poly(0.0,1.0)"
        )
        result = doc["result"]
        assert (code, result["verdict"]) == (1, "NotInvertible")
        assert result["multiplier"]["status"] == "Yes_Exact"
        assert result["weight_multiplier"]["status"] == "No_Exact"
        assert result["caveat"] == "F is not a multiplier, so the operator is unbounded"

    def test_not_invertible_exit_one(self, capsys):
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(1.0)",
            "--phi", "poly(0.0,0.5)",
        )
        assert code == 1
        assert doc["result"]["verdict"] == "NotInvertible"

    def test_inconclusive_exit_two(self, capsys):
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "besov:2,0",
            "--F", "poly(2.0,0.5)",
            "--phi", "mobius(0.3,0.0,0.0)",
        )
        assert code == 2
        assert doc["result"]["verdict"] == "Inconclusive"
        assert doc["result"]["caveat"]

    def test_isometry_exit_codes(self, capsys):
        code, doc, _ = run_checked(
            capsys,
            "check-isometry",
            "--space", "bloch:1",
            "--F", "const(0.6216099682706644,0.7833269096274834)",
            "--phi", "mobius(0.0,0.0,2.1)",
        )
        assert code == 0
        assert doc["result"]["surjective_isometry"] is True

        code, doc, _ = run_checked(
            capsys,
            "check-isometry",
            "--space", "bloch:1",
            "--F", "const(2.0,0.0)",
            "--phi", "mobius(0.0,0.0,2.1)",
        )
        assert code == 1
        assert doc["result"]["surjective_isometry"] is False

    def test_invert_emits_symbols(self, capsys):
        code, doc, _ = run_checked(
            capsys,
            "invert",
            "--space", "hardy:2",
            "--F", "poly(2.0,0.5)",
            "--phi", "mobius(0.3,0.0,0.0)",
        )
        assert code == 0
        assert_inverse_recovers(doc["result"], "poly(2.0,0.5)", "mobius(0.3,0.0,0.0)")

    def test_invert_emits_formal_inverse_when_inconclusive(self, capsys):
        # 1/F is only tested empirically on besov:2,0, so the verdict is
        # Inconclusive; phi is an automorphism and F has no zeros, so the
        # formal inverse is printed with the caveat.
        code, doc, _ = run_checked(
            capsys,
            "invert",
            "--space", "besov:2,0",
            "--F", "poly(2.0,0.5)",
            "--phi", "mobius(0.3,0.0,0.0)",
        )
        result = doc["result"]
        assert code == 2
        assert result["verdict"] == "Inconclusive"
        assert result["inverse_weight"] == "recip(compose(poly(2.0,0.5),mobius(0.3,0.0,-0.0)))"
        assert result["roundtrip_residual"] is None
        assert result["caveat"] == "multiplier membership of 1/F is only tested empirically in this space"
        assert_inverse_recovers(result, "poly(2.0,0.5)", "mobius(0.3,0.0,0.0)")


def assert_inverse_recovers(result, F, phi):
    """G(z) * (W z^2)(psi(z)) must recover z^2, for the printed inverse symbols G and psi of W."""
    G = parse_expression(result["inverse_weight"])
    psi = parse_expression(result["inverse_map"])
    w, phi = parse_expression(F), parse_expression(phi)
    z = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
    psi_z = psi(z)
    recovered = G(z) * (w(psi_z) * phi(psi_z) ** 2)
    assert np.max(np.abs(recovered - z**2)) < 1e-10


class TestOutputContract:
    def test_failed_fit_reports_null_residual(self, capsys):
        # z -> 0.5 z^2 is two-to-one: phi'(0) = 0 leaves no candidate
        # automorphism, so the fit is rejected before a residual is measured.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "bloch:1",
            "--F", "poly(2.0,1.0)",
            "--phi", "poly(0.0,0.0,0.5)",
        )
        assert code == 1
        assert doc["result"]["verdict"] == "NotInvertible"
        assert doc["result"]["automorphism"] == {"found": False, "map": None, "residual": None}

    def test_non_finite_norm_is_an_error(self, capsys):
        with np.errstate(all="ignore"):
            code, doc, _ = run_checked(capsys, "norm", "--space", "hardy:2", "--fn", "pow(poly(3.0,1.0),1e6)")
        assert code == 2
        assert doc["result"]["error"] == "NonFiniteResult"

    def test_overflow_is_an_error_not_a_crash(self, capsys):
        # The modulus overflows to infinity in numpy, so the sup norm is
        # not finite: an error envelope, exit 2, no traceback.
        with np.errstate(all="ignore"):
            code, doc, _ = run_checked(capsys, "norm", "--space", "hinf", "--fn", "poly(1e308,1e308)")
        assert code == 2
        assert doc["result"]["error"] == "NonFiniteResult"

    def test_escaped_exception_is_an_error_not_a_crash(self, capsys, monkeypatch):
        def overflowing(*args):
            raise OverflowError("complex exponentiation")

        monkeypatch.setattr("wcolab.cli.norm", overflowing)
        code, doc, err = run_checked(capsys, "norm", "--space", "hinf", "--fn", "poly(1.0)")
        assert code == 2
        assert doc["result"]["error"] == "OverflowError"
        assert "Traceback" in err

    def test_weight_not_finite_on_the_counting_circle_is_an_error(self, capsys):
        # The peak of 1/(1 - 0.999 e^(i pi/256) z) lies between two of the 256
        # samples that validate F, but on one of the 512 of the zero count,
        # where its 110th power overflows: the count names that cause.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "pow(recip(poly(1.0,-0.9989247771373053-0.012259266747434206i)),110.0)",
            "--phi", "mobius(0.5,0.0,0.0)",
        )
        assert code == 2
        assert doc["result"]["error"] == "ContourZero"
        assert doc["result"]["message"] == "function is not finite on the circle of radius 0.999999"

    def test_partial_zero_count_is_inconclusive(self, capsys):
        # The zero of phi at 0.5 lies outside the counting circle |z| = 0.3,
        # so the count cannot reject this automorphism.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,1.0)",
            "--phi", "mobius(0.5,0.0,0.0)",
            "--rmax", "0.3",
        )
        assert code == 2
        assert doc["result"]["verdict"] == "Inconclusive"
        assert "0.3" in doc["result"]["caveat"]

    @pytest.mark.parametrize("phi", ["poly(0.1,0.2)", "poly(0.0,0.0,0.5)"], ids=["no-zero", "two-zeros"])
    def test_zero_count_rejects_on_partial_grid(self, capsys, phi):
        # An automorphism has exactly one zero a, and |phi(0)| = |a|.  Inside
        # |z| < 0.3, 0.1 + 0.2 z has no zero although |phi(0)| < 0.3, and
        # 0.5 z^2 has two: neither can be an automorphism.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,1.0)",
            "--phi", phi,
            "--rmax", "0.3",
        )
        assert code == 1
        assert doc["result"]["verdict"] == "NotInvertible"

    def test_automorphism_zero_beyond_counting_circle_is_invertible(self, capsys):
        # The zero 0.99999999 of this automorphism lies beyond |z| = R_MAX;
        # the fit reads it off phi(0) and phi'(0) all the same.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,1.0)",
            "--phi", "mobius(0.99999999,0.0,0.0)",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "Invertible"
        assert doc["result"]["automorphism"]["found"]
        assert abs(doc["result"]["automorphism"]["map"]["a"]["re"] - 0.99999999) < 1e-12

    def test_automorphism_with_zero_between_count_samples_is_invertible(self, capsys):
        # |a| = 0.99760: along |z| = R_MAX the phase of phi turns by 2 pi
        # between two samples of a 512-point winding count.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,1.0)",
            "--phi", "mobius(0.6,0.797,1.0)",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "Invertible"
        assert doc["result"]["automorphism"]["residual"] <= 1e-12

    def test_failed_fit_beyond_counting_circle_is_not_invertible(self, capsys):
        # |phi(0)| >= R_MAX, but phi is no automorphism: the only candidate
        # with its 1-jet at 0 fails the fit, wherever phi's zero lies.
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,1.0)",
            "--phi", "poly(0.9999995,1e-7)",
        )
        assert code == 1
        assert doc["result"]["verdict"] == "NotInvertible"
        assert not doc["result"]["automorphism"]["found"]


class TestAxiomsCommand:
    def test_axioms_pass(self, capsys):
        code, doc, _ = run_checked(capsys, "axioms", "--space", "hardy:2")
        assert code == 0
        assert [r["axiom"] for r in doc["result"]] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        assert all(r["passed"] for r in doc["result"])


class TestSectionCommand:
    def test_inline_entries(self, capsys):
        code, doc, _ = run_checked(
            capsys,
            "section",
            "--F", "poly(1.0)",
            "--phi", "poly(0.0,1.0)",
            "--dim", "4",
        )
        assert code == 0
        assert doc["space"] is None
        entries = doc["result"]["entries"]
        assert len(entries) == 4
        for i in range(4):
            for j in range(4):
                expected = 1.0 if i == j else 0.0
                assert entries[i][j]["re"] == pytest.approx(expected, abs=1e-12)
                assert entries[i][j]["im"] == pytest.approx(0.0, abs=1e-12)

    def test_grid_inside_the_section_circle(self, capsys):
        # A grid with a small r_max gives the same section as the default grid.
        argv = ("section", "--F", "poly(1.0)", "--phi", "poly(0.0,1.0)", "--dim", "4")
        code, doc, _ = run_checked(capsys, *argv, "--rmax", "0.6")
        assert code == 0
        assert "radius" not in doc["result"]
        _, default, _ = run_checked(capsys, *argv)
        assert doc["result"]["entries"] == default["result"]["entries"]

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "section.csv"
        code, doc, _ = run_checked(
            capsys,
            "section",
            "--F", "poly(1.0)",
            "--phi", "poly(0.0,1.0)",
            "--dim", "3",
            "--csv", str(path),
        )
        assert code == 0
        assert doc["result"]["csv_path"] == str(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 3
        first = rows[0].split(",")
        assert len(first) == 6
        assert float(first[0]) == 1.0


class TestScaleOfF:
    # M_{cF} C_phi = c M_F C_phi, so the verdict cannot depend on c != 0.
    @pytest.mark.parametrize("space", ["hardy:2", "bloch:1", "b1"])
    @pytest.mark.parametrize("phi", ["mobius(0.5,0,0)", "poly(0,0,0.5)"])
    @pytest.mark.parametrize(
        "weight",
        ["poly({two_c!r},{c!r})", "const({c!r},0.0)", "mul(const({c!r},0.0),pow(poly(1.0,-1.0),0.5))"],
        ids=["poly", "const", "sqrt"],
    )
    def test_verdict_independent_of_scale(self, capsys, space, phi, weight):
        def outcome(c):
            code, doc, _ = run_checked(
                capsys, "check-invertible", "--space", space, "--F", weight.format(c=c, two_c=2.0 * c), "--phi", phi
            )
            return code, doc["result"].get("verdict"), doc["result"].get("zero_count")

        expected = outcome(1.0)
        # On b1 the multiplier test of 1/F is empirical, so a positive verdict is Inconclusive.
        assert expected[1] in (("Inconclusive" if space == "b1" else "Invertible"), "NotInvertible")
        for c in (1e-200, 1e-20, 1e-10, 1e10, 1e20, 1e200):
            assert outcome(c) == expected, c


class TestScaleOfEmpiricalRatios:
    # ||M_{cu}|| = |c| ||M_u||: on the empirical families the probe ratios
    # of 1/(cF) are those of 1/F over |c|, with no overflow or underflow.
    @pytest.mark.parametrize("space", ["besov:2,0", "bmoa"])
    def test_ratios_scale_with_the_weight(self, capsys, space):
        def outcome(c):
            code, doc, err = run_checked(
                capsys, "check-invertible", "--space", space, "--F", f"poly({2.0 * c!r},{c!r})", "--phi", "mobius(0.5,0,0)"
            )
            result = doc["result"]
            return code, result.get("verdict"), (result.get("multiplier") or {}).get("measured_constant"), err

        code, verdict, constant, _ = outcome(1.0)
        for c in (1e-200, 1e200):
            got = outcome(c)
            assert got[0:2] == (code, verdict) and got[3] == "", c
            assert abs(got[2] - constant / c) <= 1e-14 * constant / c, c


class TestErrorPaths:
    def test_unknown_space_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--space", "nope:1", "--fn", "poly(1.0)")
        assert code == 64
        assert out == ""
        assert "wcolab:" in err

    def test_degenerate_mixed_weight_is_usage(self, capsys):
        # Every nonzero f has infinite norm on mixed:2,2,0; no verdict is given.
        code, out, err = run_cli(
            capsys,
            "check-invertible",
            "--space", "mixed:2,2,0",
            "--F", "poly(2.0,1.0)",
            "--phi", "mobius(0.5,0.0,0.0)",
        )
        assert (code, out) == (64, "")
        assert err.startswith("wcolab:") and "alpha" in err

    def test_bad_expression_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--space", "hardy:2", "--fn", "poly(")
        assert code == 64
        assert "position" in err

    def test_nesting_limit_is_usage(self, capsys):
        # One call deeper than the parser's limit is a usage error, not a
        # RecursionError; exactly the limit still parses.
        def nested(depth):
            return "recip(" * (depth - 1) + "poly(2.0,1.0)" + ")" * (depth - 1)

        code, out, err = run_cli(capsys, "norm", "--space", "hardy:2", "--fn", nested(minilang._MAX_DEPTH + 1))
        assert (code, out) == (64, "")
        assert err.startswith("wcolab:") and err.count("\n") == 1
        code, _, _ = run_checked(capsys, "norm", "--space", "hardy:2", "--fn", nested(minilang._MAX_DEPTH), "--ntheta", "64")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "", "--fn", "poly(1.0)"),
            ("norm", "--space", "hardy:2", "--fn", ""),
            ("check-invertible", "--space", "hardy:2", "--F", "", "--phi", "poly(0.0,1.0)"),
        ],
        ids=["space", "fn", "F"],
    )
    def test_empty_input_is_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (64, "")
        assert err.startswith("wcolab:") and err.count("\n") == 1

    # 2^2000 overflows and 0.5^2000 underflows, so this function is inf * 0 = NaN on the disk.
    NAN_MAP = "mul(pow(poly(2.0),2000.0),pow(poly(0.5),2000.0))"

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "hardy:2", "--fn", f"compose(poly(0.0,1.0),{NAN_MAP})"),
            ("check-invertible", "--space", "hardy:2", "--F", "poly(2.0,1.0)", "--phi", NAN_MAP),
        ],
        ids=["compose", "phi"],
    )
    def test_non_finite_self_map_is_usage(self, argv):
        # A fresh interpreter: under pytest the overflow warning is an error.
        proc = _python("-m", "wcolab.cli", *argv)
        assert (proc.returncode, proc.stdout) == (64, "")
        assert "wcolab:" in proc.stderr and "self-map" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["plain", "warnings-as-errors"])
    def test_overflow_at_input_is_one_line(self, flags):
        # numpy's overflow warnings stay inside the node rules, so even
        # with warnings turned into errors the input is rejected in one line.
        proc = _python(*flags, "-m", "wcolab.cli", "norm", "--space", "hardy:2", "--fn", f"compose(poly(0.0,1.0),{self.NAN_MAP})")
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr.startswith("wcolab:") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["plain", "warnings-as-errors"])
    @pytest.mark.parametrize("command", ["check-invertible", "invert", "check-isometry", "section"])
    def test_non_finite_weight_is_usage(self, command, flags):
        # The same NaN function as the weight F: rejected as it is read,
        # not by the zero count or the envelope's JSON check.
        space = () if command == "section" else ("--space", "hardy:2")
        proc = _python(*flags, "-m", "wcolab.cli", command, *space, "--F", self.NAN_MAP, "--phi", "mobius(0.5,0.0,0.0)")
        assert (proc.returncode, proc.stdout) == (64, "")
        assert proc.stderr.startswith("wcolab: F is not finite") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["plain", "warnings-as-errors"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "b1", "--fn", "recip(mul(const(1e-300,0.0),pow(poly(1.0,-1.0),0.5)))"),
            ("check-invertible", "--space", "b1", "--F", "mul(const(1e-300,0.0),pow(poly(1.0,-1.0),0.5))", "--phi", "mobius(0.5,0,0)"),
        ],
        ids=["norm", "check-invertible"],
    )
    def test_overflow_in_second_derivative_is_an_error(self, argv, flags):
        # f'' of 1/F overflows near z = 1: numpy's warning about it stays
        # inside the evaluation, and the envelope says the result is not finite.
        proc = _python(*flags, "-m", "wcolab.cli", *argv)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout)["result"]["error"] == "NonFiniteResult"

    def test_bad_symbol_pair_is_usage(self, capsys):
        # phi fails the self-map validation during input construction
        code, out, err = run_cli(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(1.0)",
            "--phi", "poly(0.0,2.0)",
        )
        assert code == 64
        assert out == ""

    def test_bad_grid_is_usage(self, capsys):
        code, out, err = run_cli(
            capsys, "norm", "--space", "hardy:2", "--fn", "poly(1.0)", "--ntheta", "63"
        )
        assert code == 64

    def test_missing_argument_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--space", "hardy:2")
        assert code == 64

    def test_unknown_subcommand_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 64

    @pytest.mark.parametrize(
        "argv, computes",
        [
            (("norm", "--space", "hardy:2", "--fn", "poly(1.0)", "--json"), "norm"),
            (("section", "--F", "poly(1.0)", "--phi", "poly(0.0,1.0)", "--dim", "4", "--csv"), "finite_section"),
        ],
        ids=["json", "csv"],
    )
    def test_unwritable_output_path_is_usage(self, capsys, monkeypatch, tmp_path, argv, computes):
        def computed(*args):
            raise AssertionError("computed before the input was checked")

        monkeypatch.setattr(wcolab.cli, computes, computed)
        for path in (tmp_path / "missing" / "out.txt", tmp_path):
            code, out, err = run_cli(capsys, *argv, str(path))
            assert (code, out) == (64, "")
            assert err.startswith("wcolab:") and err.count("\n") == 1

    def test_negative_seed_is_usage(self, capsys, monkeypatch):
        def computed(*args):
            raise AssertionError("computed before the input was checked")

        monkeypatch.setattr(wcolab.cli, "check_invertible", computed)
        code, out, err = run_cli(
            capsys, "check-invertible", "--space", "hardy:2", "--F", "poly(2.0,1.0)", "--phi", "poly(0.0,1.0)", "--seed", "-1"
        )
        assert (code, out) == (64, "")
        assert err.startswith("wcolab:") and "seed" in err

    @pytest.mark.parametrize(
        "dim, grid",
        [("0", ()), ("257", ()), ("33", ("--ntheta", "64"))],
        ids=["zero", "above-half-default-grid", "above-half-coarse-grid"],
    )
    def test_section_dimension_out_of_range_is_usage(self, capsys, monkeypatch, dim, grid):
        def computed(*args):
            raise AssertionError("computed before the input was checked")

        monkeypatch.setattr(wcolab.cli, "finite_section", computed)
        code, out, err = run_cli(
            capsys, "section", "--F", "poly(1.0)", "--phi", "poly(0.0,1.0)", "--dim", dim, *grid
        )
        assert (code, out) == (64, "")
        assert err.startswith("wcolab:") and err.count("\n") == 1 and "--dim" in err


_NUMBERS = st.floats(-3.0, 3.0, allow_nan=False).map(repr)
_SMALL = st.floats(-0.45, 0.45).map(repr)
# Self-maps of the disk, so that more symbol pairs pass their validation.
_MAPS = st.recursive(
    st.one_of(st.builds("mobius({},{},{})".format, _SMALL, _SMALL, _NUMBERS), st.builds("poly({},{})".format, _SMALL, _SMALL)),
    lambda inner: st.builds("compose({},{})".format, inner, inner),
    max_leaves=3,
)
# Leaves without zeros in the disk keep most reciprocals and powers valid.
_TREES = st.recursive(
    st.one_of(
        st.builds("const({},{})".format, _NUMBERS, _NUMBERS),
        st.builds("poly({},{},{})".format, st.floats(2.0, 3.0).map(repr), _SMALL, _SMALL),
        _MAPS,
    ),
    lambda inner: st.one_of(
        st.builds("{}({},{})".format, st.sampled_from(["add", "mul"]), inner, inner),
        st.builds("compose({},{})".format, inner, _MAPS),
        inner.map("recip({})".format),
        st.builds("pow({},{})".format, inner, _NUMBERS),
    ),
    max_leaves=6,
)


def _chain(node: str, depth: int) -> str:
    # node(node(...node(leaf)...)): depth calls in all.
    tail = {"recip": ")", "pow": ",1.5)", "add": ",poly(0.5))"}[node]
    return f"{node}(" * (depth - 1) + "poly(2.0,1.0)" + tail * (depth - 1)


@st.composite
def _mutated(draw, texts):
    # A valid text with one character deleted, replaced or inserted, or cut short.
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from("(),.+-ei0159acdmopxz "))
    return draw(st.sampled_from([text[:i] + text[i + 1 :], text[:i] + ch + text[i + 1 :], text[:i] + ch + text[i:], text[:i]]))


# Text that often fails to parse or to validate.
_BROKEN = st.one_of(
    _mutated(_TREES),
    st.builds(_chain, st.sampled_from(["recip", "pow", "add"]), st.integers(-2, 2).map(minilang._MAX_DEPTH.__add__) | st.just(1000)),
    _TREES,
)
_SPACES = st.sampled_from(ALL_FAMILIES + ("mixed:2,inf,0.5", "bloch:1.5", "besov:2,-0.5"))
_BROKEN_SPACES = st.sampled_from(("nope:1", "bergman:2,-1", "hardy", "")) | st.text("abcdeghilmnoprsty:,.0123456789-", max_size=12)
_COARSE = ("--ntheta", "64", "--nradial", "4")


@st.composite
def _argv(draw):
    # A subcommand with valid inputs, one of which may be swapped for broken text.
    command = draw(st.sampled_from(["norm", "seminorm", "check-invertible", "check-isometry", "invert", "axioms", "section"]))
    inputs = {"--space": draw(_SPACES)} if command != "section" else {}
    if command in ("norm", "seminorm"):
        inputs["--fn"] = draw(_TREES)
    elif command != "axioms":
        inputs["--F"], inputs["--phi"] = draw(_TREES), draw(_MAPS)
    broken = draw(st.sampled_from([None, *inputs]))
    if broken is not None:
        inputs[broken] = draw(_BROKEN_SPACES if broken == "--space" else _BROKEN)
    return [command, *(x for item in inputs.items() for x in item), *_COARSE]


class TestCliContract:
    # Any mini-language text, space and subcommand: the exit code says
    # what happened, and the output is what the code promises.

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv())
    # A plain process overflows Python's recursion limit at 1000 nested
    # calls; hypothesis lifts that limit while it runs, hence the deeper twin.
    @example(argv=["norm", "--space", "hardy:2", "--fn", "add(" * 1000 + "const(1.0,0.0)" + ",const(1.0,0.0))" * 1000, *_COARSE])
    @example(argv=["norm", "--space", "hardy:2", "--fn", "recip(" * 10000 + "poly(2.0,1.0)" + ")" * 10000, *_COARSE])
    def test_exit_code_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        # As in a plain CLI process, no filter turns a warning into an error.
        with warnings.catch_warnings():
            warnings.resetwarnings()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 64)
        if code == 64:
            assert out == ""
            assert err.startswith("wcolab:") and err.count("\n") == 1, err
        else:
            jsonschema.validate(json.loads(out, parse_constant=_reject_constant), SCHEMA)
        if code == 1:
            assert "Traceback" not in err


def _python(*args, path=()):
    # A fresh interpreter that finds this package, after the directories in path.
    src = str(pathlib.Path(wcolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [*map(str, path), src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)


class TestNoScipyAtRunTime:
    # scipy is a test-only dependency: the package computes with numpy alone.

    @pytest.fixture(scope="class")
    def no_scipy(self, tmp_path_factory):
        # A scipy package whose import fails, found ahead of the real one.
        root = tmp_path_factory.mktemp("no_scipy")
        (root / "scipy").mkdir()
        (root / "scipy" / "__init__.py").write_text('raise ImportError("scipy is not available")\n')
        assert _python("-c", "import scipy", path=[root]).returncode != 0
        return root

    def test_cli_import_loads_no_scipy(self):
        proc = _python("-c", "import sys, wcolab.cli; print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "mixed:2,2,0.5", "--fn", "poly(3.0,4.0)"),
            ("seminorm", "--space", "besov:2,0", "--fn", "poly(0.0,1.0,0.5)"),
            ("check-invertible", "--space", "bloch:1", "--F", "poly(1.0,0.3)", "--phi", "poly(0.0,1.0)"),
            ("check-isometry", "--space", "bloch:1", "--F", "poly(1.0)", "--phi", "poly(0.0,-1.0)"),
            ("invert", "--space", "bergman:2,0", "--F", "poly(2.0,1.0)", "--phi", "poly(0.0,1.0)"),
            ("axioms", "--space", "hardy:2"),
            ("section", "--F", "poly(1.0,0.5)", "--phi", "poly(0.0,1.0)", "--dim", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_subcommands_run_without_scipy(self, no_scipy, argv):
        plain = _python("-m", "wcolab.cli", *argv)
        bare = _python("-m", "wcolab.cli", *argv, path=[no_scipy])
        assert (bare.returncode, bare.stdout, bare.stderr) == (plain.returncode, plain.stdout, plain.stderr)
        assert bare.returncode in (0, 1, 2)
        jsonschema.validate(json.loads(bare.stdout, parse_constant=_reject_constant), SCHEMA)
