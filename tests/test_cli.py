"""End-to-end command-line behavior: grammar, envelopes, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import wcolab
from wcolab.analytic_core import Add, Compose, Const, Moebius, MoebiusMap, Poly, Pow, Recip
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
        code, doc, _ = run_checked(
            capsys,
            "check-invertible",
            "--space", "hardy:2",
            "--F", "poly(2.0,0.5)",
            "--phi", "mobius(0.3,0.0,0.0)",
        )
        assert code == 0
        assert doc["result"]["verdict"] == "Invertible"
        assert doc["result"]["roundtrip_residual"] < 1e-9

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
        G = parse_expression(doc["result"]["inverse_weight"])
        psi = parse_expression(doc["result"]["inverse_map"])
        w = parse_expression("poly(2.0,0.5)")
        phi = parse_expression("mobius(0.3,0.0,0.0)")
        # G(z) * (W z^2)(psi(z)) must recover z^2
        z = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8)
        psi_z = psi.jet(z).f
        recovered = G.jet(z).f * (w.jet(psi_z).f * (phi.jet(psi_z).f) ** 2)
        assert np.max(np.abs(recovered - z**2)) < 1e-10


class TestOutputContract:
    def test_failed_fit_reports_null_residual(self, capsys):
        # z -> 0.5 z^2 is two-to-one: the fit is rejected by the zero count
        # before a residual is measured.
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


class TestErrorPaths:
    def test_unknown_space_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--space", "nope:1", "--fn", "poly(1.0)")
        assert code == 64
        assert out == ""
        assert "wcolab:" in err

    def test_bad_expression_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "norm", "--space", "hardy:2", "--fn", "poly(")
        assert code == 64
        assert "position" in err

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
