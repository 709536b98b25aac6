import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from goldencalc import cli
from goldencalc.bernoulli import bf_eval
from goldencalc.rationals import format_rational
from goldencalc.verify import Counterexample, VerificationReport

GOLDEN_DIR = Path(__file__).parent / "golden"

# fixture name -> CLI argv; scripts/regen_fixtures.py reads the same file
GOLDEN_INVOCATIONS = json.loads((Path(__file__).parent / "golden_invocations.json").read_text())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "goldencalc", *args],
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("fixture", sorted(GOLDEN_INVOCATIONS))
def test_golden_files_byte_identical(fixture):
    expected = (GOLDEN_DIR / fixture).read_bytes()
    result = run_cli(*GOLDEN_INVOCATIONS[fixture])
    assert result.returncode == 0
    assert result.stdout == expected


def test_every_golden_file_has_an_invocation():
    assert {path.name for path in GOLDEN_DIR.iterdir()} == set(GOLDEN_INVOCATIONS)


def test_out_flag_writes_stdout_bytes(tmp_path):
    target = tmp_path / "doc.json"
    written = run_cli("numbers", "fib", "3", "--out", str(target))
    assert written.returncode == 0
    assert written.stdout == b""
    streamed = run_cli("numbers", "fib", "3")
    assert target.read_bytes() == streamed.stdout


@pytest.mark.parametrize("fmt", ["json", "csv", "latex", "plain"])
@pytest.mark.parametrize(
    "args",
    [
        ["numbers", "fib", "4"],
        ["numbers", "classical", "4"],
        ["numbers", "fib", "4", "--method", "both"],
        ["poly", "fib", "3"],
        ["poly", "classical", "3"],
        ["eval", "fib", "4", "1/2"],
        ["fibonomial", "5"],
        ["binomial", "4"],
    ],
)
def test_every_command_renders_every_format(args, fmt, capsys):
    assert cli.main([*args, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert out.strip()


def test_numbers_row_six(capsys):
    assert cli.main(["numbers", "fib", "6", "--format", "plain"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("101/39")


def test_numbers_classical(capsys):
    assert cli.main(["numbers", "classical", "6", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("1/42")


def test_numbers_classical_both_compares_two_routes(monkeypatch, capsys):
    # A broken series route must show up as a mismatch, not be compared with itself.
    monkeypatch.setattr(cli, "classical_bernoulli_numbers", lambda n: [0] * (n + 1))
    assert cli.main(["numbers", "classical", "6", "--method", "both", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "b_6: series=0 recursive=1/42 match=NO"
    assert cli.main(["numbers", "classical", "6", "--method", "recursive", "--format", "plain"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("1/42")


def test_eval_published_values(capsys):
    assert cli.main(["eval", "fib", "6", "1", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_6^F(1) = 101/39"
    assert cli.main(["eval", "fib", "3", "0", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_3^F(0) = -1/3"
    assert cli.main(["eval", "fib", "4", "1/2", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "B_4^F(1/2) = 19/80"


def test_eval_negative_point_after_double_dash(capsys):
    # "-3/7" alone would be read as an option; after "--" it is the point
    assert cli.main(["eval", "fib", "4", "--", "-3/7"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["payload"]["value"] == format_rational(bf_eval(4, Fraction(-3, 7)))


def test_binomial_rendering(capsys):
    assert cli.main(["binomial", "2", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "(x+y)_F^2 = x^2 + xy - y^2"
    assert cli.main(["binomial", "0", "--format", "plain"]) == 0
    assert capsys.readouterr().out.strip() == "(x+y)_F^0 = 1"


def test_verify_small_bound_passes(capsys):
    assert cli.main(["verify", "2", "--format", "plain"]) == 0
    out = capsys.readouterr().out
    assert "all identities passed" in out


def test_verify_json_document(capsys):
    assert cli.main(["verify", "2"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["kind"] == "verification"
    assert document["metadata"]["all_passed"] is True


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.main(["verify", "1"]) == 2
        assert cli.main(["numbers", "fib", "-3"]) == 2
        assert cli.main(["numbers", "golden", "3"]) == 2
        assert cli.main(["eval", "fib", "3", "pi"]) == 2
        assert cli.main(["nonsense"]) == 2
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_verification_failure_is_1(self, monkeypatch, capsys):
        failing = VerificationReport(
            identity="synthetic-broken",
            degree_min=2,
            degree_max=3,
            statuses=(True, False),
            counterexample=Counterexample(3, "1/2", "1/3"),
        )
        monkeypatch.setattr(cli, "verify_identities", lambda n: [failing])
        monkeypatch.setattr(cli, "core_property_reports", lambda n: [])
        assert cli.main(["verify", "2", "--format", "plain"]) == 1
        out = capsys.readouterr().out
        assert "FAIL synthetic-broken" in out
        assert "counterexample at 3: 1/2 != 1/3" in out

    def test_internal_error_is_3(self, monkeypatch, capsys):
        def broken(max_n):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "build_fibonomial_document", broken)
        assert cli.main(["fibonomial", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "goldencalc: internal error: RuntimeError: boom\n"

    def test_success_is_0(self, capsys):
        assert cli.main(["fibonomial", "0", "--format", "plain"]) == 0
        capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
