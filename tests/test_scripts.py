"""Smoke tests of scripts/: each runs as a subprocess from this checkout."""

import subprocess
import sys
from pathlib import Path

from goldencalc import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def cli_output(capsys, *argv):
    assert cli.main([*argv, "--format", "latex"]) == 0
    return capsys.readouterr().out


def test_make_tables_prints_the_cli_latex(capsys):
    result = run_script("make_tables.py", "--max-number", "4", "--max-poly", "2")
    assert result.returncode == 0, result.stderr
    expected = (
        "% number table\n"
        + cli_output(capsys, "numbers", "fib", "4", "--method", "series")
        + "\n% polynomials\n"
        + "".join(cli_output(capsys, "poly", "fib", str(n)) for n in range(3))
    )
    assert result.stdout == expected


def test_bench_series_inverse_runs():
    result = run_script("bench_series_inverse.py", "--orders", "8", "16")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].split() == ["order", "recurrence", "newton", "sum-rule"]


def test_bench_startup_runs():
    result = run_script("bench_startup.py", "--runs", "1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split()[:5] == ["command", "-S", "median", "q1", "q3"]
    assert [" ".join(line.split()[:-3]) for line in lines[1:7]] == [
        "pass no",
        "pass yes",
        "stdlib floor no",
        "stdlib floor yes",
        "goldencalc.cli no",
        "goldencalc.cli yes",
    ]
    assert "goldencalc.cli" in lines[-1].split()
