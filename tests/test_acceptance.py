"""Acceptance suite: every criterion checked exactly, one line printed each.

All equality checks are exact (Fraction / integer comparisons, no
tolerances); the only numeric bounds are the stated runtime caps.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from goldencalc import (
    FibTable,
    Polynomial,
    bf_numbers_recursive,
    bf_numbers_series,
    bf_polynomial,
    bf_polynomial_genfunc,
    binet,
    classical_bernoulli_numbers,
    classical_bernoulli_polynomial,
    fibonomial_rec_a,
    fibonomial_rec_b,
    fibonomial_rows,
    golden_derivative,
    golden_derivative_dilatation,
    golden_power_ladders,
)
from goldencalc import cli
from goldencalc.verify import Counterexample, VerificationReport

F = Fraction

GOLDEN_DIR = Path(__file__).parent / "golden"

PUBLISHED_BF_NUMBERS = [F(1), F(-1), F(1, 2), F(-1, 3), F(3, 10), F(-5, 8), F(101, 39)]
PUBLISHED_CLASSICAL_NUMBERS = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]


def _report(number: int, description: str, checks):
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[acceptance] criterion {number} ({description}): {status}")
    assert not failed, f"criterion {number} failed checks: {failed[:5]}"


def test_criterion_1_published_number_list():
    start = time.perf_counter()
    series = bf_numbers_series(6)
    recursive = bf_numbers_recursive(6)
    elapsed = time.perf_counter() - start
    checks = [
        ("series generator reproduces the published list", series == PUBLISHED_BF_NUMBERS),
        ("recursive generator reproduces the published list", recursive == PUBLISHED_BF_NUMBERS),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    _report(1, "Bernoulli-Fibonacci numbers b_0..b_6", checks)


def test_criterion_2_cross_method_agreement():
    start = time.perf_counter()
    numbers_match = bf_numbers_series(64) == bf_numbers_recursive(64)
    polys_match = all(
        bf_polynomial(n) == bf_polynomial_genfunc(n) for n in range(33)
    )
    elapsed = time.perf_counter() - start
    checks = [
        ("number tables agree exactly for n <= 64", numbers_match),
        ("polynomial constructions agree exactly for n <= 32", polys_match),
        ("runtime < 60 s", elapsed < 60.0),
    ]
    _report(2, "cross-method agreement", checks)


def test_criterion_3_published_polynomials():
    numbers = bf_numbers_series(5)
    low = [
        Polynomial([F(1)]),
        Polynomial([F(-1), F(1)]),
        Polynomial([F(1, 2), F(-1), F(1)]),
    ]
    reduced = [
        Polynomial([F(-1, 3), F(1), F(-2), F(1)]),
        Polynomial([F(3, 10), F(-1), F(3), F(-3), F(1)]),
        Polynomial([F(-5, 8), F(3, 2), F(-5), F(15, 2), F(-5), F(1)]),
    ]
    checks = [
        ("B_0..B_2 match the published forms", [bf_polynomial(n) for n in range(3)] == low),
        ("B_3..B_5 in reduced rational form", [bf_polynomial(n) for n in (3, 4, 5)] == reduced),
        (
            "constant terms of B_3..B_5 equal b_3..b_5",
            all(bf_polynomial(n).coefficient(0) == numbers[n] for n in (3, 4, 5)),
        ),
    ]
    _report(3, "published polynomial forms", checks)


def test_criterion_4_identity_suite_at_32(capsys):
    fib_table = FibTable(65)
    numbers = bf_numbers_series(64)
    polys = [bf_polynomial(n, numbers) for n in range(33)]

    derivative_ok = all(
        golden_derivative(polys[n]) == polys[n - 1] * fib_table.fib(n)
        for n in range(1, 33)
    )

    def summation(n):
        acc = Polynomial()
        for l in range(n):
            acc = acc + polys[l] * fib_table.fibonomial(n, l)
        return acc

    summation_ok = all(
        summation(n) == Polynomial.monomial(n - 1, F(fib_table.fib(n)))
        for n in range(1, 33)
    )
    number_sum_ok = all(
        sum(fib_table.fibonomial(n, j) * numbers[j] for j in range(n)) == 0
        for n in range(2, 65)
    )
    value_ok = all(polys[n](F(1)) == numbers[n] for n in range(2, 33))

    from goldencalc import h_polynomial_explicit, h_polynomial_sum

    rows = tuple(fibonomial_rows(FibTable(32)))
    appendix_ok = True
    for n in range(1, 33):
        expected = polys[n] + Polynomial.monomial(n - 1, F(fib_table.fib(n)))
        explicit = h_polynomial_explicit(n, numbers, rows[n])
        if h_polynomial_sum(n) != expected or explicit != expected:
            appendix_ok = False
            break

    start = time.perf_counter()
    exit_code = cli.main(["verify", "32"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    checks = [
        ("golden derivative lowers degree (n=1..32)", derivative_ok),
        ("fibonomial summation recursion (n=1..32)", summation_ok),
        ("number sums vanish (n=2..64)", number_sum_ok),
        ("value at one equals number (n=2..32)", value_ok),
        ("appendix H forms equal B_n + F_n x^(n-1) (n=1..32)", appendix_ok),
        ("verify 32 exits 0", exit_code == 0),
        ("verify 32 runtime < 60 s", elapsed < 60.0),
    ]
    _report(4, "identity suite at N=32", checks)


def test_criterion_5_derivative_oracle_on_random_polynomials():
    rng = random.Random(0xACCE97)
    agreed = True
    for _ in range(200):
        degree = rng.randint(0, 32)
        coeffs = [
            F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for _ in range(degree + 1)
        ]
        poly = Polynomial(coeffs)
        # dilatation route raises if any sqrt5 component survives
        if golden_derivative_dilatation(poly) != golden_derivative(poly):
            agreed = False
            break
    checks = [("dilatation equals coefficient rule on 200 random polynomials", agreed)]
    _report(5, "golden-derivative oracle", checks)


def test_criterion_6_fibonomial_and_binet_properties():
    table = FibTable(256)
    integrality = all(
        F(table.factorial(n), table.factorial(n - k) * table.factorial(k)).denominator == 1
        for n in range(65)
        for k in range(n + 1)
    )
    symmetry = all(
        table.fibonomial(n, k) == table.fibonomial(n, n - k)
        for n in range(65)
        for k in range(n + 1)
    )
    rows = list(fibonomial_rows(FibTable(31)))
    ladders = golden_power_ladders(31)
    pascal = all(
        fibonomial_rec_a(n, k, rows[n - 1], ladders) == table.fibonomial(n, k)
        and fibonomial_rec_b(n, k, rows[n - 1], ladders) == table.fibonomial(n, k)
        for n in range(2, 33)
        for k in range(1, n)
    )
    binet_ok = all(binet(n) == table.fib(n) for n in range(257))
    checks = [
        ("fibonomial integrality for n <= 64", integrality),
        ("fibonomial symmetry for n <= 64", symmetry),
        ("both Pascal recursions exact in Q(sqrt5) for n <= 32", pascal),
        ("binet(n) = fib(n) for n <= 256", binet_ok),
    ]
    _report(6, "fibonomial and Binet properties", checks)


def test_criterion_7_classical_baseline():
    numbers = classical_bernoulli_numbers(32)
    polys = [classical_bernoulli_polynomial(n, numbers) for n in range(33)]
    checks = [
        ("b_0..b_6 match the published list", numbers[:7] == PUBLISHED_CLASSICAL_NUMBERS),
        ("odd numbers b_3..b_31 vanish", all(numbers[n] == 0 for n in range(3, 32, 2))),
        ("B_n(1) = b_n for 2 <= n <= 32", all(polys[n](F(1)) == numbers[n] for n in range(2, 33))),
    ]
    _report(7, "classical Bernoulli baseline", checks)


def test_criterion_8_cli_golden_files_and_exit_codes(monkeypatch, capsys):
    fixtures = {
        "numbers_fib_6.json": ["numbers", "fib", "6"],
        "poly_fib_2.json": ["poly", "fib", "2"],
        "fibonomial_7.json": ["fibonomial", "7"],
    }
    byte_identical = True
    for name, argv in fixtures.items():
        result = subprocess.run(
            [sys.executable, "-m", "goldencalc", *argv],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0 or result.stdout != (GOLDEN_DIR / name).read_bytes():
            byte_identical = False
            break

    exit_zero = cli.main(["verify", "3"]) == 0
    exit_two = cli.main(["verify", "1"]) == 2

    failing = VerificationReport(
        "synthetic-broken", 2, 2, (False,), Counterexample(2, "0", "1")
    )
    monkeypatch.setattr(cli, "verify_identities", lambda n: [failing])
    monkeypatch.setattr(cli, "core_property_reports", lambda n: [])
    exit_one = cli.main(["verify", "3"]) == 1
    out = capsys.readouterr().out
    counterexample_printed = '"lhs": "0"' in out and "synthetic-broken" in out

    checks = [
        ("three golden JSON files byte-identical", byte_identical),
        ("exit code 0 on success", exit_zero),
        ("exit code 1 on identity failure", exit_one),
        ("counterexample printed on failure", counterexample_printed),
        ("exit code 2 on usage error", exit_two),
    ]
    _report(8, "CLI golden files and exit-code contract", checks)


def test_schema_validates_golden_fixtures():
    import jsonschema

    from goldencalc.output import load_schema

    schema = load_schema()
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        jsonschema.validate(json.loads(path.read_text()), schema)
