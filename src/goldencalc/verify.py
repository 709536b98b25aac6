"""Exhaustive identity verification with structured pass/fail reports.

Each report covers one identity over a contiguous index range.  Both sides
of every check are compared as exact values; only the first counterexample
is rendered as text (index plus both unequal values), so a red run is
reproducible by hand and a green one never formats a huge number.

``verify_identities`` checks the Bernoulli layer; ``core_property_reports``
checks the Fibonacci/Golden-calculus layer underneath it.  Index bounds
scale off one degree parameter N: polynomial-level identities run to N,
number-level identities to 2N, and the Binet cross-check to 8N, so the
default N = 32 exercises degrees 32/64/256 respectively.

Shared work is built once per degree.  The Bernoulli layer draws every
identity from one :class:`~goldencalc.bernoulli.BernoulliFibTable`: one
Fibonacci table, the Pascal-rule Fibonomial rows 0..2N+1, one reciprocal
of (e_F(z) - 1)/z and both number routes over 0..2N, and B^F_0..B^F_N
with the classical numbers and polynomials over 0..N, since no identity
reads a polynomial above N.  The core layer shares one Fibonacci table
over 0..8N, its own Pascal rows 0..2N, and the power ladders
phi^0..phi^N and (-1/phi)^0..(-1/phi)^N across every Pascal-recursion
check.  Every Fibonomial either layer reads comes from its rows; the
factorial ratio, the second Fibonomial route, is met once per entry, in
``fibonomial-integrality``.

The table's polynomials come from the recursive numbers, while the series
numbers and the generating-function polynomials are read off the
reciprocal.  So ``polynomials-cross-method``,
``value-at-one-equals-number``, ``h-polynomial-two-derivations`` and
``h-polynomial-closed-form`` each set the recursive route against the
series route, as ``numbers-cross-method`` and
``constant-term-equals-number`` do number by number.  The sum rule is
checked on each route alone: ``number-sum-vanishes`` on the series
numbers, ``fibonomial-sum-recursion`` on the polynomials.  The two
derivative identities hold for any number sequence (the Appell
property), so they check the polynomial structure, not the numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .bernoulli import (
    BernoulliFibTable,
    bf_numbers_series,  # noqa: F401  (perfbench's tracer test patches it here)
    bf_polynomial_genfunc,
    h_polynomial_explicit,
    h_polynomial_sum,
)
from .fibonacci import (
    FibTable,
    binet,
    fibonomial_rows,
    fibonomial_rec_a,
    fibonomial_rec_b,
    golden_power_ladders,
)
from .golden import GoldenNumber
from .polynomials import (
    Polynomial,
    golden_binomial,
    golden_derivative,
    golden_derivative_dilatation,
    linear_combination,
)
from .rationals import format_rational, sum_of_products

RANDOM_POLY_SAMPLES = 200
RANDOM_POLY_SEED = 0x5F1B0
RANDOM_POLY_MAX_DEGREE = 32
RANDOM_POLY_COEFF_BOUND = 10**6


@dataclass(frozen=True)
class Counterexample:
    degree: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    degree_min: int
    degree_max: int
    statuses: tuple[bool, ...]
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return all(self.statuses)


def _run(
    identity: str, lo: int, hi: int, items: Iterable[tuple[int, object, object]]
) -> VerificationReport:
    statuses = []
    counterexample = None
    for index, lhs, rhs in items:
        ok = lhs == rhs
        statuses.append(ok)
        if not ok and counterexample is None:
            counterexample = Counterexample(index, _text(lhs), _text(rhs))
    return VerificationReport(identity, lo, hi, tuple(statuses), counterexample)


def _text(value: object) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def verify_identities(max_degree: int) -> list[VerificationReport]:
    """Run every Bernoulli-layer identity up to the given degree.

    Pure function of ``max_degree``; failures are reported, never raised.
    """
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    n_poly = max_degree
    n_num = 2 * max_degree

    memo = BernoulliFibTable.build(max_degree)
    fib_table = memo.table
    rows = memo.rows
    series_numbers = memo.numbers
    recursive_numbers = memo.recursive_numbers
    polys = memo.polynomials
    classical_nums = memo.classical_numbers
    classical_polys = memo.classical_polynomials

    def number_sum_items():
        for n in range(2, n_num + 1):
            total = sum_of_products(zip(rows[n][:n], series_numbers))
            yield n, total, 0

    def classical_sum_items():
        for n in range(2, n_poly + 1):
            total = sum_of_products((math.comb(n, j), classical_nums[j]) for j in range(n))
            yield n, total, 0

    return [
        _run(
            "numbers-cross-method",
            0,
            n_num,
            ((n, series_numbers[n], recursive_numbers[n]) for n in range(n_num + 1)),
        ),
        _run(
            "polynomials-cross-method",
            0,
            n_poly,
            (
                (n, polys[n], bf_polynomial_genfunc(n, memo.reciprocal, fib_table))
                for n in range(n_poly + 1)
            ),
        ),
        _run(
            "golden-derivative-lowers-degree",
            1,
            n_poly,
            (
                (n, golden_derivative(polys[n]), polys[n - 1] * fib_table.fib(n))
                for n in range(1, n_poly + 1)
            ),
        ),
        _run(
            "fibonomial-sum-recursion",
            1,
            n_poly,
            _summation_items(polys, rows, fib_table, n_poly),
        ),
        _run("number-sum-vanishes", 2, n_num, number_sum_items()),
        _run(
            "value-at-one-equals-number",
            2,
            n_poly,
            ((n, polys[n](Fraction(1)), series_numbers[n]) for n in range(2, n_poly + 1)),
        ),
        _run(
            "h-polynomial-two-derivations",
            1,
            n_poly,
            (
                (
                    n,
                    h_polynomial_sum(n, polys, row=rows[n]),
                    h_polynomial_explicit(n, series_numbers, row=rows[n]),
                )
                for n in range(1, n_poly + 1)
            ),
        ),
        _run(
            "h-polynomial-closed-form",
            1,
            n_poly,
            (
                (
                    n,
                    h_polynomial_explicit(n, series_numbers, row=rows[n]),
                    polys[n]
                    + Polynomial.monomial(n - 1, Fraction(fib_table.fib(n))),
                )
                for n in range(1, n_poly + 1)
            ),
        ),
        _run(
            "constant-term-equals-number",
            0,
            n_num,
            # F_n! r_n off the shared reciprocal, the x^0 coefficient the
            # genfunc route would give; this is how memo.numbers is read, so
            # it re-derives the series numbers of numbers-cross-method
            (
                (n, fib_table.factorial(n) * memo.reciprocal.coefficient(n), recursive_numbers[n])
                for n in range(n_num + 1)
            ),
        ),
        _run(
            "classical-odd-numbers-vanish",
            3,
            n_poly,
            ((n, classical_nums[n], 0) for n in range(3, n_poly + 1, 2)),
        ),
        _run("classical-number-sum-vanishes", 2, n_poly, classical_sum_items()),
        _run(
            "classical-value-at-one",
            2,
            n_poly,
            (
                (n, classical_polys[n](Fraction(1)), classical_nums[n])
                for n in range(2, n_poly + 1)
            ),
        ),
        _run(
            "classical-derivative-lowers-degree",
            1,
            n_poly,
            (
                (n, classical_polys[n].derivative(), classical_polys[n - 1] * n)
                for n in range(1, n_poly + 1)
            ),
        ),
    ]


def _summation_items(
    polys, rows, fib_table: FibTable, n_poly: int
) -> Iterator[tuple[int, Polynomial, Polynomial]]:
    for n in range(1, n_poly + 1):
        acc = linear_combination(zip(rows[n][:n], polys))
        yield n, acc, Polynomial.monomial(n - 1, Fraction(fib_table.fib(n)))


def core_property_reports(max_degree: int) -> list[VerificationReport]:
    """Fibonacci/Golden-calculus layer checks feeding the CLI verifier."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    n_binet = 8 * max_degree
    n_fibonomial = 2 * max_degree
    table = FibTable(n_binet)
    rows = list(islice(fibonomial_rows(table), n_fibonomial + 1))
    ladders = golden_power_ladders(max_degree)

    def binet_items():
        for n in range(n_binet + 1):
            yield n, binet(n), table.fib(n)

    def symmetry_items():
        # the Pascal rule treats k and n-k differently, so this check can fail
        for n, row in enumerate(rows):
            ok = row == row[::-1]
            yield n, "symmetric" if ok else "asymmetric", "symmetric"

    def integrality_items():
        # each int row entry against the factorial ratio: proves the ratio
        # integral and cross-checks the two Fibonomial routes
        for n, row in enumerate(rows):
            k = next((k for k in range(n + 1) if not table.is_fibonomial(n, k, row[k])), None)
            if k is None:
                yield n, "integral", "integral"
            else:
                ratio = Fraction(table.factorial(n), table.factorial(n - k) * table.factorial(k))
                yield (
                    n,
                    f"k={k}: {format_rational(row[k])}",
                    f"k={k}: F_{n}!/(F_{n - k}! F_{k}!) = {format_rational(ratio)}",
                )

    def pascal_items(rule):
        for n in range(2, max_degree + 1):
            bad = None
            for k in range(1, n):
                got = rule(n, k, ladders=ladders, row=rows[n - 1])
                want = GoldenNumber.from_rational(rows[n][k])
                if got != want:
                    bad = (k, got, want)
                    break
            if bad is None:
                yield n, "exact", "exact"
            else:
                yield n, f"k={bad[0]}: {bad[1]}", f"k={bad[0]}: {bad[2]}"

    def binomial_sign_items():
        for n, row in enumerate(rows):
            # signs only: each coefficient is the row entry it was built from
            expansion = golden_binomial(n, row)
            ok = all(term.sign == (1 if term.k % 4 in (0, 1) else -1) for term in expansion.terms)
            yield n, "signed" if ok else "mis-signed", "signed"

    def derivative_oracle_items():
        rng = random.Random(RANDOM_POLY_SEED)
        for index in range(1, RANDOM_POLY_SAMPLES + 1):
            poly = _random_rational_polynomial(rng)
            yield index, golden_derivative_dilatation(poly), golden_derivative(poly)

    return [
        _run("binet-matches-recurrence", 0, n_binet, binet_items()),
        _run("fibonomial-symmetry", 0, n_fibonomial, symmetry_items()),
        _run("fibonomial-integrality", 0, n_fibonomial, integrality_items()),
        _run("pascal-recursion-a", 2, max_degree, pascal_items(fibonomial_rec_a)),
        _run("pascal-recursion-b", 2, max_degree, pascal_items(fibonomial_rec_b)),
        _run("golden-binomial-signs", 0, n_fibonomial, binomial_sign_items()),
        _run(
            "golden-derivative-dilatation-oracle",
            1,
            RANDOM_POLY_SAMPLES,
            derivative_oracle_items(),
        ),
    ]


def _random_rational_polynomial(rng: random.Random) -> Polynomial:
    degree = rng.randint(0, RANDOM_POLY_MAX_DEGREE)
    bound = RANDOM_POLY_COEFF_BOUND
    coeffs = [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(degree + 1)
    ]
    return Polynomial(coeffs)
