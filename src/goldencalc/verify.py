"""Exhaustive identity verification with structured pass/fail reports.

Each identity is stated once, as a name, an index range and a check of n
that returns both sides; one runner, ``_run``, walks the range, so the
range a report claims is the range it checked.  Both sides are compared as
exact values; only the first counterexample is rendered as text (index
plus both unequal values), so a red run is reproducible by hand and a green
one never formats a huge number.

A report and its counterexample are named tuples, ``VerificationReport``
and ``Counterexample``: read-only records that compare, hash and print
by value, with ``passed`` computed from the statuses.

``verify_identities`` checks the Bernoulli layer; ``core_property_reports``
checks the Fibonacci/Golden-calculus layer underneath it.  Index bounds
scale off one degree parameter N: polynomial-level identities run to N,
number-level identities to 2N, and the Binet cross-check to 8N, so the
default N = 32 exercises degrees 32/64/256 respectively.

Shared work is built once per degree.  ``verify_identities`` builds one
Fibonacci table, the Pascal-rule Fibonomial rows 0..2N+1, one reciprocal
of (e_F(z) - 1)/z and both number routes over 0..2N, and B^F_0..B^F_N
with the classical rows C(n, .) (a table at ``CLASSICAL``), numbers and
polynomials over 0..N, since no identity reads a polynomial above N.  The
sum over l < n of [n, l] B^F_l and the closed form of H_n are each formed
once per n and shared, so ``h-polynomial-two-derivations`` holds whenever
``fibonomial-sum-recursion`` and ``h-polynomial-closed-form`` do.  The
core layer shares one Fibonacci table over 0..8N, its own Pascal rows
0..2N, and the power ladders phi^0..phi^N and (-1/phi)^0..(-1/phi)^N
across every Pascal-recursion check.  Every Fibonomial either layer reads
comes from its rows.  The second Fibonomial route is the ratio rule
[n, k+1] F_(k+1) = [n, k] F_(n-k) of ``fibonomial-integrality``, which
proves every row entry equal to the factorial ratio; the ratio itself is
formed only for a counterexample.

The two layers share no table, row or ladder.  So from order
2N = :data:`goldencalc.cli.FORK_MIN_ORDER` on, the CLI runs
``core_property_reports`` in a forked worker beside ``verify_identities``
(see :mod:`goldencalc.cli`): neither layer can read what the other built,
and the reports come back in the same order.

The polynomials B^F_n come from the recursive numbers, while the series
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
``_family_checks`` states the sum rule, the value at one and the lowering
derivative once, and each family runs them under its own names.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from itertools import islice

from .bernoulli import (
    CLASSICAL,
    _inverse_shifted_exponential,
    _numbers_from_reciprocal,
    bf_numbers_recursive,
    bf_numbers_series,  # noqa: F401  (perfbench's tracer test patches it here)
    bf_polynomial,
    bf_polynomial_genfunc,
    classical_bernoulli_numbers,
    classical_bernoulli_polynomial,
    h_polynomial_explicit,
)
from .fibonacci import (
    FibTable,
    binet,
    fibonomial_rows,
    fibonomial_rec_a,
    fibonomial_rec_b,
    golden_power_ladders,
    ratio_rule_break,
)
from .polynomials import (
    Polynomial,
    golden_binomial,
    golden_derivative,
    golden_derivative_dilatation,
    linear_combination,
    lucas_derivative,
)
from .rationals import format_rational, sum_of_products

RANDOM_POLY_SAMPLES = 200
RANDOM_POLY_SEED = 0x5F1B0
RANDOM_POLY_MAX_DEGREE = 32
RANDOM_POLY_COEFF_BOUND = 10**6


class Counterexample(namedtuple("Counterexample", "degree lhs rhs")):
    """The first failing index of a report and its two sides, as text."""

    __slots__ = ()


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "identity degree_min degree_max statuses counterexample",
        defaults=(None,),
    )
):
    """One identity checked over degree_min..degree_max, one status per index checked."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(self.statuses)


def _run(identity: str, lo: int, hi: int, check: Callable, step: int = 1) -> VerificationReport:
    """Compare ``check(n) = (lhs, rhs)`` for each n in ``range(lo, hi + 1, step)``."""
    if lo > hi:  # a report of no check would read as a pass
        raise ValueError(f"{identity}: empty range {lo}..{hi}")
    statuses = []
    counterexample = None
    for n in range(lo, hi + 1, step):
        lhs, rhs = check(n)
        ok = lhs == rhs
        statuses.append(ok)
        if not ok and counterexample is None:
            counterexample = Counterexample(n, _text(lhs), _text(rhs))
    return VerificationReport(identity, lo, hi, tuple(statuses), counterexample)


def _text(value: object) -> str:
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return str(value)


def verify_identities(max_degree: int) -> list[VerificationReport]:
    """Run every Bernoulli-layer identity up to the given degree.

    Pure function of ``max_degree``; failures are reported, never raised.
    """
    if max_degree < 3:
        raise ValueError("max_degree must be at least 3")
    n_poly = max_degree
    n_num = 2 * max_degree

    fib_table = FibTable(n_num + 1)
    rows = tuple(fibonomial_rows(fib_table))
    reciprocal = _inverse_shifted_exponential(n_num, fib_table.factorial)
    series_numbers = _numbers_from_reciprocal(reciprocal, fib_table.factorial)
    recursive_numbers = bf_numbers_recursive(n_num, rows)
    polys = [bf_polynomial(n, recursive_numbers, rows[n]) for n in range(n_poly + 1)]
    classical_table = FibTable(n_poly, *CLASSICAL)
    binomials = tuple(fibonomial_rows(classical_table))
    classical_nums = classical_bernoulli_numbers(n_poly)
    classical_polys = [
        classical_bernoulli_polynomial(n, classical_nums, row) for n, row in enumerate(binomials)
    ]
    sum_rule, value_at_one, lowering = _family_checks(
        rows, series_numbers, polys, fib_table.values
    )
    classical_sum_rule, classical_value_at_one, classical_lowering = _family_checks(
        binomials, classical_nums, classical_polys, classical_table.values
    )

    def fib_monomial(n):
        return Polynomial.monomial(n - 1, Fraction(fib_table.fib(n)))

    # sum over l < n of [n, l] B^F_l; plus B^F_n it is H_n, as [n, k] = [n, n-k]
    degrees = range(1, n_poly + 1)
    lower_sums = [None] + [linear_combination(zip(rows[n][:n], polys)) for n in degrees]
    h_explicits = [None] + [h_polynomial_explicit(n, series_numbers, row=rows[n]) for n in degrees]

    return [
        _run("numbers-cross-method", 0, n_num, lambda n: (series_numbers[n], recursive_numbers[n])),
        _run(
            "polynomials-cross-method",
            0,
            n_poly,
            lambda n: (polys[n], bf_polynomial_genfunc(n, reciprocal, fib_table)),
        ),
        _run("golden-derivative-lowers-degree", 1, n_poly, lowering),
        _run("fibonomial-sum-recursion", 1, n_poly, lambda n: (lower_sums[n], fib_monomial(n))),
        _run("number-sum-vanishes", 2, n_num, sum_rule),
        _run("value-at-one-equals-number", 2, n_poly, value_at_one),
        _run(
            "h-polynomial-two-derivations",
            1,
            n_poly,
            lambda n: (lower_sums[n] + polys[n], h_explicits[n]),
        ),
        _run(
            "h-polynomial-closed-form",
            1,
            n_poly,
            lambda n: (h_explicits[n], polys[n] + fib_monomial(n)),
        ),
        # series_numbers[n] is F_n! r_n, the x^0 coefficient the genfunc route would give
        _run(
            "constant-term-equals-number",
            0,
            n_num,
            lambda n: (series_numbers[n], recursive_numbers[n]),
        ),
        _run("classical-odd-numbers-vanish", 3, n_poly, lambda n: (classical_nums[n], 0), step=2),
        _run("classical-number-sum-vanishes", 2, n_poly, classical_sum_rule),
        _run("classical-value-at-one", 2, n_poly, classical_value_at_one),
        _run("classical-derivative-lowers-degree", 1, n_poly, classical_lowering),
    ]


def _family_checks(rows, numbers, polys, values) -> tuple[Callable, Callable, Callable]:
    """One family's sum rule, value at one and lowering derivative, as checks of n.

    ``rows``, ``numbers``, ``polys`` and ``values`` are its rows, b_n, B_n and U_n.
    """
    return (
        lambda n: (sum_of_products(zip(rows[n][:n], numbers)), 0),
        lambda n: (polys[n](Fraction(1)), numbers[n]),
        lambda n: (lucas_derivative(polys[n], values), polys[n - 1] * values[n]),
    )


def core_property_reports(max_degree: int) -> list[VerificationReport]:
    """Fibonacci/Golden-calculus layer checks feeding the CLI verifier."""
    import random  # only the oracle check samples, so other commands skip this import

    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    n_binet = 8 * max_degree
    n_fibonomial = 2 * max_degree
    table = FibTable(n_binet)
    rows = list(islice(fibonomial_rows(table), n_fibonomial + 1))
    ladders = golden_power_ladders(max_degree)
    rng = random.Random(RANDOM_POLY_SEED)
    oracle_polys = [_random_rational_polynomial(rng) for _ in range(RANDOM_POLY_SAMPLES)]

    def symmetry(n):
        # the Pascal rule treats k and n-k differently, so this check can fail
        return "symmetric" if rows[n] == rows[n][::-1] else "asymmetric", "symmetric"

    def integrality(n):
        # by induction the ratio rule proves each int entry equal to the
        # factorial ratio, so that ratio integral; the reference ratio is
        # taken only to show a failure
        k = ratio_rule_break(n, rows[n], table.values)
        if k is None:
            return "integral", "integral"
        return (
            f"k={k}: {format_rational(rows[n][k])}",
            f"k={k}: F_{n}!/(F_{n - k}! F_{k}!) = {format_rational(table.fibonomial(n, k))}",
        )

    def pascal(rule):
        def check(n):
            for k in range(1, n):
                got = rule(n, k, ladders=ladders, row=rows[n - 1])
                want = rows[n][k]
                if got != want:
                    return f"k={k}: {got}", f"k={k}: {format_rational(want)}"
            return "exact", "exact"

        return check

    def signs(n):
        # signs only: each magnitude is the row entry it was built from
        coefficients = golden_binomial(n, rows[n])
        ok = all((c > 0) == (k % 4 in (0, 1)) for k, c in enumerate(coefficients))
        return "signed" if ok else "mis-signed", "signed"

    def oracle(n):
        poly = oracle_polys[n - 1]
        return golden_derivative_dilatation(poly), golden_derivative(poly)

    return [
        _run("binet-matches-recurrence", 0, n_binet, lambda n: (binet(n), table.fib(n))),
        _run("fibonomial-symmetry", 0, n_fibonomial, symmetry),
        _run("fibonomial-integrality", 0, n_fibonomial, integrality),
        _run("pascal-recursion-a", 2, max_degree, pascal(fibonomial_rec_a)),
        _run("pascal-recursion-b", 2, max_degree, pascal(fibonomial_rec_b)),
        _run("golden-binomial-signs", 0, n_fibonomial, signs),
        _run("golden-derivative-dilatation-oracle", 1, RANDOM_POLY_SAMPLES, oracle),
    ]


def _random_rational_polynomial(rng) -> Polynomial:
    """A random polynomial drawn from ``rng``, a ``random.Random``."""
    degree = rng.randint(0, RANDOM_POLY_MAX_DEGREE)
    bound = RANDOM_POLY_COEFF_BOUND
    coeffs = [
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(degree + 1)
    ]
    return Polynomial(coeffs)
