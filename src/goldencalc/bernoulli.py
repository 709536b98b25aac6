"""Bernoulli-Fibonacci numbers and polynomials, plus the classical baseline.

Both families come from one construction.  Writing E for the exponential
of the family (e_F or e), the numbers sit in the expansion of
z/(E(z) - 1) and the polynomials in z*E(zx)/(E(z) - 1).  The division is
realized as multiplication by the inverse of (E(z) - 1)/z, whose constant
term is 1, so nothing ever divides by z in the series ring.

Three independent routes are provided for the Fibonacci family: series
inversion for the numbers, the Fibonomial-sum recursion for the numbers,
and the generating-function extraction for the polynomials.  They are
cross-checked in :mod:`goldencalc.verify`, which builds each of them once
per degree.  The recursive routes never touch a series, and the
generating-function route never reads a number.  The series route never
reads a Fibonomial.  Everything that needs a Fibonomial reads whole rows
of the integer Pascal rule (:func:`~goldencalc.fibonacci.fibonomial_rows`):
the recursive number route, the polynomials and the H-polynomials.

Each route is one private function that takes every input it reads: the
sum-rule numbers take the rows (``_sum_rule_numbers``), the Appell sum
over j of row[j] b_j x^(n-j) takes the row and the numbers (``_appell``),
and the generating-function route takes the reciprocal and the table it
reads its family's U_n! from (``_genfunc``).  H_n is the Appell sum with
b_1 taken as 0.  :mod:`goldencalc.verify` calls these routes on inputs it
builds once per family.  The public functions take only a size and build
the inputs from one table at the family's Lucas pair, the polynomials
from its Pascal rows and the sum-rule numbers read from them.  So
:func:`bf_polynomial` never inverts a series, and comparing it with
:func:`bf_polynomial_genfunc` compares two routes at any n.

The classical family is the same construction with C(n, .) and n! in
place of [n, .] and F_n!, from one table at its Lucas pair :data:`CLASSICAL`.
Each ``bf_*`` function and its ``classical_*`` twin differ only in the pair.

The two number routes share no data, and the CLI makes that physical:
from order :data:`goldencalc.cli.FORK_MIN_ORDER` on,
``numbers fib N --method both`` runs the series route in a forked worker
(see :mod:`goldencalc.cli`), where it cannot read anything the recursive
route built.  Inside :func:`~goldencalc.verify.verify_identities` both
routes still run in one process.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import islice

from .fibonacci import FibTable, fibonomial_rows
from .polynomials import Polynomial, linear_combination
from .rationals import sum_of_products
from .series import TruncatedSeries

FIBONACCI = (1, -1)  # U_n = F_n, rows [n, k]
CLASSICAL = (2, 1)  # U_n = n, U_n! = n!, rows C(n, k)


def _inverse_shifted_exponential(order: int, factorial: Callable[[int], int]) -> TruncatedSeries:
    # (E(z) - 1)/z has z^n coefficient 1/factorial(n+1); constant term 1.
    shifted = TruncatedSeries(
        Fraction(1, factorial(n + 1)) for n in range(order + 1)
    )
    return shifted.inverse()


def _numbers_from_reciprocal(
    reciprocal: TruncatedSeries, factorial: Callable[[int], int]
) -> list[Fraction]:
    # The z^n coefficient of z/(E(z) - 1) is b_n/factorial(n).
    return [c * factorial(n) for n, c in enumerate(reciprocal.coeffs)]


def bf_numbers_series(max_n: int) -> list[Fraction]:
    """b^F_0..b^F_max_n read off the inverse of (e_F(z) - 1)/z."""
    return _series_numbers(max_n, FIBONACCI)


def _series_numbers(max_n: int, pair: tuple) -> list[Fraction]:
    # reads U_0!..U_(max_n+1)! of the family's table, and no row
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    table = FibTable(max_n + 1, *pair)
    reciprocal = _inverse_shifted_exponential(max_n, table.factorial)
    return _numbers_from_reciprocal(reciprocal, table.factorial)


def bf_numbers_recursive(max_n: int) -> list[Fraction]:
    """b^F_0..b^F_max_n from the Fibonomial sum rule.

    b^F_0 = 1; for n >= 2 the sum of [n, j] b^F_j over j < n vanishes,
    which pins down b^F_(n-1) once the earlier values are known.  Row n
    of Fibonomials comes from row n-1 by the integer Pascal rule, so no
    entry is a factorial ratio and no series is touched.
    """
    return _recursive_numbers(max_n, FIBONACCI)


def _recursive_numbers(max_n: int, pair: tuple) -> list[Fraction]:
    # reads rows 0..max_n+1 of the family's table, and no series
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    return _sum_rule_numbers(max_n, fibonomial_rows(FibTable(max_n + 1, *pair)))


def _sum_rule_numbers(max_n: int, rows: Iterable) -> list[Fraction]:
    # b_0 = 1; row n (2 <= n <= max_n + 1) of a family's rows pins down
    # b_(n-1) by sum over j < n of row[j] b_j = 0
    numbers: list[Fraction] = [Fraction(1)]
    for n, row in enumerate(islice(rows, 2, max_n + 2), 2):
        acc = sum_of_products(zip(row[: n - 1], numbers))
        numbers.append(-acc / row[n - 1])
    return numbers


def bf_polynomial(n: int) -> Polynomial:
    """B^F_n(x) = sum over j of [n, j] b^F_j x^(n-j).

    The row [n, 0..n] and the numbers come from one table's Pascal rows,
    the numbers by the sum rule of :func:`bf_numbers_recursive`.
    """
    return _sum_rule_polynomial(n, FIBONACCI)


def _sum_rule_polynomial(n: int, pair: tuple) -> Polynomial:
    # the Appell sum on rows 0..n+1 of the family's table and the sum-rule numbers they give
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows = tuple(fibonomial_rows(FibTable(n + 1, *pair)))
    return _appell(rows[n], _sum_rule_numbers(n, rows))


def _appell(row: Sequence, numbers: Sequence) -> Polynomial:
    # sum over j <= n of row[j] b_j x^(n-j), where row is [n, 0..n]
    n = len(row) - 1
    return Polynomial(row[n - i] * numbers[n - i] for i in range(n + 1))


def bf_polynomial_genfunc(n: int) -> Polynomial:
    """B^F_n(x) extracted from the z-expansion of z*e_F(zx)/(e_F(z) - 1).

    Writing r_m for the z^m coefficient of the reciprocal z/(e_F(z) - 1),
    the z^n coefficient of the product is the sum over k of
    r_(n-k) x^k/F_k!, so only that one coefficient is formed:

        B^F_n(x) = sum over k of (F_n!/F_k!) r_(n-k) x^k.

    Independent of :func:`bf_polynomial`: no Bernoulli-Fibonacci number is
    computed along the way.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = FibTable(n + 1)
    return _genfunc(n, _inverse_shifted_exponential(n, table.factorial), table)


def _genfunc(n: int, reciprocal: TruncatedSeries, table: FibTable) -> Polynomial:
    # that sum for the family of ``table`` (limit >= n), whose U_k! stand for F_k!,
    # over the r_m of its ``reciprocal`` (order >= n)
    top = table.factorial(n)
    return Polynomial(
        top // table.factorial(k) * reciprocal.coefficient(n - k) for k in range(n + 1)
    )


def bf_eval(n: int, point: Fraction | int) -> Fraction:
    """Exact value of B^F_n at an exact rational point."""
    return Fraction(bf_polynomial(n)(Fraction(point)))


def h_polynomial_sum(n: int) -> Polynomial:
    """H_n(x) as the weighted sum of lower polynomials:

        H_n(x) = sum over k of [n, k] B^F_(n-k)(x),

    equal to B^F_n(x) + F_n x^(n-1).  The row [n, 0..n] and B^F_0..B^F_n are
    built from one table's Pascal rows, as in :func:`bf_polynomial`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = tuple(fibonomial_rows(FibTable(n + 1)))
    numbers = _sum_rule_numbers(n, rows)
    polynomials = [_appell(rows[m], numbers) for m in range(n + 1)]
    return linear_combination((rows[n][k], polynomials[n - k]) for k in range(n + 1))


def h_polynomial_explicit(n: int, numbers: Sequence[Fraction], row: Sequence[int]) -> Polynomial:
    """H_n(x) in closed form: x^n + sum over j >= 2 of [n, j] b^F_j x^(n-j).

    That is :func:`bf_polynomial`'s Appell sum with b^F_1 taken as 0, over
    the same ``numbers`` and ``row``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _appell(row, (1, 0, *numbers[2 : n + 1]))


def classical_bernoulli_numbers(max_n: int) -> list[Fraction]:
    """b_0..b_max_n of the ordinary Bernoulli family (b_1 = -1/2)."""
    return _series_numbers(max_n, CLASSICAL)


def classical_bernoulli_numbers_recursive(max_n: int) -> list[Fraction]:
    """b_0..b_max_n from the binomial sum rule, without any series.

    b_0 = 1; for n >= 1 the sum of C(n+1, j) b_j over j <= n vanishes,
    which pins down b_n once the earlier values are known.  That is the
    Fibonomial sum rule of :func:`bf_numbers_recursive` on the rows C(n, .).
    """
    return _recursive_numbers(max_n, CLASSICAL)


def classical_bernoulli_polynomial(n: int) -> Polynomial:
    """B_n(x) = sum over j of C(n, j) b_j x^(n-j), as :func:`bf_polynomial` on the rows C(n, .)."""
    return _sum_rule_polynomial(n, CLASSICAL)
