"""Bernoulli-Fibonacci numbers and polynomials, plus the classical baseline.

Both families come from one construction.  Writing E for the exponential
of the family (e_F or e), the numbers sit in the expansion of
z/(E(z) - 1) and the polynomials in z*E(zx)/(E(z) - 1).  The division is
realized as multiplication by the inverse of (E(z) - 1)/z, whose constant
term is 1, so nothing ever divides by z in the series ring.

Three independent routes are provided for the Fibonacci family: series
inversion for the numbers, the Fibonomial-sum recursion for the numbers,
and the generating-function extraction for the polynomials.  They are
cross-checked in :mod:`goldencalc.verify`, which draws all of them from one
:class:`BernoulliFibTable` per degree.  The recursive routes never touch a
series, and the generating-function route never reads a number.  The
series route never reads a Fibonomial.  The table builds its polynomials
from the recursive numbers, so each identity that sets them against the
reciprocal (the generating-function route, or the numbers read off it)
compares two routes.  Everything else that needs a Fibonomial reads whole
rows of the integer Pascal rule
(:func:`~goldencalc.fibonacci.fibonomial_rows`), built once per degree on
the :class:`BernoulliFibTable`: the recursive number route, the
polynomials and the H-polynomials.  Called without a row, the polynomial
functions fall back on the factorial ratio, through
:func:`~goldencalc.fibonacci.fibonomial_row_or_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence

from .fibonacci import FibTable, fibonomial_row_or_ratio, fibonomial_rows
from .polynomials import Polynomial, linear_combination
from .rationals import sum_of_products
from .series import TruncatedSeries


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
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    table = FibTable(max_n + 1)
    reciprocal = _inverse_shifted_exponential(max_n, table.factorial)
    return _numbers_from_reciprocal(reciprocal, table.factorial)


def bf_numbers_recursive(
    max_n: int, rows: Sequence[tuple[int, ...]] | None = None
) -> list[Fraction]:
    """b^F_0..b^F_max_n from the Fibonomial sum rule.

    b^F_0 = 1; for n >= 2 the sum of [n, j] b^F_j over j < n vanishes,
    which pins down b^F_(n-1) once the earlier values are known.  Row n
    of Fibonomials comes from row n-1 by the integer Pascal rule, so no
    entry is a factorial ratio and no series is touched.  Rows 0..max_n+1
    of :func:`~goldencalc.fibonacci.fibonomial_rows` may be passed in.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if rows is None:
        rows = fibonomial_rows(FibTable(max_n + 1))
    numbers: list[Fraction] = [Fraction(1)]
    for n, row in enumerate(islice(rows, 2, max_n + 2), 2):
        acc = sum_of_products(zip(row[: n - 1], numbers))
        numbers.append(-acc / row[n - 1])
    return numbers


def bf_polynomial(
    n: int,
    numbers: Sequence[Fraction] | None = None,
    row: Sequence[int] | None = None,
) -> Polynomial:
    """B^F_n(x) = sum over j of [n, j] b^F_j x^(n-j).

    ``row`` is [n, 0..n] (say from
    :func:`~goldencalc.fibonacci.fibonomial_rows`; factorial ratios when
    missing).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    row = fibonomial_row_or_ratio(n, row)
    if numbers is None:
        numbers = bf_numbers_series(n)
    return Polynomial(row[n - i] * numbers[n - i] for i in range(n + 1))


def bf_polynomial_genfunc(
    n: int,
    reciprocal: TruncatedSeries | None = None,
    table: FibTable | None = None,
) -> Polynomial:
    """B^F_n(x) extracted from the z-expansion of z*e_F(zx)/(e_F(z) - 1).

    Writing r_m for the z^m coefficient of the reciprocal z/(e_F(z) - 1),
    the z^n coefficient of the product is the sum over k of
    r_(n-k) x^k/F_k!, so only that one coefficient is formed:

        B^F_n(x) = sum over k of (F_n!/F_k!) r_(n-k) x^k.

    Independent of :func:`bf_polynomial`: no Bernoulli-Fibonacci number is
    computed along the way.  Pass both or neither of a shared
    ``reciprocal`` (order >= n) and its ``table`` (limit >= n); when either
    is missing, both are built here.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if reciprocal is None or table is None:
        table = FibTable(n + 1)
        reciprocal = _inverse_shifted_exponential(n, table.factorial)
    top = table.factorial(n)
    return Polynomial(
        top // table.factorial(k) * reciprocal.coefficient(n - k) for k in range(n + 1)
    )


def bf_eval(n: int, point: Fraction | int) -> Fraction:
    """Exact value of B^F_n at an exact rational point."""
    return Fraction(bf_polynomial(n)(Fraction(point)))


def h_polynomial_sum(
    n: int,
    polynomials: Sequence[Polynomial] | None = None,
    row: Sequence[int] | None = None,
) -> Polynomial:
    """H_n(x) as the weighted sum of lower polynomials:

        H_n(x) = sum over k of [n, k] B^F_(n-k)(x),

    equal to B^F_n(x) + F_n x^(n-1).  ``polynomials`` (B^F_0..B^F_m with
    m >= n) and ``row`` (as in :func:`bf_polynomial`) may be shared;
    otherwise they are built here.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if polynomials is None:
        numbers = bf_numbers_series(n)
        polynomials = [bf_polynomial(m, numbers) for m in range(n + 1)]
    row = fibonomial_row_or_ratio(n, row)
    return linear_combination((row[k], polynomials[n - k]) for k in range(n + 1))


def h_polynomial_explicit(
    n: int,
    numbers: Sequence[Fraction] | None = None,
    row: Sequence[int] | None = None,
) -> Polynomial:
    """H_n(x) in closed form: x^n + sum over j >= 2 of [n, j] b^F_j x^(n-j).

    Takes the same optional ``numbers`` and ``row`` as :func:`bf_polynomial`.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    row = fibonomial_row_or_ratio(n, row)
    if numbers is None:
        numbers = bf_numbers_series(n)
    coeffs: list = [0] * (n + 1)
    coeffs[n] = Fraction(1)
    for j in range(2, n + 1):
        coeffs[n - j] = row[j] * numbers[j]
    return Polynomial(coeffs)


def classical_bernoulli_numbers(max_n: int) -> list[Fraction]:
    """b_0..b_max_n of the ordinary Bernoulli family (b_1 = -1/2)."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    reciprocal = _inverse_shifted_exponential(max_n, math.factorial)
    return _numbers_from_reciprocal(reciprocal, math.factorial)


def classical_bernoulli_numbers_recursive(max_n: int) -> list[Fraction]:
    """b_0..b_max_n from the binomial sum rule, without any series.

    b_0 = 1; for n >= 1 the sum of C(n+1, j) b_j over j <= n vanishes,
    which pins down b_n once the earlier values are known.
    """
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    numbers: list[Fraction] = [Fraction(1)]
    for n in range(1, max_n + 1):
        acc = sum_of_products((math.comb(n + 1, j), numbers[j]) for j in range(n))
        numbers.append(-acc / (n + 1))
    return numbers


def classical_bernoulli_polynomial(
    n: int, numbers: Sequence[Fraction] | None = None
) -> Polynomial:
    """B_n(x) = sum over j of C(n, j) b_j x^(n-j)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if numbers is None:
        numbers = classical_bernoulli_numbers(n)
    coeffs: list = [0] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = math.comb(n, j) * numbers[j]
    return Polynomial(coeffs)


@dataclass(frozen=True)
class BernoulliFibTable:
    """Everything one degree N = ``max_n`` shares, built once.

    The polynomials are kept to N and the numbers to 2N, the ranges of
    :func:`goldencalc.verify.verify_identities`.  ``numbers``
    b^F_0..b^F_2N are read off ``reciprocal``, the inverse of
    (e_F(z) - 1)/z; ``recursive_numbers`` come from the Fibonomial sum rule
    and never see a series.  ``polynomials`` B^F_0..B^F_N are built from
    the recursive numbers, so they share nothing with the reciprocal that
    ``numbers`` and :func:`bf_polynomial_genfunc` read.  The classical
    numbers and polynomials, to N, are kept alongside as the baseline.  ``table``
    holds F_0..F_(2N+1) and ``rows`` the Pascal-rule Fibonomial rows
    0..2N+1 that the recursive route and the polynomials read.
    """

    max_n: int
    numbers: tuple[Fraction, ...]
    polynomials: tuple[Polynomial, ...]
    recursive_numbers: tuple[Fraction, ...]
    reciprocal: TruncatedSeries
    classical_numbers: tuple[Fraction, ...]
    classical_polynomials: tuple[Polynomial, ...]
    table: FibTable = field(compare=False)
    rows: tuple[tuple[int, ...], ...] = field(compare=False)

    @classmethod
    def build(cls, max_n: int) -> BernoulliFibTable:
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        n_num = 2 * max_n
        table = FibTable(n_num + 1)
        rows = tuple(fibonomial_rows(table))
        reciprocal = _inverse_shifted_exponential(n_num, table.factorial)
        numbers = _numbers_from_reciprocal(reciprocal, table.factorial)
        recursive = bf_numbers_recursive(n_num, rows)
        polys = tuple(bf_polynomial(n, recursive, rows[n]) for n in range(max_n + 1))
        classical = classical_bernoulli_numbers(max_n)
        classical_polys = tuple(
            classical_bernoulli_polynomial(n, classical) for n in range(max_n + 1)
        )
        return cls(
            max_n,
            tuple(numbers),
            polys,
            tuple(recursive),
            reciprocal,
            tuple(classical),
            classical_polys,
            table,
            rows,
        )
