"""Fibonacci numbers, their factorials, and Fibonomial coefficients.

Conventions: F_0 = 0, F_1 = F_2 = 1, F_n = F_(n-1) + F_(n-2), and
F_0! = 1 (empty product).  Fibonomials [n, k] = F_n!/(F_(n-k)! F_k!) come
by two independent routes:

- The integer Pascal rule [n, k] = F_(k+1) [n-1, k] + F_(n-k-1) [n-1, k-1]
  builds whole rows in one pass, keeping only the previous row, with no
  division at all.  It is written once and serves two number types:
  :func:`fibonomial_rows` yields ints, and :func:`fibonomial_triangle`
  yields exact decimal integers (``Decimal`` with exponent 0 under a
  context that traps every rounding), whose digit strings cost linear
  time at any size.  ``verify`` and the Bernoulli layer build the int
  rows once per degree and read every Fibonomial they need from them: the
  recursive number route, the polynomials, the H-polynomials, the
  Golden binomial and the Pascal-style recursions below.
- The factorial ratio: ``FibTable.fibonomial`` divides with the exactness
  of the division asserted, so any arithmetic slip trips immediately
  instead of truncating, and ``FibTable.is_fibonomial`` tests a value
  against the ratio by one exact multiplication.  ``verify`` compares
  every Pascal row entry with the ratio once, in its
  ``fibonomial-integrality`` check; the library functions that take an
  optional row fall back on the ratio, through
  :func:`fibonomial_row_or_ratio`, when none is passed.
"""

from __future__ import annotations

import operator
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from fractions import Fraction
from typing import Callable, Iterator, Sequence, TypeVar

from .golden import PHI, PHI_CONJUGATE, SQRT5, ExactnessError, GoldenNumber


class FibTable:
    """F_0..F_limit and F_0!..F_limit!, built once and never mutated.

    Confine a table to one computation or share it read-only; either way
    there is no global state.
    """

    __slots__ = ("values", "factorials")

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        values = [0, 1]
        while len(values) <= limit:
            values.append(values[-1] + values[-2])
        factorials = [1]
        for k in range(1, limit + 1):
            factorials.append(factorials[-1] * values[k])
        self.values = tuple(values[: limit + 1])
        self.factorials = tuple(factorials)

    @property
    def limit(self) -> int:
        return len(self.values) - 1

    def fib(self, n: int) -> int:
        return self.values[n]

    def factorial(self, n: int) -> int:
        return self.factorials[n]

    def fibonomial(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("indices must be nonnegative")
        if k > n:
            raise ValueError(f"k={k} exceeds n={n}")
        quotient, remainder = divmod(
            self.factorials[n], self.factorials[n - k] * self.factorials[k]
        )
        if remainder:
            raise ExactnessError(f"inexact Fibonomial division for n={n}, k={k}")
        return quotient

    def is_fibonomial(self, n: int, k: int, value: int) -> bool:
        """Whether ``value`` is F_n!/(F_(n-k)! F_k!), by multiplying instead of dividing."""
        return value * (self.factorials[n - k] * self.factorials[k]) == self.factorials[n]

    def fibonomial_row(self, n: int) -> tuple[int, ...]:
        return tuple(self.fibonomial(n, k) for k in range(n + 1))


def fib(n: int) -> int:
    """F_n by the additive recurrence."""
    _require_nonnegative(n)
    return FibTable(n).fib(n)


def fib_factorial(n: int) -> int:
    """F_n! = F_1 * F_2 * ... * F_n, with F_0! = 1."""
    _require_nonnegative(n)
    return FibTable(n).factorial(n)


def fibonomial(n: int, k: int) -> int:
    """[n, k] as an exact factorial ratio; always an integer."""
    _require_nonnegative(n)
    return FibTable(n).fibonomial(n, k)


def fibonomial_row(n: int) -> tuple[int, ...]:
    _require_nonnegative(n)
    return FibTable(n).fibonomial_row(n)


def fibonomial_rows(table: FibTable) -> Iterator[tuple[int, ...]]:
    """Rows 0..table.limit of [n, k] as ints by the Pascal rule.

    Lazy and keeping only the previous row; no entry is a factorial ratio.
    """
    return _pascal_rows(table.values, 1, operator.add, operator.mul)


def fibonomial_triangle(max_n: int) -> Iterator[tuple[Decimal, ...]]:
    """Rows 0..max_n of [n, k] by the Pascal rule, keeping only the previous row.

    [n, k] = F_(k+1) [n-1, k] + F_(n-k-1) [n-1, k-1], from one FibTable.
    Entries are exact decimal integers; ``str`` of one is its digits.
    """
    _require_nonnegative(max_n)
    # integer arithmetic that never rounds: a lost digit raises instead
    exact = Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
    )
    fibs = [Decimal(f) for f in FibTable(max_n).values]
    return _pascal_rows(fibs, Decimal(1), exact.add, exact.multiply)


_T = TypeVar("_T")


def _pascal_rows(
    fibs: Sequence[_T], one: _T, add: Callable[[_T, _T], _T], mul: Callable[[_T, _T], _T]
) -> Iterator[tuple[_T, ...]]:
    # rows 0..len(fibs)-1, with F_k = fibs[k] and arithmetic by add/mul
    row = (one,)
    yield row
    for n in range(1, len(fibs)):
        inner = (
            add(mul(fibs[k + 1], row[k]), mul(fibs[n - k - 1], row[k - 1]))
            for k in range(1, n)
        )
        row = (one, *inner, one)
        yield row


def binet(n: int) -> Fraction:
    """F_n via (phi^n - phi'^n)/(phi - phi'), carried out in Q(sqrt5).

    The sqrt5 component of the quotient must vanish; a nonzero residue
    raises ExactnessError because it can only mean an arithmetic bug.
    """
    _require_nonnegative(n)
    return ((PHI**n - PHI_CONJUGATE**n) / SQRT5).to_rational()


# (phi^0..phi^m, (-1/phi)^0..(-1/phi)^m)
PowerLadders = tuple[tuple[GoldenNumber, ...], tuple[GoldenNumber, ...]]


def golden_power_ladders(m: int) -> PowerLadders:
    """phi^0..phi^m and (-1/phi)^0..(-1/phi)^m, by repeated multiplication.

    -1/phi is the conjugate phi' = (1 - sqrt5)/2.
    """
    _require_nonnegative(m)
    phi_powers = [GoldenNumber(1)]
    conjugate_powers = [GoldenNumber(1)]
    for _ in range(m):
        phi_powers.append(phi_powers[-1] * PHI)
        conjugate_powers.append(conjugate_powers[-1] * PHI_CONJUGATE)
    return tuple(phi_powers), tuple(conjugate_powers)


def fibonomial_row_or_ratio(n: int, row: Sequence[int] | None) -> Sequence[int]:
    """[n, 0..n]: ``row`` when it is passed, else factorial ratios from a fresh table.

    The one default of every function that takes an optional Fibonomial row.
    """
    return FibTable(n).fibonomial_row(n) if row is None else row


def fibonomial_rec_a(
    n: int, k: int, row: Sequence[int] | None = None, ladders: PowerLadders | None = None
) -> GoldenNumber:
    """(-1/phi)^k [n-1, k] + phi^(n-k) [n-1, k-1], exactly in Q(sqrt5).

    ``row`` is [n-1, 0..n-1] (say from :func:`fibonomial_rows`; factorial
    ratios when missing) and ``ladders`` come from
    :func:`golden_power_ladders` with m >= n-1; both may be shared.
    """
    row, (phi_powers, conjugate_powers) = _rec_inputs(n, k, row, ladders)
    return conjugate_powers[k] * row[k] + phi_powers[n - k] * row[k - 1]


def fibonomial_rec_b(
    n: int, k: int, row: Sequence[int] | None = None, ladders: PowerLadders | None = None
) -> GoldenNumber:
    """phi^k [n-1, k] + (-1/phi)^(n-k) [n-1, k-1], exactly in Q(sqrt5).

    Takes the same optional ``row`` and ``ladders`` as :func:`fibonomial_rec_a`.
    """
    row, (phi_powers, conjugate_powers) = _rec_inputs(n, k, row, ladders)
    return phi_powers[k] * row[k] + conjugate_powers[n - k] * row[k - 1]


def _rec_inputs(
    n: int, k: int, row: Sequence[int] | None, ladders: PowerLadders | None
) -> tuple[Sequence[int], PowerLadders]:
    _require_inner(n, k)
    if ladders is None:
        ladders = golden_power_ladders(n - 1)
    return fibonomial_row_or_ratio(n - 1, row), ladders


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def _require_inner(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
