"""Fibonacci numbers, their factorials, and Fibonomial coefficients.

Conventions: F_0 = 0, F_1 = F_2 = 1, F_n = F_(n-1) + F_(n-2), and
F_0! = 1 (empty product).  Fibonomials [n, k] = F_n!/(F_(n-k)! F_k!) come
by two independent routes:

- The integer Pascal rule [n, k] = F_(k+1) [n-1, k] + F_(n-k-1) [n-1, k-1]
  builds whole rows in one pass, keeping only the previous row, with no
  division at all.  Two loops apply it.  :func:`fibonomial_rows` yields
  ints and applies the rule to every entry; every Fibonomial the library
  computes comes from these rows: the recursive number route, the
  polynomials, the H-polynomials, the Golden binomial and the Pascal-style
  recursions below.  ``verify`` and the Bernoulli layer build them once
  per degree; the Pascal-style recursions are always given the previous
  row, and the other callers build their own when given none.
  :func:`fibonomial_triangle`, which ``goldencalc fibonomial`` prints,
  applies the rule to the left half [n, 0..n/2] only and fills the right
  half by [n, k] = [n, n-k], reusing the same objects.  Its entries are
  exact decimal integers (``Decimal`` with exponent 0 under a context that
  traps every rounding), whose digit strings cost linear time at any size.
- The factorial ratio: ``FibTable.fibonomial`` divides with the exactness
  of the division asserted, so any arithmetic slip trips immediately
  instead of truncating.  It is the public reference, with
  :func:`fibonomial_row` for a whole row.  ``verify``'s
  ``fibonomial-integrality`` check proves each Pascal row equal to it
  through the ratio rule [n, k+1] F_(k+1) = [n, k] F_(n-k)
  (:func:`ratio_rule_break`), which relates neighbours within one row
  and forms no factorial, so a skewed Pascal entry still breaks it.

:class:`FibTable` and :func:`fibonomial_rows` serve the classical Bernoulli
family too: at the Lucas pair (2, 1) they give n, n! and C(n, k).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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

from .golden import PHI, PHI_CONJUGATE, SQRT5, ExactnessError, GoldenNumber


class FibTable:
    """U_0..U_limit and U_0!..U_limit! of the Lucas sequence at ``pair`` = (p, q).

    U_(n+1) = p U_n - q U_(n-1) from U_0 = 0, U_1 = 1: F_n at the default
    (1, -1), n at (2, 1) (Sagan and Savage, Integers 10, 2010).  Built once
    and never mutated; confine a table to one computation or share it read-only.
    """

    __slots__ = ("values", "factorials", "pair")

    def __init__(self, limit: int, p: int = 1, q: int = -1) -> None:
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        values = [0, 1]
        while len(values) <= limit:
            values.append(p * values[-1] - q * values[-2])
        factorials = [1]
        for k in range(1, limit + 1):
            factorials.append(factorials[-1] * values[k])
        self.values = tuple(values[: limit + 1])
        self.factorials = tuple(factorials)
        self.pair = (p, q)

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


def fibonomial_row(n: int) -> tuple[int, ...]:
    """[n, 0..n] as exact factorial ratios."""
    _require_nonnegative(n)
    table = FibTable(n)
    return tuple(table.fibonomial(n, k) for k in range(n + 1))


def ratio_rule_break(n: int, row: Sequence[int], fibs: Sequence[int]) -> int | None:
    """The first k at which ``row`` breaks the ratio rule, or None if it is [n, 0..n].

    The rule is [n, 0] = 1 and [n, k+1] F_(k+1) = [n, k] F_(n-k), with F_k
    read from ``fibs``.  By induction every row it accepts is
    F_n!/(F_(n-k)! F_k!) entry by entry, so it proves the ratio integral
    with one small-by-big product a side, and forms no factorial.  A row
    whose first wrong entry is k breaks it first at k.
    """
    if row[0] != 1:
        return 0
    for k in range(n):
        if row[k + 1] * fibs[k + 1] != row[k] * fibs[n - k]:
            return k + 1
    return None


def fibonomial_rows(table: FibTable) -> Iterator[tuple[int, ...]]:
    """Rows 0..table.limit of [n, k] = U_(k+1) [n-1, k] - q U_(n-k-1) [n-1, k-1].

    Fibonomials at the default pair, C(n, k) at (2, 1).  Lazy and keeping
    only the previous row; no entry is a factorial ratio.  The rule is
    applied to every entry, never mirrored, because it treats k and n-k
    differently: that is what ``verify``'s ``fibonomial-symmetry`` check tests.
    """
    values = table.values
    lower = [-table.pair[1] * u for u in values]  # -q U_m, so each entry costs two products
    row = (1,)
    yield row
    for n in range(1, len(values)):
        inner = (values[k + 1] * row[k] + lower[n - k - 1] * row[k - 1] for k in range(1, n))
        row = (1, *inner, 1)
        yield row


def fibonomial_triangle(max_n: int) -> Iterator[tuple[Decimal, ...]]:
    """Rows 0..max_n of [n, k] by the Pascal rule, keeping only the previous row.

    [n, k] = F_(k+1) [n-1, k] + F_(n-k-1) [n-1, k-1] for k <= n/2, from one
    FibTable; [n, k] for k > n/2 is the same object as [n, n-k].  The rule
    for the left half reads only the previous row, which is already whole.
    Entries are exact decimal integers; ``str`` of one is its digits.
    """
    _require_nonnegative(max_n)
    # integer arithmetic that never rounds: a lost digit raises instead
    exact = Context(
        prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
    )
    fibs = [Decimal(f) for f in FibTable(max_n).values]
    return _mirrored_rows(fibs, exact)


def _mirrored_rows(fibs: Sequence[Decimal], exact: Context) -> Iterator[tuple[Decimal, ...]]:
    # rows 0..len(fibs)-1, each left half by the Pascal rule under ``exact``
    add, mul = exact.add, exact.multiply
    row = (Decimal(1),)
    yield row
    for n in range(1, len(fibs)):
        inner = (
            add(mul(fibs[k + 1], row[k]), mul(fibs[n - k - 1], row[k - 1]))
            for k in range(1, n // 2 + 1)
        )
        row = mirror_row(n, (row[0], *inner))
        yield row


def mirror_row(n: int, half: tuple | list) -> tuple | list:
    """[n, 0..n] from its left half [n, 0..n//2], by [n, k] = [n, n-k].

    The right half reuses the left half's objects, and the row has the
    half's type.
    """
    return half + half[: (n + 1) // 2][::-1]


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


def fibonomial_rec_a(n: int, k: int, row: Sequence[int], ladders: PowerLadders) -> GoldenNumber:
    """(-1/phi)^k [n-1, k] + phi^(n-k) [n-1, k-1], exactly in Q(sqrt5).

    ``row`` is [n-1, 0..n-1] (say from :func:`fibonomial_rows`) and
    ``ladders`` come from :func:`golden_power_ladders` with m >= n-1; both
    may be shared across every k and n.
    """
    _require_inner(n, k)
    phi_powers, conjugate_powers = ladders
    return conjugate_powers[k] * row[k] + phi_powers[n - k] * row[k - 1]


def fibonomial_rec_b(n: int, k: int, row: Sequence[int], ladders: PowerLadders) -> GoldenNumber:
    """phi^k [n-1, k] + (-1/phi)^(n-k) [n-1, k-1], exactly in Q(sqrt5).

    Takes the same ``row`` and ``ladders`` as :func:`fibonomial_rec_a`.
    """
    _require_inner(n, k)
    phi_powers, conjugate_powers = ladders
    return phi_powers[k] * row[k] + conjugate_powers[n - k] * row[k - 1]


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")


def _require_inner(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
