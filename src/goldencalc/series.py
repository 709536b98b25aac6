"""Truncated formal power series: exact arithmetic modulo z^(order+1).

A series of order N stores exactly N+1 rational coefficients c_0..c_N
(int or Fraction).  The library builds the Golden exponential e_F(z) and
the shifted exponentials the Bernoulli layer inverts.  The ring
operations are the ones those need, the product of two series and the
reciprocal.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .fibonacci import FibTable
from .rationals import convolve, sum_of_products


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable) -> None:
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a series stores at least the z^0 coefficient")
        self.coeffs = coeffs

    @classmethod
    def one(cls, order: int) -> TruncatedSeries:
        return cls((Fraction(1),) + (Fraction(0),) * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        return self.coeffs[n]

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def _check_order(self, other: TruncatedSeries) -> None:
        if self.order != other.order:
            raise ValueError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        return TruncatedSeries(convolve(self.coeffs, other.coeffs, len(self.coeffs)))

    def inverse(self) -> TruncatedSeries:
        """Reciprocal modulo z^(order+1) by the convolution recurrence.

        O(N^2) coefficient operations; plenty at the orders used here.
        Each convolution sum is one
        :func:`~goldencalc.rationals.sum_of_products`.  The constant term
        must be nonzero.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = Fraction(1) / c0
        out = [inv0]
        for n in range(1, len(self.coeffs)):
            acc = sum_of_products(zip(self.coeffs[1 : n + 1], reversed(out)))
            out.append(-(inv0 * acc))
        return TruncatedSeries(out)

    def inverse_newton(self) -> TruncatedSeries:
        """Reciprocal by Newton doubling: y <- y (2 - a y).

        Same exact result as :meth:`inverse`, but slower at every order
        measured (order 128 on CPython 3.11, 2-core Intel Xeon: 0.6 s
        against 0.05 s for the recurrence with its pairwise-merged sums,
        ``scripts/bench_series_inverse.py``): the full products it forms
        cost more than the recurrence saves.
        Kept as a second route to cross-check :meth:`inverse`.
        """
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        size = len(self.coeffs)
        y = [1 / c0]
        while len(y) < size:
            m = min(2 * len(y), size)
            t = convolve(self.coeffs[:m], y, m)
            t = [2 - t[0]] + [-c for c in t[1:]]
            y = convolve(y, t, m)
        return TruncatedSeries(y)


def golden_exponential(order: int) -> TruncatedSeries:
    """e_F(z) truncated: the z^n coefficient is 1/F_n!."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    table = FibTable(order)
    return TruncatedSeries(
        Fraction(1, table.factorial(n)) for n in range(order + 1)
    )
