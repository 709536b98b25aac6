"""Exact arithmetic in the quadratic field Q(sqrt5).

An element is stored as three integers (x, y, d) with value
(x + y*sqrt5)/d, d > 0 and gcd(x, y, d) = 1, so each element has exactly
one representation and equality is a tuple comparison.  The rational
components a = x/d and b = y/d are read as Fractions; "the sqrt5 part
must vanish" is the check y == 0.  Arithmetic works on the integers
directly and reduces once per result with a single gcd, instead of once
per Fraction operation.  The golden ratio phi = (1 + sqrt5)/2 and its
conjugate phi' = (1 - sqrt5)/2 = -1/phi are the two roots of x^2 - x - 1
and live here exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rationals import _excerpt, format_rational


class ExactnessError(ArithmeticError):
    """A computation that must be exact left a nonzero residue behind."""


def _reduced(x: int, y: int, d: int) -> GoldenNumber:
    """(x + y*sqrt5)/d in lowest terms; d must be nonzero."""
    if d < 0:
        x, y, d = -x, -y, -d
    g = gcd(x, y, d)
    if g != 1:
        x, y, d = x // g, y // g, d // g
    return GoldenNumber._raw(x, y, d)


class GoldenNumber:
    """Immutable element a + b*sqrt5 of Q(sqrt5) with exact rational a, b."""

    __slots__ = ("_x", "_y", "_d")

    def __init__(self, a: Fraction | int = 0, b: Fraction | int = 0) -> None:
        a, b = Fraction(a), Fraction(b)
        # d = lcm of the denominators; gcd(x, y, d) = 1 follows from a, b
        # being in lowest terms.
        d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        self._x = a.numerator * (d // a.denominator)
        self._y = b.numerator * (d // b.denominator)
        self._d = d

    @classmethod
    def _raw(cls, x: int, y: int, d: int) -> GoldenNumber:
        value = object.__new__(cls)
        value._x, value._y, value._d = x, y, d
        return value

    @classmethod
    def from_rational(cls, value: Fraction | int) -> GoldenNumber:
        return cls(value, 0)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._x, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt5."""
        return Fraction(self._y, self._d)

    def __repr__(self) -> str:
        a, b = (
            f"Fraction({format_rational(q.numerator)}, {format_rational(q.denominator)})"
            for q in (self.a, self.b)
        )
        return f"GoldenNumber({a}, {b})"

    def __str__(self) -> str:
        a, b = format_rational(self.a), format_rational(abs(self.b))
        if self._y == 0:
            return a
        if self._x == 0:
            return f"{'-' if self._y < 0 else ''}{b}*sqrt5"
        return f"{a} {'+' if self._y > 0 else '-'} {b}*sqrt5"

    def _coerce(self, other: object) -> GoldenNumber | None:
        if isinstance(other, GoldenNumber):
            return other
        if isinstance(other, int):
            return GoldenNumber._raw(other, 0, 1)
        if isinstance(other, Fraction):
            return GoldenNumber._raw(other.numerator, 0, other.denominator)
        return None

    def __eq__(self, other: object) -> bool:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        return self._x == value._x and self._y == value._y and self._d == value._d

    def __hash__(self) -> int:
        # Rational elements must hash like their Fraction value.
        if self._y == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self._x) or bool(self._y)

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber._raw(-self._x, -self._y, self._d)

    def __add__(self, other: object) -> GoldenNumber:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        d1, d2 = self._d, value._d
        if d1 == d2:
            return _reduced(self._x + value._x, self._y + value._y, d1)
        return _reduced(
            self._x * d2 + value._x * d1, self._y * d2 + value._y * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> GoldenNumber:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        return self + (-value)

    def __rsub__(self, other: object) -> GoldenNumber:
        return (-self) + other

    def __mul__(self, other: object) -> GoldenNumber:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        x1, y1, x2, y2 = self._x, self._y, value._x, value._y
        if y2 == 0:
            return _reduced(x1 * x2, y1 * x2, self._d * value._d)
        return _reduced(
            x1 * x2 + 5 * y1 * y2, x1 * y2 + y1 * x2, self._d * value._d
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GoldenNumber:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        return self * value.inverse()

    def __rtruediv__(self, other: object) -> GoldenNumber:
        value = self._coerce(other)
        if value is None:
            return NotImplemented
        return value * self.inverse()

    def __pow__(self, exponent: int) -> GoldenNumber:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GoldenNumber._raw(1, 0, 1)
        base = self
        n = exponent
        while n > 0:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> GoldenNumber:
        # 1/((x + y sqrt5)/d) = d (x - y sqrt5) / (x^2 - 5 y^2)
        n = self._x * self._x - 5 * self._y * self._y
        if n == 0:
            raise ZeroDivisionError("zero has no inverse in Q(sqrt5)")
        return _reduced(self._d * self._x, -self._d * self._y, n)

    def to_rational(self) -> Fraction:
        """Coerce to Fraction; the sqrt5 part must have cancelled exactly."""
        if self._y != 0:
            raise ExactnessError(f"sqrt5 component did not cancel: {_excerpt(str(self))}")
        return self.a


SQRT5 = GoldenNumber(0, 1)
PHI = GoldenNumber(Fraction(1, 2), Fraction(1, 2))
PHI_CONJUGATE = GoldenNumber(Fraction(1, 2), Fraction(-1, 2))
