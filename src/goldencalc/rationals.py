"""Exact rational scalars and their canonical string form.

``fractions.Fraction`` already guarantees everything the library needs
from its universal scalar: values are always reduced, the denominator is
positive, and zero is stored as 0/1.  We only add the wire format and
its LaTeX form, which is built from the string without parsing it back.
The wire format works at any size: past Python's int->str digit limit
(``sys.get_int_max_str_digits()``) the digits come from an exact
``Decimal`` instead, and the process-wide limit is left alone.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable

ExactRational = Fraction


def format_rational(value: Fraction | int) -> str:
    """Render ``value`` as ``"p/q"`` (reduced, q > 0), or ``"p"`` if integral."""
    f = Fraction(value)
    if f.denominator == 1:
        return _digits(f.numerator)
    return f"{_digits(f.numerator)}/{_digits(f.denominator)}"


def _digits(i: int) -> str:
    try:
        return str(i)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return str(Decimal(i))


def sum_of_products(pairs: Iterable[tuple[Fraction | int, Fraction | int]]) -> Fraction:
    """Exact sum of x*y over ``pairs`` of ints and Fractions, reduced once.

    One running numerator is kept over the least common denominator seen
    so far, so a term costs one gcd and no Fraction is built until the
    end; summing Fractions one by one normalizes after every addition.
    """
    numerator, denominator = 0, 1
    for x, y in pairs:
        p = x.numerator * y.numerator
        q = x.denominator * y.denominator
        g = gcd(denominator, q)
        if g == q:
            numerator += p * (denominator // q)
        else:
            scale = q // g
            numerator = numerator * scale + p * (denominator // g)
            denominator *= scale
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p"`` or ``"p/q"`` literal; inverse of :func:`format_rational`."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not an exact rational literal: {text!r}") from exc


def latex_rational(text: str) -> str:
    """LaTeX form of a wire string: ``"-5/8"`` becomes ``-\\frac{5}{8}``, ``"3"`` stays."""
    numerator, slash, denominator = text.partition("/")
    if not slash:
        return text
    sign = "-" if numerator.startswith("-") else ""
    return f"{sign}\\frac{{{numerator.lstrip('-')}}}{{{denominator}}}"
