"""Exact rational scalars and their canonical string form.

``fractions.Fraction`` already guarantees everything the library needs
from its universal scalar: values are always reduced, the denominator is
positive, and zero is stored as 0/1.  We only add the wire format and
its LaTeX form, which is built from the string without parsing it back.
The wire format works at any size in both directions: past Python's
int<->str digit limit (``sys.get_int_max_str_digits()``) the digits go
through an exact ``Decimal`` instead, and the process-wide limit is left
alone.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Iterable

# the "p" / "p/q" wire form, for literals too long for Fraction(str)
_LITERAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_EXCERPT = 20  # characters kept from each end of a long literal in an error


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
    so far, and no Fraction is built until the end; summing Fractions one
    by one normalizes after every addition.  A term whose denominator q
    already divides the running one costs a single divmod; only a term
    that must grow the denominator pays for a gcd.  In the series
    reciprocal most terms are of the first kind.
    """
    numerator, denominator = 0, 1
    for x, y in pairs:
        p = x.numerator * y.numerator
        q = x.denominator * y.denominator
        quotient, remainder = divmod(denominator, q)
        if not remainder:
            numerator += p * quotient
        else:
            g = gcd(denominator, q)
            scale = q // g
            numerator = numerator * scale + p * (denominator // g)
            denominator *= scale
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p"`` or ``"p/q"`` literal; inverse of :func:`format_rational`.

    ``Fraction`` parses the literal when it can; past the int<->str digit
    limit the digits of p and q are read exactly through ``Decimal``.  A
    rejected literal is quoted in the error by its two ends and its length.
    """
    literal = text.strip()
    try:
        try:
            return Fraction(literal)
        except ValueError:  # malformed, or more digits than the limit
            match = _LITERAL.fullmatch(literal)
            if match is None:
                raise
            numerator, denominator = match.group(1, 2)
            return Fraction(_integer(numerator), _integer(denominator or "1"))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational literal: {_excerpt(literal)}") from None


def _integer(digits: str) -> int:
    return int(Decimal(digits))  # exact at any length, unlike int(str)


def _excerpt(text: str) -> str:
    if len(text) <= 2 * _EXCERPT + 3:
        return repr(text)
    head, tail = text[:_EXCERPT], text[-_EXCERPT:]
    return f"{head!r}...{tail!r} ({len(text)} characters)"


def latex_rational(text: str) -> str:
    """LaTeX form of a wire string: ``"-5/8"`` becomes ``-\\frac{5}{8}``, ``"3"`` stays."""
    numerator, slash, denominator = text.partition("/")
    if not slash:
        return text
    sign = "-" if numerator.startswith("-") else ""
    return f"{sign}\\frac{{{numerator.lstrip('-')}}}{{{denominator}}}"
