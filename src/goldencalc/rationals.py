"""Exact rational scalars and their canonical string form.

``fractions.Fraction`` already guarantees everything the library needs
from its universal scalar: values are always reduced, the denominator is
positive, and zero is stored as 0/1.  We add the two exact kernels of
the upper layers, the sum of products and the convolution, the wire
format and its LaTeX form, which is built from the string without
parsing it back.  The wire format works at any size in both directions:
past Python's int<->str digit limit (``sys.get_int_max_str_digits()``)
the digits go through an exact ``Decimal`` instead, and the process-wide
limit is left alone.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from contextlib import suppress
from decimal import Decimal
from fractions import Fraction
from math import gcd

# the "p" / "p/q" wire form, ASCII digits only
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_EXCERPT = 20  # characters kept from each end of a long value quoted in an error


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

    Each term is kept unreduced as p/q, and neighbours are merged level
    by level as a balanced tree over lcm(q1, q2), one gcd per merge (equal
    denominators just add their numerators; an odd last term carries up
    a level).  Operands grow only as the merges climb the tree, instead of
    a running sum being rescaled once per term (binary splitting).  No
    Fraction is built until the end.
    """
    terms = [(x.numerator * y.numerator, x.denominator * y.denominator) for x, y in pairs]
    terms = terms or [(0, 1)]
    while len(terms) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(terms[::2], terms[1::2]):
            if q1 == q2:
                merged.append((p1 + p2, q1))
            else:
                g = gcd(q1, q2)
                s1, s2 = q2 // g, q1 // g
                merged.append((p1 * s1 + p2 * s2, q1 * s1))
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    numerator, denominator = terms[0]
    return Fraction(numerator, denominator)


def convolve(xs: Sequence, ys: Sequence, size: int) -> list:
    """The first ``size`` coefficients of the product of two coefficient lists.

    The one convolution loop of polynomial and series products; empty if size <= 0.
    """
    out = [0] * size
    for i, a in enumerate(xs):
        if i >= size:
            break
        for j, b in enumerate(ys):
            if i + j >= size:
                break
            out[i + j] = out[i + j] + a * b
    return out


def parse_rational(text: str) -> Fraction:
    """Parse a ``"p"`` or ``"p/q"`` literal; inverse of :func:`format_rational`.

    p and q are ASCII digits, p with an optional sign, read exactly through
    ``Decimal``; so the same literals parse on every Python version and at
    any length.  A rejected literal is quoted in the error by its two ends
    and its length.
    """
    literal = text.strip()
    match = _LITERAL.fullmatch(literal)
    if match is not None:
        numerator, denominator = match.group(1, 2)
        with suppress(ZeroDivisionError):
            return Fraction(_integer(numerator), _integer(denominator or "1"))
    raise ValueError(f"not an exact rational literal: {_excerpt(literal)}")


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
