"""Exact rational scalars and their canonical string form.

``fractions.Fraction`` already guarantees everything the library needs
from its universal scalar: values are always reduced, the denominator is
positive, and zero is stored as 0/1.  We only add the wire format and
its LaTeX form, which is built from the string without parsing it back.
"""

from __future__ import annotations

from fractions import Fraction

ExactRational = Fraction


def format_rational(value: Fraction | int) -> str:
    """Render ``value`` as ``"p/q"`` (reduced, q > 0), or ``"p"`` if integral."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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
