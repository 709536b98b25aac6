"""Dense univariate polynomials over exact coefficient rings.

Coefficient slots hold Fraction, GoldenNumber, or any other exact ring
element; index i is the coefficient of x^i.  The stored tuple never has
a trailing zero, so degree = len - 1 and the zero polynomial is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable

from .fibonacci import FibTable
from .golden import PHI, ExactnessError, GoldenNumber
from .rationals import format_rational, latex_rational


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable = ()) -> None:
        coeffs = list(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coefficient=Fraction(1)) -> Polynomial:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        # coefficient * 0 is the zero of whatever ring we were handed
        return cls((coefficient * 0,) * degree + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_plain(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GoldenNumber)):
            return self == Polynomial.constant(other)
        return NotImplemented

    __hash__ = None  # mutable-style algebraic value; equality crosses rings

    def __bool__(self) -> bool:
        return not self.is_zero

    def __neg__(self) -> Polynomial:
        return Polynomial(-c for c in self.coeffs)

    def __add__(self, other: object) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: object):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction, GoldenNumber)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def _coerce(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction, GoldenNumber)):
            return Polynomial.constant(other)
        return None

    def __call__(self, point):
        """Exact evaluation by Horner's rule."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def substitute_scaled(self, scale) -> Polynomial:
        """p(scale * x): coefficient c_i becomes c_i * scale^i."""
        out = []
        power = None
        for i, c in enumerate(self.coeffs):
            power = 1 if i == 0 else power * scale
            out.append(c * power)
        return Polynomial(out)

    def map_coefficients(self, fn: Callable) -> Polynomial:
        return Polynomial(fn(c) for c in self.coeffs)

    def divide_by_x(self) -> Polynomial:
        """Exact quotient p/x; the constant term must be zero."""
        if self.is_zero:
            return self
        if self.coeffs[0] != 0:
            raise ExactnessError("polynomial is not divisible by x")
        return Polynomial(self.coeffs[1:])

    def derivative(self) -> Polynomial:
        """Ordinary formal derivative d/dx (used by the classical baseline)."""
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)


def golden_derivative(p: Polynomial) -> Polynomial:
    """Golden derivative by the coefficient rule: c_n x^n -> c_n F_n x^(n-1)."""
    if p.is_zero:
        return Polynomial()
    table = FibTable(p.degree)
    return Polynomial(p.coeffs[n] * table.fib(n) for n in range(1, p.degree + 1))


def golden_derivative_dilatation(p: Polynomial) -> Polynomial:
    """Golden derivative from its divided-difference definition,

        (f(phi x) - f(-x/phi)) / ((phi + 1/phi) x),

    evaluated literally in Q(sqrt5)[x].  Serves as the independent oracle
    for :func:`golden_derivative`: the numerator must be divisible by x and
    every sqrt5 residue must cancel, otherwise ExactnessError is raised.
    """
    lifted = p.map_coefficients(GoldenNumber.from_rational)
    numerator = lifted.substitute_scaled(PHI) - lifted.substitute_scaled(-PHI.inverse())
    denominator = PHI + PHI.inverse()  # = sqrt5
    quotient = numerator.divide_by_x()
    return quotient.map_coefficients(lambda c: (c / denominator).to_rational())


@dataclass(frozen=True)
class BinomialTerm:
    k: int
    sign: int  # (-1)^(k(k-1)/2), so the pattern +, +, -, - repeats
    coefficient: int  # fibonomial(n, k)


@dataclass(frozen=True)
class GoldenBinomialExpansion:
    """Signed term list of the Golden binomial (x + y)_F^n."""

    n: int
    terms: tuple[BinomialTerm, ...]

    def monomial_text(self, k: int) -> str:
        return render_monomial(binomial_factors(self.n, k))

    def term_text(self, k: int) -> str:
        return render_terms([self._signed_term(k)])

    def rendered(self) -> str:
        return render_terms(self._signed_term(term.k) for term in self.terms)

    def _signed_term(self, k: int) -> tuple[str, tuple]:
        term = self.terms[k]
        return f"{'-' if term.sign < 0 else ''}{term.coefficient}", binomial_factors(self.n, k)


def binomial_factors(n: int, k: int) -> tuple[tuple[str, int], ...]:
    """The (variable, exponent) factors of term k of (x + y)_F^n: x^(n-k) y^k."""
    return (("x", n - k), ("y", k))


def golden_binomial(n: int) -> GoldenBinomialExpansion:
    """Expansion of (x + y)_F^n: term k carries (-1)^(k(k-1)/2) [n, k]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    table = FibTable(n)
    terms = tuple(
        BinomialTerm(k, -1 if (k * (k - 1) // 2) % 2 else 1, table.fibonomial(n, k))
        for k in range(n + 1)
    )
    return GoldenBinomialExpansion(n, terms)


def render_plain(p: Polynomial) -> str:
    """Human-readable form, highest degree first: "x^2 - x + 1/2"."""
    if not all(isinstance(c, (int, Fraction)) for c in p.coeffs):
        # non-rational coefficient ring (debug output only)
        return " + ".join(
            f"({c}) x^{i}" for i, c in enumerate(p.coeffs) if c != 0
        )
    return render_coefficients([format_rational(c) for c in p.coeffs])


def render_coefficients(coefficients: list[str], latex: bool = False) -> str:
    """Sum of c_i x^i, highest degree first, from ascending wire-format coefficients."""
    return render_terms(
        ((coefficients[i], (("x", i),)) for i in range(len(coefficients) - 1, -1, -1)),
        latex,
    )


def render_terms(terms: Iterable[tuple[str, tuple]], latex: bool = False) -> str:
    """Signed sum of monomials: the one term formatter for plain text and LaTeX.

    Each term is a ``"p/q"`` wire-format coefficient and its ``(variable,
    exponent)`` factors.  Zero terms are skipped, a unit coefficient is
    dropped unless the monomial is empty, and an empty sum is "0".
    """
    pieces = []
    for coefficient, factors in terms:
        if coefficient == "0":
            continue
        negative = coefficient.startswith("-")
        magnitude = coefficient.lstrip("-")
        monomial = render_monomial(factors, latex)
        if magnitude == "1" and monomial:
            body = monomial
        elif latex:
            body = latex_rational(magnitude) + monomial
        else:
            body = f"{magnitude} {monomial}" if monomial else magnitude
        if pieces:
            pieces.append(f"{'-' if negative else '+'} {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces) or "0"


def render_monomial(factors: Iterable[tuple[str, int]], latex: bool = False) -> str:
    """``x^4 y`` or ``xy`` in plain text, ``x^{4}y`` in LaTeX; exponent 0 drops a factor."""
    parts = []
    for variable, exponent in factors:
        if exponent == 1:
            parts.append(variable)
        elif exponent:
            parts.append(f"{variable}^{{{exponent}}}" if latex else f"{variable}^{exponent}")
    # plain text: bare variables stick together ("xy"), exponents get a space
    bare = latex or all("^" not in part for part in parts)
    return ("" if bare else " ").join(parts)
