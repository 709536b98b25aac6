"""Dense univariate polynomials with exact rational coefficients.

Coefficient slots hold ints and Fractions; index i is the coefficient of
x^i.  The stored tuple never has a trailing zero, so degree = len - 1 and
the zero polynomial is empty.  Q(sqrt5) arithmetic stays in
:mod:`goldencalc.golden` and the routes that need it: the dilatation
oracle below works on single coefficients and reads back a rational.

The product of two polynomials is the one convolution loop of
:func:`~goldencalc.rationals.convolve`, which the series ring uses too.
The Golden binomial (x + y)_F^n is kept as its coefficients, the signed
Fibonomial row, read off :func:`~goldencalc.fibonacci.fibonomial_rows`
unless a row is passed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import islice, zip_longest

from .fibonacci import FibTable, fibonomial_rows, golden_power_ladders
from .golden import PHI, ExactnessError
from .rationals import convolve, format_rational, latex_rational, sum_of_products


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
        # coefficient * 0 is a zero of the coefficient's own type
        return cls((coefficient * 0,) * degree + (coefficient,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_plain(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    __hash__ = None  # mutable-style algebraic value; equal to its int or Fraction constant

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
            # a zero factor contributes no term, so the zeros trim to Polynomial()
            size = len(self.coeffs) + len(other.coeffs) - 1
            return Polynomial(convolve(self.coeffs, other.coeffs, size))
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def _coerce(self, other: object) -> Polynomial | None:
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __call__(self, point):
        """Exact evaluation by Horner's rule."""
        acc = point * 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> Polynomial:
        """Ordinary formal derivative d/dx (used by the classical baseline)."""
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)


def linear_combination(terms: Iterable[tuple[Fraction | int, Polynomial]]) -> Polynomial:
    """Sum of weight * polynomial over ``terms``, all rational.

    Each output coefficient is one :func:`~goldencalc.rationals.sum_of_products`,
    reduced once instead of after every polynomial addition.
    """
    terms = list(terms)
    size = max((len(p.coeffs) for _, p in terms), default=0)
    return Polynomial(
        sum_of_products((w, p.coeffs[i]) for w, p in terms if i < len(p.coeffs))
        for i in range(size)
    )


def golden_derivative(p: Polynomial) -> Polynomial:
    """Golden derivative by the coefficient rule: c_n x^n -> c_n F_n x^(n-1)."""
    if p.is_zero:
        return Polynomial()
    table = FibTable(p.degree)
    return Polynomial(p.coeffs[n] * table.fib(n) for n in range(1, p.degree + 1))


def golden_derivative_dilatation(p: Polynomial) -> Polynomial:
    """Golden derivative from its divided-difference definition,

        (f(phi x) - f(-x/phi)) / ((phi + 1/phi) x),

    taken term by term in Q(sqrt5): c_i x^i contributes
    (c_i phi^i - c_i (-1/phi)^i) / (phi + 1/phi) to x^(i-1), with the powers
    from :func:`~goldencalc.fibonacci.golden_power_ladders`.  Serves as the
    independent oracle for :func:`golden_derivative`: the numerator's
    constant term must vanish and every sqrt5 residue must cancel,
    otherwise ExactnessError is raised.
    """
    phi_powers, conjugate_powers = golden_power_ladders(max(p.degree, 0))
    denominator = PHI + PHI.inverse()  # = sqrt5
    numerator = [
        phi_powers[i] * c - conjugate_powers[i] * c for i, c in enumerate(p.coeffs)
    ]
    if numerator and numerator[0]:
        raise ExactnessError("the numerator is not divisible by x")
    return Polynomial((term / denominator).to_rational() for term in numerator[1:])


def binomial_factors(n: int, k: int) -> tuple[tuple[str, int], ...]:
    """The (variable, exponent) factors of term k of (x + y)_F^n: x^(n-k) y^k."""
    return (("x", n - k), ("y", k))


def golden_binomial(n: int, row: Sequence[int] | None = None) -> tuple[int, ...]:
    """Coefficients of (x + y)_F^n: that of x^(n-k) y^k is (-1)^(k(k-1)/2) [n, k].

    The signs repeat +, +, -, -.  The Fibonomials [n, 0..n] come from
    ``row`` when it is passed (say from
    :func:`~goldencalc.fibonacci.fibonomial_rows`), else by the Pascal rule.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if row is None:
        # row n of the Pascal rule, holding one previous row at a time
        row = next(islice(fibonomial_rows(FibTable(n)), n, None))
    return tuple(-row[k] if (k * (k - 1) // 2) % 2 else row[k] for k in range(n + 1))


def render_plain(p: Polynomial) -> str:
    """Human-readable form, highest degree first: "x^2 - x + 1/2"."""
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
