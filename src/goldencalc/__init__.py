"""goldencalc: exact Golden (Fibonacci) calculus.

Arbitrary-precision arithmetic in Q(sqrt5), Fibonacci factorials and
Fibonomial coefficients, the Golden derivative and Golden exponential,
and Bernoulli-Fibonacci numbers and polynomials computed by independent
routes with an exhaustive identity verifier.  No floating point anywhere.
"""

from .bernoulli import (
    bf_eval,
    bf_numbers_recursive,
    bf_numbers_series,
    bf_polynomial,
    bf_polynomial_genfunc,
    classical_bernoulli_numbers,
    classical_bernoulli_numbers_recursive,
    classical_bernoulli_polynomial,
    h_polynomial_explicit,
    h_polynomial_sum,
)
from .fibonacci import (
    FibTable,
    binet,
    fib,
    fib_factorial,
    fibonomial,
    fibonomial_rec_a,
    fibonomial_rec_b,
    fibonomial_row,
    fibonomial_rows,
    fibonomial_triangle,
    golden_power_ladders,
)
from .golden import PHI, PHI_CONJUGATE, SQRT5, ExactnessError, GoldenNumber
from .polynomials import (
    Polynomial,
    golden_binomial,
    golden_derivative,
    golden_derivative_dilatation,
)
from .rationals import format_rational, parse_rational
from .series import TruncatedSeries, golden_exponential
from .verify import (
    Counterexample,
    VerificationReport,
    core_property_reports,
    verify_identities,
)

__version__ = "0.1.0"

__all__ = [
    "Counterexample",
    "ExactnessError",
    "FibTable",
    "GoldenNumber",
    "PHI",
    "PHI_CONJUGATE",
    "Polynomial",
    "SQRT5",
    "TruncatedSeries",
    "VerificationReport",
    "bf_eval",
    "bf_numbers_recursive",
    "bf_numbers_series",
    "bf_polynomial",
    "bf_polynomial_genfunc",
    "binet",
    "classical_bernoulli_numbers",
    "classical_bernoulli_numbers_recursive",
    "classical_bernoulli_polynomial",
    "core_property_reports",
    "fib",
    "fib_factorial",
    "fibonomial",
    "fibonomial_rec_a",
    "fibonomial_rec_b",
    "fibonomial_row",
    "fibonomial_rows",
    "fibonomial_triangle",
    "format_rational",
    "golden_binomial",
    "golden_derivative",
    "golden_derivative_dilatation",
    "golden_exponential",
    "golden_power_ladders",
    "h_polynomial_explicit",
    "h_polynomial_sum",
    "parse_rational",
    "verify_identities",
]
