from fractions import Fraction

import pytest
from hypothesis import given

from goldencalc import (
    PHI,
    ExactnessError,
    GoldenNumber,
    Polynomial,
    golden_binomial,
    golden_derivative,
    golden_derivative_dilatation,
)
from goldencalc.polynomials import render_coefficients, render_plain, render_terms

from conftest import fib_by_addition, rational_polynomials, rationals

F = Fraction
X = Polynomial((F(0), F(1)))


def poly(*ascending):
    return Polynomial([F(c) for c in ascending])


class TestPolynomialRing:
    def test_normalization_strips_trailing_zeros(self):
        assert Polynomial([F(1), F(0), F(0)]).coeffs == (F(1),)
        assert Polynomial([F(0)]).is_zero
        assert Polynomial().degree == -1

    def test_addition(self):
        assert poly(1, 2) + poly(0, -2, 3) == poly(1, 0, 3)

    def test_cancellation_reduces_degree(self):
        assert (poly(1, 2) - poly(0, 2)).degree == 0

    def test_multiplication(self):
        assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)

    def test_zero_annihilates(self):
        assert poly(3, -2, 5) * Polynomial() == Polynomial()

    def test_scalar_ops(self):
        assert 2 * poly(1, 1) == poly(2, 2)
        assert poly(1, 1) * F(1, 2) == poly(F(1, 2), F(1, 2))
        assert poly(1, 1) + 1 == poly(2, 1)

    def test_evaluation_horner(self):
        # B_2^F constant term: (x^2 - x + 1/2)(0) = 1/2
        assert poly(F(1, 2), -1, 1)(F(0)) == F(1, 2)
        assert poly(F(1, 2), -1, 1)(F(2)) == F(5, 2)
        assert Polynomial()(F(7)) == 0

    @given(rational_polynomials, rationals)
    def test_evaluation_matches_power_sum(self, p, point):
        expected = sum(c * point**i for i, c in enumerate(p.coeffs))
        assert p(point) == expected

    def test_substitute_scaled_monomial(self):
        cubed = Polynomial.monomial(3).map_coefficients(GoldenNumber.from_rational)
        scaled = cubed.substitute_scaled(PHI)
        # direct expansion oracle: coefficient should be phi*phi*phi
        assert scaled.coefficient(3) == PHI * PHI * PHI
        assert scaled.degree == 3

    @given(rational_polynomials, rationals, rationals)
    def test_substitute_scaled_agrees_with_evaluation(self, p, scale, point):
        assert p.substitute_scaled(scale)(point) == p(scale * point)

    def test_divide_by_x(self):
        assert poly(0, 1, 2).divide_by_x() == poly(1, 2)
        with pytest.raises(ExactnessError):
            poly(1, 1).divide_by_x()

    def test_formal_derivative(self):
        assert poly(5, 1, 3).derivative() == poly(1, 6)
        assert poly(7).derivative() == Polynomial()

    def test_equality_crosses_rings(self):
        lifted = poly(1, 2).map_coefficients(GoldenNumber.from_rational)
        assert lifted == poly(1, 2)


class TestGoldenDerivative:
    def test_constant_maps_to_zero(self):
        assert golden_derivative(poly(5)) == Polynomial()
        assert golden_derivative(Polynomial()) == Polynomial()

    def test_monomials(self):
        # F_3 = 2, F_5 = 5, F_1 = 1
        assert golden_derivative(Polynomial.monomial(3)) == poly(0, 0, 2)
        assert golden_derivative(poly(0, 1, 0, 0, 0, 1)) == poly(1, 0, 0, 0, 5)

    def test_dilatation_on_constants(self):
        assert golden_derivative_dilatation(poly(9)) == Polynomial()

    def test_dilatation_on_squares(self):
        # (phi^2 - phi'^2)/(phi - phi') = phi + phi' = 1 = F_2
        assert golden_derivative_dilatation(Polynomial.monomial(2)) == poly(0, 1)

    def test_dilatation_on_x7(self):
        assert golden_derivative_dilatation(Polynomial.monomial(7)) == Polynomial.monomial(6) * 13

    @given(rational_polynomials)
    def test_dilatation_is_the_same_operator(self, p):
        assert golden_derivative_dilatation(p) == golden_derivative(p)

    @given(rational_polynomials, rational_polynomials, rationals, rationals)
    def test_linearity(self, p, q, alpha, beta):
        lhs = golden_derivative(p * alpha + q * beta)
        rhs = golden_derivative(p) * alpha + golden_derivative(q) * beta
        assert lhs == rhs

    def test_monomial_rule_matches_binet_fibonacci(self):
        for n in range(1, 24):
            image = golden_derivative(Polynomial.monomial(n))
            assert image == Polynomial.monomial(n - 1) * fib_by_addition(n)


class TestGoldenBinomial:
    def test_degree_zero(self):
        expansion = golden_binomial(0)
        assert len(expansion.terms) == 1
        assert expansion.terms[0].sign == 1
        assert expansion.terms[0].coefficient == 1
        assert expansion.rendered() == "1"

    def test_degree_two(self):
        expansion = golden_binomial(2)
        assert [t.sign for t in expansion.terms] == [1, 1, -1]
        assert [t.coefficient for t in expansion.terms] == [1, 1, 1]
        assert expansion.rendered() == "x^2 + xy - y^2"

    def test_degree_four_middle_term(self):
        expansion = golden_binomial(4)
        term = expansion.terms[2]
        assert term.sign == -1
        assert term.coefficient == 6
        assert expansion.term_text(2) == "-6 x^2 y^2"

    def test_sign_pattern_has_period_four(self):
        expansion = golden_binomial(17)
        for term in expansion.terms:
            assert term.sign == (1 if term.k % 4 in (0, 1) else -1)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            golden_binomial(-1)


class TestRendering:
    def test_plain_rendering(self):
        assert render_plain(poly(F(1, 2), -1, 1)) == "x^2 - x + 1/2"
        assert render_plain(poly(F(3, 10), -1, 3, -3, 1)) == "x^4 - 3 x^3 + 3 x^2 - x + 3/10"
        assert render_plain(Polynomial()) == "0"
        assert render_plain(poly(-1, 1)) == "x - 1"
        assert render_plain(poly(0, -1)) == "-x"

    def test_latex_rendering(self):
        latex = render_coefficients(["1/2", "-1", "1"], latex=True)
        assert latex == "x^{2} - x + \\frac{1}{2}"

    def test_plain_and_latex_share_one_term_formatter(self):
        terms = [
            ("-3/2", (("x", 4), ("y", 1))),
            ("0", (("x", 3),)),
            ("5", (("x", 1), ("y", 4))),
            ("1", (("x", 1), ("y", 1))),
            ("-1", (("x", 0), ("y", 0))),
        ]
        assert render_terms(terms) == "-3/2 x^4 y + 5 x y^4 + xy - 1"
        assert render_terms(terms, latex=True) == "-\\frac{3}{2}x^{4}y + 5xy^{4} + xy - 1"
        assert render_terms([("0", (("x", 2),))]) == "0"
        assert render_terms([]) == "0"
