from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldencalc import (
    ExactnessError,
    FibTable,
    Polynomial,
    fibonomial_row,
    fibonomial_rows,
    golden_binomial,
    golden_derivative,
    golden_derivative_dilatation,
    polynomials,
)
from goldencalc.polynomials import (
    binomial_factors,
    linear_combination,
    render_coefficients,
    render_plain,
    render_terms,
)
from goldencalc.rationals import format_rational, sum_of_products

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
        # a zero factor on either side, or both, gives the zero polynomial
        for left, right in [
            (Polynomial(), poly(3, -2, 5)),
            (poly(3, -2, 5), Polynomial()),
            (Polynomial(), Polynomial()),
        ]:
            assert (left * right).coeffs == ()

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

    def test_formal_derivative(self):
        assert poly(5, 1, 3).derivative() == poly(1, 6)
        assert poly(7).derivative() == Polynomial()


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

    def test_dilatation_guards_fire(self, monkeypatch):
        ladders = polynomials.golden_power_ladders

        def faulty(fault):
            def patched(m):
                phi_powers, conjugate_powers = ladders(m)
                return fault(phi_powers), conjugate_powers

            monkeypatch.setattr(polynomials, "golden_power_ladders", patched)

        # phi^0 = 2: the numerator keeps a constant term
        faulty(lambda powers: (powers[0] * 2,) + powers[1:])
        with pytest.raises(ExactnessError, match="not divisible by x"):
            golden_derivative_dilatation(poly(3, 1, 1))
        # phi^2 + 1: the x^1 coefficient keeps a sqrt5 residue
        faulty(lambda powers: powers[:2] + (powers[2] + 1,) + powers[3:])
        with pytest.raises(ExactnessError, match="sqrt5 component did not cancel"):
            golden_derivative_dilatation(poly(3, 1, 1))

    @given(rational_polynomials, rational_polynomials, rationals, rationals)
    def test_linearity(self, p, q, alpha, beta):
        lhs = golden_derivative(p * alpha + q * beta)
        rhs = golden_derivative(p) * alpha + golden_derivative(q) * beta
        assert lhs == rhs

    def test_monomial_rule_matches_binet_fibonacci(self):
        for n in range(1, 24):
            image = golden_derivative(Polynomial.monomial(n))
            assert image == Polynomial.monomial(n - 1) * fib_by_addition(n)


def _signed_terms(n):
    return [(format_rational(c), binomial_factors(n, k)) for k, c in enumerate(golden_binomial(n))]


class TestGoldenBinomial:
    def test_degree_zero(self):
        assert golden_binomial(0) == (1,)
        assert render_terms(_signed_terms(0)) == "1"

    def test_degree_two(self):
        coefficients = golden_binomial(2)
        assert [1 if c > 0 else -1 for c in coefficients] == [1, 1, -1]
        assert [abs(c) for c in coefficients] == [1, 1, 1]
        assert render_terms(_signed_terms(2)) == "x^2 + xy - y^2"

    def test_degree_four_middle_term(self):
        assert golden_binomial(4)[2] == -6
        assert render_terms(_signed_terms(4)[2:3]) == "-6 x^2 y^2"

    def test_sign_pattern_has_period_four(self):
        coefficients = golden_binomial(17)
        assert len(coefficients) == 18
        for k, c in enumerate(coefficients):
            assert (1 if c > 0 else -1) == (1 if k % 4 in (0, 1) else -1)

    def test_magnitudes_are_the_fibonomials(self):
        for n in range(18):
            assert tuple(abs(c) for c in golden_binomial(n)) == fibonomial_row(n)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            golden_binomial(-1)

    def test_reads_a_passed_row(self):
        rows = list(fibonomial_rows(FibTable(12)))
        for n, row in enumerate(rows):
            assert golden_binomial(n, row) == golden_binomial(n)


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


scalars = st.one_of(rationals, st.integers(min_value=-10**30, max_value=10**30))
divisor_fractions = st.builds(
    Fraction,
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([d for d in range(1, 721) if 720 % d == 0]),
)


class TestExactSums:
    # 40 terms make six tree levels, with odd counts carried up on the way
    @given(st.lists(st.tuples(scalars, scalars), max_size=40))
    def test_sum_of_products_matches_fraction_sum(self, pairs):
        total = sum_of_products(pairs)
        assert isinstance(total, Fraction)
        assert total == sum((Fraction(x) * y for x, y in pairs), Fraction(0))

    @given(st.lists(st.tuples(divisor_fractions, divisor_fractions), max_size=40))
    def test_sum_of_products_over_shared_denominators(self, pairs):
        # denominators drawn from the divisors of 720 often meet equal or dividing ones
        assert sum_of_products(pairs) == sum((x * y for x, y in pairs), Fraction(0))

    # the two branches of a merge: equal denominators, or a gcd over the lcm
    @pytest.mark.parametrize(
        "pairs",
        [
            # q = 12 and 6 merge over 12, then 12 and 12 add their numerators
            [(F(1, 12), 1), (F(1, 2), F(1, 3)), (F(5, 4), F(1, 3))],
            # q = 12, 5, 28, 36: each pair, then the two sums, merge over an lcm
            [(F(1, 12), 1), (F(2, 5), 1), (F(3, 14), F(1, 2)), (F(1, 6), F(1, 6))],
            # negative factors on either side
            [(F(-7, 12), 1), (F(1, 2), F(-1, 3)), (-3, F(1, 4)), (F(-2, 9), F(-5, 8))],
            # ints only: every denominator is 1
            [(3, 4), (-5, 6), (10**40, 10**40), (0, 7)],
            # sums that cancel to zero
            [(F(1, 6), F(2, 3)), (F(-1, 9), 1)],
            [(F(5, 36), 1), (F(1, 4), F(-1, 9)), (F(-1, 9), 1)],
            # a single term
            [(F(-3, 8), F(4, 9))],
            # five terms: the fifth carries up two levels before its merge
            [(F(1, 2), 1), (F(1, 3), 1), (F(1, 5), 1), (F(1, 7), 1), (F(1, 11), F(1, 13))],
            # equal denominators: 3/10 + 7/10 and 1/20 - 1/20 add numerators, no gcd
            [(F(3, 10), 1), (F(7, 10), 1), (F(1, 10), F(1, 2)), (F(-1, 5), F(1, 4))],
            # 1/6 - 2/12 cancels to 0/12 in the first merge; the next level adds 7/21
            [(F(1, 2), F(1, 3)), (F(-2, 3), F(1, 4)), (F(2, 7), 1), (F(1, 7), F(1, 3))],
        ],
    )
    def test_sum_of_products_on_both_branches(self, pairs):
        assert sum_of_products(pairs) == sum((Fraction(x) * y for x, y in pairs), Fraction(0))

    def test_sum_of_products_reduces_once(self):
        # 1/6 + 1/3 + 1/2 merges to 3/6 + 1/2, which reduces to 1
        assert sum_of_products([(F(1, 2), F(1, 3)), (1, F(1, 3)), (F(3, 4), F(2, 3))]) == 1
        assert sum_of_products([]) == 0

    @given(st.lists(st.tuples(scalars, rational_polynomials), max_size=8))
    def test_linear_combination_matches_term_by_term_sum(self, terms):
        expected = Polynomial()
        for weight, p in terms:
            expected = expected + p * weight
        assert linear_combination(terms) == expected
