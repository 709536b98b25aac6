from fractions import Fraction

import pytest

from goldencalc import (
    FibTable,
    Polynomial,
    TruncatedSeries,
    bf_eval,
    bf_numbers_recursive,
    bf_numbers_series,
    bf_polynomial,
    bf_polynomial_genfunc,
    classical_bernoulli_numbers,
    classical_bernoulli_numbers_recursive,
    classical_bernoulli_polynomial,
    fib,
    fibonomial_rows,
    h_polynomial_explicit,
    h_polynomial_sum,
)
from goldencalc import bernoulli
from goldencalc.polynomials import lucas_derivative

from conftest import fib_by_addition, fib_factorial_by_product

F = Fraction

# published values: b^F_0..b^F_6
BF_NUMBERS = [F(1), F(-1), F(1, 2), F(-1, 3), F(3, 10), F(-5, 8), F(101, 39)]

# published values: classical b_0..b_6
CLASSICAL_NUMBERS = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]


def poly(*ascending):
    return Polynomial([F(c) for c in ascending])


def ff(n):
    return fib_factorial_by_product(n)


def published_bf_polynomials():
    """The first six B^F_n in their published F-factorial form.

    Every coefficient below is spelled with explicit Fibonacci factorials
    and evaluates here with independent oracle factorial values, so this
    doubles as an independent oracle for the reduced forms.
    """
    f = [fib_by_addition(n) for n in range(8)]
    b3 = Polynomial(
        [
            F(2, ff(2)) - F(1, f[4]) - f[3],
            F(ff(3), ff(1) * ff(2) ** 2) - F(1, ff(1)),
            -F(ff(3), ff(2) ** 2),
            F(1),
        ]
    )
    b4 = Polynomial(
        [
            F(ff(4), ff(2) ** 4)
            - 3 * F(ff(4), ff(2) ** 2 * ff(3))
            + F(2, ff(2))
            + F(ff(4), ff(3) ** 2)
            - F(1, f[5]),
            -F(ff(4), ff(1) * ff(2) ** 3)
            + 2 * F(ff(4), ff(1) * ff(2) * ff(3))
            - F(1, ff(1)),
            F(ff(4), ff(2) ** 3) - F(ff(4), ff(2) * ff(3)),
            -F(ff(4), ff(3) * ff(2)),
            F(1),
        ]
    )
    b5 = Polynomial(
        [
            -F(ff(5), ff(2) ** 5)
            + 4 * F(ff(5), ff(2) ** 3 * ff(3))
            - 3 * F(ff(5), ff(3) ** 2 * ff(2))
            - 3 * F(ff(5), ff(2) ** 2 * ff(4))
            + 2 * F(ff(5), ff(3) * ff(4))
            + F(2, ff(2))
            - F(ff(5), ff(6)),
            -F(1, ff(1))
            + F(ff(5), ff(1) * ff(3) ** 2)
            + 2 * F(ff(5), ff(1) * ff(2) * ff(4))
            - 3 * F(ff(5), ff(1) * ff(2) ** 2 * ff(3))
            + F(ff(5), ff(1) * ff(2) ** 4),
            -F(ff(5), ff(2) * ff(4))
            + 2 * F(ff(5), ff(2) ** 2 * ff(3))
            - F(ff(5), ff(2) ** 4),
            -F(ff(5), ff(3) ** 2) + F(ff(5), ff(3) * ff(2) ** 2),
            -F(ff(5), ff(4) * ff(2)),
            F(1),
        ]
    )
    return b3, b4, b5


class TestNumbers:
    def test_series_matches_published_list(self):
        assert bf_numbers_series(6) == BF_NUMBERS

    def test_recursive_matches_published_list(self):
        assert bf_numbers_recursive(6) == BF_NUMBERS

    def test_recursive_base_case_from_n2_equation(self):
        # 1 + [2,1] b^F_1 = 0 with [2,1] = 1 forces b^F_1 = -1
        assert bf_numbers_recursive(1) == [F(1), F(-1)]

    def test_cross_method_to_64(self):
        assert bf_numbers_series(64) == bf_numbers_recursive(64)

    def test_recursive_never_touches_a_series(self, monkeypatch):
        # nor a factorial-ratio Fibonomial: its rows come from the Pascal rule
        expected = bf_numbers_series(64)

        def forbidden(*args):
            raise AssertionError("the recursive route inverted a series or took a ratio")

        monkeypatch.setattr(TruncatedSeries, "inverse", forbidden)
        monkeypatch.setattr(FibTable, "fibonomial", forbidden)
        assert bf_numbers_recursive(64) == expected

    def test_cross_method_past_the_int_str_limit(self):
        series = bf_numbers_series(210)
        assert bf_numbers_recursive(210) == series
        # numerators outgrow the 4300-digit int<->str limit here
        assert max(abs(b.numerator) for b in series) > 10**4300

    def test_recursive_reads_passed_rows(self):
        rows = tuple(fibonomial_rows(FibTable(41)))
        assert bf_numbers_recursive(40, rows) == bf_numbers_recursive(40)
        assert bf_numbers_recursive(12, rows) == bf_numbers_recursive(12)

    def test_degenerate_bounds(self):
        assert bf_numbers_series(0) == [F(1)]
        assert bf_numbers_recursive(0) == [F(1)]

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            bf_numbers_series(-1)
        with pytest.raises(ValueError):
            bf_numbers_recursive(-1)


class TestPolynomials:
    def test_first_three_published_forms(self):
        assert bf_polynomial(0) == poly(1)
        assert bf_polynomial(1) == poly(-1, 1)
        assert bf_polynomial(2) == poly(F(1, 2), -1, 1)

    def test_published_f_factorial_displays_reduce_correctly(self):
        b3, b4, b5 = published_bf_polynomials()
        assert bf_polynomial(3) == b3
        assert bf_polynomial(4) == b4
        assert bf_polynomial(5) == b5

    def test_reduced_forms_frozen(self):
        assert bf_polynomial(3) == poly(F(-1, 3), 1, -2, 1)
        assert bf_polynomial(4) == poly(F(3, 10), -1, 3, -3, 1)
        assert bf_polynomial(5) == poly(F(-5, 8), F(3, 2), -5, F(15, 2), -5, 1)

    def test_constant_terms_equal_numbers(self):
        numbers = bf_numbers_series(24)
        for n in range(25):
            assert bf_polynomial(n, numbers).coefficient(0) == numbers[n]

    def test_rows_replace_the_factorial_ratio(self, monkeypatch):
        numbers = bf_numbers_series(20)
        expected = [bf_polynomial(n, numbers) for n in range(21)]
        # H_n = B^F_n + F_n x^(n-1)
        h_expected = [expected[n] + Polynomial.monomial(n - 1, F(fib(n))) for n in range(1, 21)]
        rows = list(fibonomial_rows(FibTable(20)))

        def forbidden(*args):
            raise AssertionError("a factorial-ratio Fibonomial was taken")

        monkeypatch.setattr(FibTable, "fibonomial", forbidden)
        for n in range(21):
            assert bf_polynomial(n, numbers, row=rows[n]) == expected[n]
        for n in range(1, 21):
            assert h_polynomial_sum(n) == h_expected[n - 1]
            assert h_polynomial_explicit(n, numbers, row=rows[n]) == h_expected[n - 1]

    def test_genfunc_route_agrees(self):
        for n in range(17):
            assert bf_polynomial_genfunc(n) == bf_polynomial(n)

    def test_default_route_is_independent_of_the_reciprocal(self, monkeypatch):
        # a fault in the reciprocal's z^5 coefficient must split the two routes
        expected = [bf_polynomial(n) for n in range(10)]
        inverse = bernoulli._inverse_shifted_exponential

        def faulty(order, factorial):
            coeffs = list(inverse(order, factorial).coeffs)
            if order >= 5:
                coeffs[5] += F(1, 7)
            return TruncatedSeries(coeffs)

        monkeypatch.setattr(bernoulli, "_inverse_shifted_exponential", faulty)
        for n in range(5, 10):
            assert bf_polynomial(n) == expected[n]
            assert bf_polynomial(n) != bf_polynomial_genfunc(n)

    def test_defaults_invert_no_series(self, monkeypatch):
        expected = [bf_polynomial_genfunc(n) for n in range(25)]

        def forbidden(self):
            raise AssertionError("a default polynomial route inverted a series")

        monkeypatch.setattr(TruncatedSeries, "inverse", forbidden)
        for n in range(25):
            assert bf_polynomial(n) == expected[n]
        for n in range(1, 25):
            h_n = expected[n] + Polynomial.monomial(n - 1, F(fib(n)))
            assert h_polynomial_sum(n) == h_n
        assert bf_eval(6, 1) == F(101, 39)

    def test_genfunc_reads_a_reciprocal_passed_alone(self):
        table = FibTable(9)
        coeffs = list(bernoulli._inverse_shifted_exponential(8, table.factorial).coeffs)
        coeffs[3] += F(1, 7)
        perturbed = TruncatedSeries(coeffs)
        for n in range(3, 9):
            alone = bf_polynomial_genfunc(n, perturbed)
            assert alone == bf_polynomial_genfunc(n, perturbed, table)
            assert alone != bf_polynomial_genfunc(n)

    def test_genfunc_degree_zero(self):
        assert bf_polynomial_genfunc(0) == poly(1)

    def test_genfunc_never_reads_numbers(self, monkeypatch):
        expected = [bf_polynomial(n) for n in range(33)]
        # a reciprocal and table shared by every degree, as verify_identities shares them
        table = FibTable(33)
        reciprocal = bernoulli._inverse_shifted_exponential(32, table.factorial)

        def forbidden(*args, **kwargs):
            raise AssertionError("the generating-function route read a number")

        monkeypatch.setattr(bernoulli, "bf_numbers_series", forbidden)
        monkeypatch.setattr(bernoulli, "bf_numbers_recursive", forbidden)
        for n in range(33):
            assert bf_polynomial_genfunc(n) == expected[n]
            assert bf_polynomial_genfunc(n, reciprocal, table) == expected[n]


class TestEvaluation:
    def test_at_zero_gives_numbers(self):
        numbers = bf_numbers_series(12)
        for n in range(13):
            assert bf_eval(n, 0) == numbers[n]
        for n in range(7):
            assert bf_eval(n, 0) == BF_NUMBERS[n]

    def test_at_one_published_values(self):
        assert bf_eval(2, 1) == F(1, 2)
        assert bf_eval(6, 1) == F(101, 39)

    def test_value_identity_excludes_degree_one(self):
        # B^F_1(1) = 0 while b^F_1 = -1; the identity starts at n = 2
        assert bf_eval(1, 1) == 0
        for n in range(2, 20):
            assert bf_eval(n, 1) == bf_numbers_series(n)[n]

    def test_rational_point(self):
        # direct Horner oracle over the frozen reduced coefficients
        coeffs = [F(3, 10), F(-1), F(3), F(-3), F(1)]
        point = F(1, 2)
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * point + c
        assert acc == F(19, 80)
        assert bf_eval(4, F(1, 2)) == F(19, 80)


class TestVerifyExamples:
    def test_derivative_identity_at_n3(self):
        # D_F(B_3^F) = F_3 B_2^F = 2x^2 - 2x + 1
        from goldencalc import golden_derivative

        assert golden_derivative(bf_polynomial(3)) == poly(1, -2, 2)
        assert poly(1, -2, 2) == bf_polynomial(2) * 2

    def test_summation_identity_at_n2(self):
        # [2,0] B_0^F + [2,1] B_1^F = 1 + (x - 1) = x = F_2 x
        assert bf_polynomial(0) + bf_polynomial(1) == poly(0, 1)


def h_explicit(n):
    """H_n's closed form from the series numbers and the Pascal row [n, 0..n]."""
    rows = tuple(fibonomial_rows(FibTable(n)))
    return h_polynomial_explicit(n, bf_numbers_series(n), rows[n])


class TestHPolynomials:
    def test_degree_one_cancels_constants(self):
        assert h_polynomial_sum(1) == poly(0, 1)
        assert h_explicit(1) == poly(0, 1)

    def test_degree_two(self):
        assert h_polynomial_sum(2) == poly(F(1, 2), 0, 1)
        assert h_explicit(2) == poly(F(1, 2), 0, 1)

    def test_both_derivations_agree_to_32(self):
        for n in range(1, 33):
            assert h_polynomial_sum(n) == h_explicit(n)

    def test_closed_form_relation(self):
        for n in range(1, 20):
            expected = bf_polynomial(n) + Polynomial.monomial(n - 1, F(fib(n)))
            assert h_polynomial_sum(n) == expected

    def test_shared_inputs_give_the_same_polynomials(self):
        # numbers to 2N and rows 0..2N+1, shared by every degree up to N = 12
        numbers = bf_numbers_series(24)
        rows = tuple(fibonomial_rows(FibTable(25)))
        for n in range(1, 13):
            expected = h_polynomial_sum(n)
            polynomial = bf_polynomial(n, numbers, rows[n])
            assert polynomial + Polynomial.monomial(n - 1, F(fib(n))) == expected
            assert h_polynomial_explicit(n, numbers, rows[n]) == expected

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            h_polynomial_sum(0)
        with pytest.raises(ValueError):
            h_polynomial_explicit(0, [F(1)], (1,))


class TestClassicalBaseline:
    def test_published_numbers(self):
        assert classical_bernoulli_numbers(6) == CLASSICAL_NUMBERS

    def test_recursive_route_matches_series_to_64(self, monkeypatch):
        expected = classical_bernoulli_numbers(64)

        def forbidden(self):
            raise AssertionError("the recursive route inverted a series")

        monkeypatch.setattr(TruncatedSeries, "inverse", forbidden)
        assert classical_bernoulli_numbers_recursive(64) == expected
        assert classical_bernoulli_numbers_recursive(0) == [1]

    def test_recursive_route_matches_series_at_192(self):
        # the sum-rule solver shared with the Fibonacci family, on binomial rows
        assert classical_bernoulli_numbers_recursive(192) == classical_bernoulli_numbers(192)

    def test_odd_numbers_vanish(self):
        numbers = classical_bernoulli_numbers(33)
        for k in range(1, 16):
            assert numbers[2 * k + 1] == 0

    def test_published_polynomials(self):
        assert classical_bernoulli_polynomial(0) == poly(1)
        assert classical_bernoulli_polynomial(1) == poly(F(-1, 2), 1)
        assert classical_bernoulli_polynomial(2) == poly(F(1, 6), -1, 1)
        assert classical_bernoulli_polynomial(3) == poly(0, F(1, 2), F(-3, 2), 1)
        assert classical_bernoulli_polynomial(6) == poly(
            F(1, 42), 0, F(-1, 2), 0, F(5, 2), -3, 1
        )

    def test_sum_identity(self):
        import math

        numbers = classical_bernoulli_numbers(32)
        for n in range(2, 33):
            assert sum(math.comb(n, j) * numbers[j] for j in range(n)) == 0

    def test_value_at_one(self):
        numbers = classical_bernoulli_numbers(32)
        for n in range(2, 33):
            assert classical_bernoulli_polynomial(n, numbers)(F(1)) == numbers[n]

    def test_derivative_lowers_degree(self):
        numbers = classical_bernoulli_numbers(32)
        values = FibTable(32, *bernoulli.CLASSICAL).values  # U_n = n
        for n in range(1, 33):
            lhs = lucas_derivative(classical_bernoulli_polynomial(n, numbers), values)
            rhs = classical_bernoulli_polynomial(n - 1, numbers) * n
            assert lhs == rhs

