from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldencalc import (
    PHI,
    SQRT5,
    GoldenNumber,
    Polynomial,
    TruncatedSeries,
    golden_derivative,
    golden_exponential,
)

from conftest import fib_factorial_by_product, rationals

F = Fraction

series_coefficients = st.lists(rationals, min_size=1, max_size=9)
invertible_series = series_coefficients.filter(lambda cs: cs[0] != 0).map(TruncatedSeries)


class TestSeriesArithmetic:
    def test_order_counts_coefficients(self):
        s = TruncatedSeries([F(1), F(2), F(3)])
        assert s.order == 2
        assert s.coefficient(2) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_mismatched_orders_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([F(1)]) * TruncatedSeries([F(1), F(1)])

    def test_truncated_product(self):
        a = TruncatedSeries([F(1), F(1), F(0)])
        b = TruncatedSeries([F(1), F(-1), F(0)])
        assert a * b == TruncatedSeries([F(1), F(0), F(-1)])

    @given(invertible_series, st.data())
    def test_mul_commutes(self, a, data):
        b = TruncatedSeries(
            data.draw(st.lists(rationals, min_size=a.order + 1, max_size=a.order + 1))
        )
        assert a * b == b * a

    @given(st.data())
    def test_mul_associative(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        coeffs = st.lists(rationals, min_size=n + 1, max_size=n + 1)
        a = TruncatedSeries(data.draw(coeffs))
        b = TruncatedSeries(data.draw(coeffs))
        c = TruncatedSeries(data.draw(coeffs))
        assert (a * b) * c == a * (b * c)


class TestInverse:
    def test_identity(self):
        one = TruncatedSeries.one(4)
        assert one.inverse() == one

    def test_geometric_series(self):
        s = TruncatedSeries([F(1), F(1), F(0), F(0)])
        assert s.inverse() == TruncatedSeries([F(1), F(-1), F(1), F(-1)])

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries([F(0), F(1)]).inverse()
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries([F(0), F(1)]).inverse_newton()

    def test_integer_coefficients_invert_to_fractions(self):
        inv = TruncatedSeries([1, 1, 0]).inverse()
        assert inv == TruncatedSeries([F(1), F(-1), F(1)])
        assert all(type(c) is Fraction for c in inv.coeffs)

    def test_inverse_over_golden_coefficients(self):
        s = TruncatedSeries([PHI, GoldenNumber(1), SQRT5, GoldenNumber(F(2, 3))])
        one = TruncatedSeries([GoldenNumber(1)] + [GoldenNumber(0)] * 3)
        assert s * s.inverse() == one

    def test_golden_exponential_inverse_roundtrip(self):
        e = golden_exponential(8)
        assert e * e.inverse() == TruncatedSeries.one(8)

    @given(invertible_series)
    @settings(max_examples=60)
    def test_two_sided_inverse(self, s):
        one = TruncatedSeries.one(s.order)
        inv = s.inverse()
        assert s * inv == one
        assert inv * s == one

    @given(invertible_series)
    @settings(max_examples=60)
    def test_newton_agrees_with_recurrence(self, s):
        assert s.inverse_newton() == s.inverse()

    def test_newton_agrees_at_larger_order(self):
        e = golden_exponential(50)
        assert e.inverse_newton() == e.inverse()


class TestGoldenExponential:
    def test_low_coefficients(self):
        e = golden_exponential(5)
        assert e.coefficient(0) == 1
        assert e.coefficient(4) == F(1, 6)
        assert e.coefficient(5) == F(1, 30)

    def test_against_factorial_oracle(self):
        e = golden_exponential(20)
        for n in range(21):
            assert e.coefficient(n) == F(1, fib_factorial_by_product(n))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            golden_exponential(-1)


class TestGoldenExponentialInX:
    def test_eigenfunction_property(self):
        # D_F(x^n/F_n!) = x^(n-1)/F_(n-1)!: each term of e_F(zx) is lowered
        # to the one before, i.e. D_F e_F(zx) = z e_F(zx) coefficientwise
        e = golden_exponential(12)
        for n in range(1, 13):
            term = Polynomial.monomial(n, e.coefficient(n))
            assert golden_derivative(term) == Polynomial.monomial(n - 1, e.coefficient(n - 1))
