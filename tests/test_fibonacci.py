import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest

from goldencalc import (
    PHI,
    ExactnessError,
    FibTable,
    binet,
    classical_bernoulli_numbers,
    classical_bernoulli_numbers_recursive,
    fibonomial_rec_a,
    fibonomial_rec_b,
    fibonomial_row,
    fibonomial_rows,
    fibonomial_triangle,
    golden_power_ladders,
)
from goldencalc import bernoulli, fibonacci
from goldencalc.bernoulli import CLASSICAL
from goldencalc.fibonacci import ratio_rule_break

from conftest import fib_by_addition, fib_factorial_by_product, fibonomial_by_ratio


def fib(n):
    return FibTable(n).fib(n)


class TestFib:
    def test_base_cases(self):
        assert fib(0) == 0
        assert fib(1) == 1
        assert fib(2) == 1

    def test_recurrence_forces_small_values(self):
        assert fib(7) == 13

    def test_against_addition_oracle(self):
        # frozen: fib_by_addition(50) == 12586269025
        assert fib_by_addition(50) == 12586269025
        assert fib(50) == 12586269025
        for n in range(100):
            assert fib(n) == fib_by_addition(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FibTable(-1)


class TestFibTable:
    def test_recurrence_invariant(self):
        # with no pair given, the table is the Fibonacci one
        table = FibTable(64)
        assert table.pair == (1, -1)
        assert table.values[0] == 0
        assert table.values[1] == 1
        assert table.values[2] == 1
        for n in range(2, 65):
            assert table.values[n] == table.values[n - 1] + table.values[n - 2]

    def test_factorial_invariant(self):
        table = FibTable(64)
        assert table.factorials[0] == 1
        for n in range(1, 65):
            assert table.factorials[n] == table.values[n] * table.factorials[n - 1]

    def test_limit_zero(self):
        table = FibTable(0)
        assert table.values == (0,)
        assert table.factorials == (1,)

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            FibTable(-1)


class TestClassicalTable:
    """The Lucas pair (2, 1): U_n = n, so the table holds n!, and its rows are C(n, k)."""

    def test_values_factorials_and_rows_match_the_stdlib(self):
        table = FibTable(200, *CLASSICAL)
        assert table.values == tuple(range(201))
        assert table.factorials == tuple(math.factorial(n) for n in range(201))
        for n, row in enumerate(fibonomial_rows(table)):
            assert row == tuple(math.comb(n, k) for k in range(n + 1))
        assert n == 200

    def test_series_route_reads_no_row(self, monkeypatch):
        def forbidden(table):
            raise AssertionError("the classical series route read a row")

        expected = classical_bernoulli_numbers_recursive(192)
        monkeypatch.setattr(bernoulli, "fibonomial_rows", forbidden)
        assert classical_bernoulli_numbers(192) == expected
        # the sum-rule route does read rows, so the patch is in force
        with pytest.raises(AssertionError, match="read a row"):
            classical_bernoulli_numbers_recursive(6)


class TestFibFactorial:
    def test_empty_product(self):
        assert FibTable(0).factorial(0) == 1

    def test_against_product_oracle(self):
        table = FibTable(39)
        assert fib_factorial_by_product(4) == 6
        assert table.factorial(4) == 6
        assert fib_factorial_by_product(5) == 30
        assert table.factorial(5) == 30
        for n in range(40):
            assert table.factorial(n) == fib_factorial_by_product(n)


class TestBinet:
    def test_zero(self):
        assert binet(0) == 0

    def test_small(self):
        assert binet(7) == 13

    def test_matches_recurrence_up_to_256(self):
        for n in range(257):
            value = binet(n)
            assert value.denominator == 1
            assert value == fib(n)


class TestFibonomial:
    def test_edges_are_one(self):
        table = FibTable(19)
        for n in range(20):
            assert table.fibonomial(n, 0) == 1
            assert table.fibonomial(n, n) == 1

    def test_against_ratio_oracle(self):
        table = FibTable(7)
        assert fibonomial_by_ratio(4, 2) == 6
        assert table.fibonomial(4, 2) == 6
        assert fibonomial_by_ratio(7, 3) == 260
        assert table.fibonomial(7, 3) == 260

    def test_row_seven(self):
        assert fibonomial_row(7) == (1, 13, 104, 260, 260, 104, 13, 1)

    def test_symmetry_and_integrality(self):
        table = FibTable(64)
        for n in range(65):
            for k in range(n + 1):
                value = table.fibonomial(n, k)
                assert value == table.fibonomial(n, n - k)
                ratio = Fraction(
                    table.factorial(n), table.factorial(n - k) * table.factorial(k)
                )
                assert ratio.denominator == 1
                assert ratio == value

    def test_k_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            FibTable(3).fibonomial(3, 4)


class TestFibonomialTriangle:
    """The one-pass Pascal triangle against the factorial-ratio route."""

    def test_row_seven(self):
        rows = list(fibonomial_triangle(7))
        assert len(rows) == 8
        assert rows[7] == (1, 13, 104, 260, 260, 104, 13, 1)

    def test_every_row_matches_factorial_ratio_up_to_120(self):
        for n, row in enumerate(fibonomial_triangle(120)):
            assert row == fibonomial_row(n)

    def test_rows_past_the_int_str_limit(self):
        rows = list(fibonomial_triangle(300))
        assert len(rows) == 301
        for row in rows:
            assert row == row[::-1]
        table = FibTable(300)
        for n in (299, 300):
            assert rows[n] == tuple(Decimal(table.fibonomial(n, k)) for k in range(n + 1))
        # the central entry is longer than the int<->str limit (4300 digits)
        assert len(str(rows[300][150])) > 4300

    def test_entries_are_exact_decimal_integers(self):
        for row in fibonomial_triangle(40):
            for value in row:
                assert isinstance(value, Decimal)
                assert value.as_tuple().exponent == 0

    def test_negative_rejected_before_iteration(self):
        with pytest.raises(ValueError):
            fibonomial_triangle(-1)

    def test_rule_builds_the_left_half_and_mirrors_the_rest(self, monkeypatch):
        multiplications = 0

        class Counting(Context):
            def multiply(self, a, b):
                nonlocal multiplications
                multiplications += 1
                return super().multiply(a, b)

        monkeypatch.setattr(fibonacci, "Context", Counting)
        rows = list(fibonomial_triangle(40))
        # two products per entry [n, 1..n/2]; the whole inner row takes 1560
        assert multiplications == sum(2 * (n // 2) for n in range(2, 41)) == 800
        for n, row in enumerate(rows):
            assert type(row) is tuple and len(row) == n + 1
            assert all(row[k] is row[n - k] for k in range(n + 1))


class TestFibonomialRows:
    """Int rows of the Pascal rule, the ones the recursive number route reads."""

    def test_rows_match_factorial_ratio_and_decimal_triangle_up_to_120(self):
        table = FibTable(120)
        rows = list(fibonomial_rows(table))
        assert len(rows) == 121
        for n, (row, decimal_row) in enumerate(zip(rows, fibonomial_triangle(120))):
            assert row == fibonomial_row(n)
            assert row == decimal_row
            assert all(type(value) is int for value in row)

    def test_smallest_tables(self):
        assert list(fibonomial_rows(FibTable(0))) == [(1,)]
        assert list(fibonomial_rows(FibTable(2))) == [(1,), (1, 1), (1, 1, 1)]

    def test_rule_covers_every_entry(self):
        # with F_3 one too big the rule is no longer symmetric in k and n-k,
        # so rows that were mirrored instead of computed would hide it
        table = FibTable(12)
        table.values = table.values[:3] + (table.values[3] + 1,) + table.values[4:]
        rows = list(fibonomial_rows(table))
        assert [n for n, row in enumerate(rows) if row != row[::-1]] == [3, *range(5, 13)]


class TestRatioRule:
    def test_accepts_exactly_the_fibonomial_row(self):
        fibs = FibTable(40).values
        for n in range(41):
            row = fibonomial_row(n)
            assert ratio_rule_break(n, row, fibs) is None
            for k in range(n + 1):
                skewed = row[:k] + (row[k] + 1,) + row[k + 1 :]
                assert ratio_rule_break(n, skewed, fibs) == k


def pascal_inputs(n):
    """[n-1, 0..n-1] by the Pascal rule, and the power ladders to n-1."""
    rows = list(fibonomial_rows(FibTable(n - 1)))
    return rows[n - 1], golden_power_ladders(n - 1)


class TestPascalRecursions:
    def test_trivial_inner_cell(self):
        assert fibonomial_rec_a(2, 1, *pascal_inputs(2)).to_rational() == 1

    def test_matches_factorial_ratio(self):
        assert fibonomial_rec_a(4, 2, *pascal_inputs(4)) == fibonomial_by_ratio(4, 2)
        assert fibonomial_rec_b(7, 3, *pascal_inputs(7)) == fibonomial_by_ratio(7, 3)

    def test_both_recursions_up_to_32(self):
        table = FibTable(32)
        for n in range(2, 33):
            inputs = pascal_inputs(n)
            for k in range(1, n):
                expected = table.fibonomial(n, k)
                a = fibonomial_rec_a(n, k, *inputs)
                b = fibonomial_rec_b(n, k, *inputs)
                assert a.to_rational() == expected
                assert b.to_rational() == expected

    def test_shared_table_and_ladders(self):
        # Pascal rows in, factorial ratios as the expected values
        table = FibTable(64)
        rows = list(fibonomial_rows(FibTable(31)))
        ladders = golden_power_ladders(32)
        for n in range(2, 33):
            for k in range(1, n):
                expected = table.fibonomial(n, k)
                assert fibonomial_rec_a(n, k, rows[n - 1], ladders) == expected
                assert fibonomial_rec_b(n, k, rows[n - 1], ladders) == expected

    def test_ladders_match_powers(self):
        phi_powers, conjugate_powers = golden_power_ladders(20)
        assert len(phi_powers) == len(conjugate_powers) == 21
        for k in range(21):
            assert phi_powers[k] == PHI**k
            assert conjugate_powers[k] == (-PHI.inverse()) ** k

    @pytest.mark.parametrize("bad", [(1, 1), (3, 0), (3, 3), (5, 7)])
    def test_precondition(self, bad):
        inputs = pascal_inputs(bad[0])
        with pytest.raises(ValueError):
            fibonomial_rec_a(*bad, *inputs)
        with pytest.raises(ValueError):
            fibonomial_rec_b(*bad, *inputs)


def test_inexact_division_trips_exactness_error():
    table = FibTable(5)
    assert table.fibonomial(5, 2) == 15
    # corrupt F_5! so 31/(F_3! F_2!) leaves a remainder; the guard must trip
    table.factorials = (1, 1, 1, 2, 6, 31)
    with pytest.raises(ExactnessError):
        table.fibonomial(5, 2)
