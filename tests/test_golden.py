from fractions import Fraction

import pytest
from hypothesis import given

from goldencalc import PHI, PHI_CONJUGATE, SQRT5, ExactnessError, GoldenNumber

from conftest import golden_numbers, nonzero_golden_numbers, rationals


def test_golden_ratio_constants():
    assert PHI == GoldenNumber(Fraction(1, 2), Fraction(1, 2))
    assert PHI_CONJUGATE == GoldenNumber(Fraction(1, 2), Fraction(-1, 2))
    assert PHI + PHI_CONJUGATE == 1
    assert PHI * PHI_CONJUGATE == -1
    assert PHI_CONJUGATE == -PHI.inverse()


def test_both_roots_satisfy_quadratic():
    for root in (PHI, PHI_CONJUGATE):
        assert root * root - root - 1 == 0


def test_sqrt5_squares_to_five():
    assert SQRT5 * SQRT5 == 5
    assert PHI - PHI_CONJUGATE == SQRT5
    assert PHI + PHI.inverse() == SQRT5


@given(golden_numbers, golden_numbers, golden_numbers)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(golden_numbers, golden_numbers, golden_numbers)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(golden_numbers, golden_numbers)
def test_commutative(x, y):
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_golden_numbers)
def test_multiplicative_inverse(x):
    assert x * x.inverse() == 1
    assert x.inverse() * x == 1
    assert 1 / x == x.inverse()


@given(golden_numbers)
def test_additive_inverse(x):
    assert x + (-x) == 0


@given(nonzero_golden_numbers)
def test_negative_powers(x):
    assert x**-3 == (x.inverse()) ** 3
    assert x**0 == 1


@given(rationals)
def test_rational_embedding(q):
    value = GoldenNumber.from_rational(q)
    assert value.to_rational() == q
    assert value == q
    # mixed arithmetic falls through to the Q(sqrt5) operations
    assert q + SQRT5 == GoldenNumber(q, 1)
    assert q * SQRT5 == GoldenNumber(0, q)


@given(golden_numbers, golden_numbers)
def test_components_stay_reduced_with_positive_denominator(x, y):
    for value in (x + y, x * y, x - y):
        for part in (value.a, value.b):
            assert part.denominator > 0
            from math import gcd

            assert gcd(abs(part.numerator), part.denominator) == 1


@given(golden_numbers, nonzero_golden_numbers)
def test_inverse_and_quotient_stay_reduced(x, y):
    for value in (y.inverse(), x / y, y**-2):
        for part in (value.a, value.b):
            assert part.denominator > 0
            from math import gcd

            assert gcd(abs(part.numerator), part.denominator) == 1


def test_equal_values_have_one_representation():
    halves = GoldenNumber(Fraction(2, 4), Fraction(-3, 6))
    assert halves == PHI_CONJUGATE
    assert hash(halves) == hash(PHI_CONJUGATE)
    assert GoldenNumber(Fraction(1, 3), Fraction(1, 6)).a == Fraction(1, 3)
    assert GoldenNumber(Fraction(1, 3), Fraction(1, 6)).b == Fraction(1, 6)
    assert PHI * 2 - SQRT5 == 1


def test_phi_power_components_are_lucas_and_fibonacci():
    # phi^n = (L_n + F_n sqrt5)/2
    lucas, fib = [2, 1], [0, 1]
    for _ in range(2, 301):
        lucas.append(lucas[-1] + lucas[-2])
        fib.append(fib[-1] + fib[-2])
    for n in (0, 1, 2, 7, 64, 300):
        power = PHI**n
        assert (power.a, power.b) == (Fraction(lucas[n], 2), Fraction(fib[n], 2))


def test_to_rational_guards_sqrt5_residue():
    with pytest.raises(ExactnessError):
        PHI.to_rational()
    # past the int<->str digit limit too: the message quotes the value by its ends
    with pytest.raises(ExactnessError) as caught:
        (PHI * 10**5000).to_rational()
    message = str(caught.value)
    assert "did not cancel" in message
    assert len(message) < 200


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        GoldenNumber(0, 0).inverse()


def test_hash_consistent_with_rational_equality():
    assert hash(GoldenNumber.from_rational(Fraction(3, 7))) == hash(Fraction(3, 7))


def test_str_forms():
    assert str(GoldenNumber(1, 0)) == "1"
    assert str(SQRT5) == "1*sqrt5"
    assert str(PHI) == "1/2 + 1/2*sqrt5"
    assert str(PHI_CONJUGATE) == "1/2 - 1/2*sqrt5"
    assert str(-SQRT5) == "-1*sqrt5"
    assert repr(PHI) == "GoldenNumber(Fraction(1, 2), Fraction(1, 2))"


def test_str_and_repr_past_the_int_str_limit():
    a, b = "1" + "0" * 4999 + "1", "1" + "0" * 5000
    huge = GoldenNumber(Fraction(10**5000 + 1, 3), -(10**5000))
    assert str(huge) == f"{a}/3 - {b}*sqrt5"
    assert repr(huge) == f"GoldenNumber(Fraction({a}, 3), Fraction(-{b}, 1))"
