import math
import time
from fractions import Fraction

import pytest

from goldencalc import (
    BernoulliFibTable,
    FibTable,
    Polynomial,
    TruncatedSeries,
    core_property_reports,
    fibonomial_rows,
    verify_identities,
)
from goldencalc import bernoulli, verify
from goldencalc.verify import VerificationReport, _run

EXPECTED_IDENTITIES = {
    "numbers-cross-method",
    "polynomials-cross-method",
    "golden-derivative-lowers-degree",
    "fibonomial-sum-recursion",
    "number-sum-vanishes",
    "value-at-one-equals-number",
    "h-polynomial-two-derivations",
    "h-polynomial-closed-form",
    "constant-term-equals-number",
    "classical-odd-numbers-vanish",
    "classical-number-sum-vanishes",
    "classical-value-at-one",
    "classical-derivative-lowers-degree",
}

EXPECTED_CORE = {
    "binet-matches-recurrence",
    "fibonomial-symmetry",
    "fibonomial-integrality",
    "pascal-recursion-a",
    "pascal-recursion-b",
    "golden-binomial-signs",
    "golden-derivative-dilatation-oracle",
}


def test_all_identities_pass_at_small_degree():
    reports = verify_identities(8)
    assert {r.identity for r in reports} == EXPECTED_IDENTITIES
    for report in reports:
        assert report.passed, report
        assert report.counterexample is None
        assert len(report.statuses) > 0


def test_core_properties_pass_at_small_degree():
    reports = core_property_reports(4)
    assert {r.identity for r in reports} == EXPECTED_CORE
    for report in reports:
        assert report.passed, report


def test_ranges_scale_with_bound():
    by_name = {r.identity: r for r in verify_identities(8)}
    assert by_name["numbers-cross-method"].degree_max == 16
    assert by_name["polynomials-cross-method"].degree_max == 8
    assert by_name["number-sum-vanishes"].degree_min == 2
    core = {r.identity: r for r in core_property_reports(8)}
    assert core["binet-matches-recurrence"].degree_max == 64
    assert core["fibonomial-symmetry"].degree_max == 16


def test_fibonomial_symmetry_checks_the_pascal_rows(monkeypatch):
    rows = list(fibonomial_rows(FibTable(16)))

    def skewed(table):
        for n, row in enumerate(rows):
            yield row[:-2] + (row[-2] + 1, row[-1]) if n == 5 else row

    monkeypatch.setattr(verify, "fibonomial_rows", skewed)
    core = {r.identity: r for r in core_property_reports(4)}
    report = core["fibonomial-symmetry"]
    assert len(report.statuses) == 9
    assert not report.passed
    assert report.counterexample.degree == 5
    # the skewed entry [5, 4] no longer matches the factorial ratio either
    integrality = core["fibonomial-integrality"]
    assert not integrality.passed
    assert integrality.counterexample.degree == 5
    assert integrality.counterexample.lhs == "k=4: 6"


def test_fibonomial_integrality_checks_the_factorial_ratio(monkeypatch):
    is_fibonomial = FibTable.is_fibonomial

    def off_by_one(self, n, k, value):
        # the factorial-ratio route says [9, 4] is one more than it is
        return is_fibonomial(self, n, k, value - 1 if (n, k) == (9, 4) else value)

    monkeypatch.setattr(FibTable, "is_fibonomial", off_by_one)
    core = {r.identity: r for r in core_property_reports(8)}
    report = core["fibonomial-integrality"]
    assert not report.passed
    assert report.statuses.count(False) == 1
    assert report.counterexample.degree == 9
    assert all(r.passed for name, r in core.items() if name != "fibonomial-integrality")


def test_constant_term_compares_genfunc_with_the_recursive_route(monkeypatch):
    recursive = bernoulli.bf_numbers_recursive

    def corrupted(*args, **kwargs):
        numbers = recursive(*args, **kwargs)
        numbers[10] += Fraction(1, 7)
        return numbers

    monkeypatch.setattr(bernoulli, "bf_numbers_recursive", corrupted)
    reports = {r.identity: r for r in verify_identities(8)}
    report = reports["constant-term-equals-number"]
    assert not report.passed
    assert report.statuses.count(False) == 1
    assert report.counterexample.degree == 10


# The Appell property D B_n = c_n B_(n-1) holds for any number sequence, so
# no fault in a number route can turn the two derivative identities red.
APPELL_IDENTITIES = {"golden-derivative-lowers-degree", "classical-derivative-lowers-degree"}

# identities that set the series route against the recursive route
ROUTE_CROSS_CHECKS = {
    "numbers-cross-method",
    "polynomials-cross-method",
    "value-at-one-equals-number",
    "h-polynomial-two-derivations",
    "h-polynomial-closed-form",
    "constant-term-equals-number",
}


def _fault_in_the_fibonacci_reciprocal(monkeypatch):
    inverse = bernoulli._inverse_shifted_exponential

    def faulty(order, factorial):
        reciprocal = inverse(order, factorial)
        if factorial is math.factorial:  # the classical family stays sound
            return reciprocal
        coeffs = list(reciprocal.coeffs)
        coeffs[5] += Fraction(1, 7)
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(bernoulli, "_inverse_shifted_exponential", faulty)


def _fault_in_a_number(monkeypatch, name, index):
    route = getattr(bernoulli, name)

    def faulty(*args, **kwargs):
        numbers = route(*args, **kwargs)
        numbers[index] += Fraction(1, 7)
        return numbers

    monkeypatch.setattr(bernoulli, name, faulty)


# fault -> the exact set of Bernoulli-layer identities it turns red at N = 16
BERNOULLI_FAULTS = [
    (
        "series reciprocal z^5 + 1/7",
        _fault_in_the_fibonacci_reciprocal,
        ROUTE_CROSS_CHECKS | {"number-sum-vanishes"},
    ),
    (
        "recursive b^F_5 + 1/7",
        lambda mp: _fault_in_a_number(mp, "bf_numbers_recursive", 5),
        ROUTE_CROSS_CHECKS | {"fibonomial-sum-recursion"},
    ),
    (
        "classical b_3 + 1/7",
        lambda mp: _fault_in_a_number(mp, "classical_bernoulli_numbers", 3),
        {"classical-number-sum-vanishes", "classical-odd-numbers-vanish", "classical-value-at-one"},
    ),
]


def test_every_bernoulli_identity_turns_red_under_some_fault(monkeypatch):
    caught = set()
    for fault, inject, expected in BERNOULLI_FAULTS:
        with monkeypatch.context() as patched:
            inject(patched)
            red = {r.identity for r in verify_identities(16) if not r.passed}
        assert red == expected, fault
        caught |= red
    assert EXPECTED_IDENTITIES - caught == APPELL_IDENTITIES


def test_no_factorial_ratio_outside_the_integrality_check(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a factorial-ratio Fibonomial was taken")

    monkeypatch.setattr(FibTable, "fibonomial", forbidden)
    assert all(report.passed for report in verify_identities(16))
    assert all(report.passed for report in core_property_reports(16))


def test_polynomials_are_built_only_to_the_polynomial_degree(monkeypatch):
    built = []
    build = BernoulliFibTable.build

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(BernoulliFibTable, "build", capture)
    assert all(report.passed for report in verify_identities(8))
    (memo,) = built
    assert len(memo.polynomials) == len(memo.classical_polynomials) == 9
    assert len(memo.classical_numbers) == 9
    assert len(memo.numbers) == len(memo.recursive_numbers) == 17
    assert len(memo.rows) == 18


def test_reports_are_deterministic():
    assert verify_identities(4) == verify_identities(4)
    assert core_property_reports(2) == core_property_reports(2)


def test_bound_below_two_rejected():
    with pytest.raises(ValueError):
        verify_identities(1)
    with pytest.raises(ValueError):
        core_property_reports(1)


def test_failure_captures_first_counterexample():
    report = _run("synthetic", 0, 3, ((n, n * n, n + n) for n in range(4)))
    # n*n == n+n only for n in {0, 2}
    assert report.statuses == (True, False, True, False)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.degree == 1
    assert report.counterexample.lhs == "1"
    assert report.counterexample.rhs == "2"


def test_counterexample_text_of_exact_values():
    report = _run("synthetic", 0, 1, [(0, Fraction(1, 2), Fraction(1, 3))])
    assert report.counterexample.lhs == "1/2"
    assert report.counterexample.rhs == "1/3"
    report = _run("synthetic", 0, 1, [(0, Polynomial([1, 2]), Polynomial([1]))])
    assert report.counterexample.lhs == "2 x + 1"


def test_equal_values_beyond_the_str_limit_pass():
    # Python refuses int -> str past 4300 digits; equal values are never rendered.
    big = Fraction(10**5000 + 1, 3)
    report = _run("synthetic", 0, 1, [(0, big, Fraction(3 * 10**5000 + 3, 9)), (1, big, big)])
    assert report.passed
    assert report.counterexample is None


def test_bernoulli_layer_inverts_one_series_per_family(monkeypatch):
    calls = []
    inverse = TruncatedSeries.inverse

    def counted(self):
        calls.append(self.order)
        return inverse(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    assert all(report.passed for report in verify_identities(16))
    assert len(calls) == 2


def test_degree_64_within_wall_clock_cap():
    start = time.perf_counter()
    reports = verify_identities(64) + core_property_reports(64)
    elapsed = time.perf_counter() - start
    assert all(report.passed for report in reports)
    assert elapsed < 2.5, f"verify at degree 64 took {elapsed:.2f} s"


def test_passing_report_has_no_counterexample():
    report = _run("synthetic", 0, 2, ((n, n, n) for n in range(3)))
    assert report.passed
    assert report.counterexample is None


def test_report_value_semantics():
    report = VerificationReport("x", 0, 1, (True, True))
    assert report.passed
    assert report == VerificationReport("x", 0, 1, (True, True))
