import math
import pickle
import time
from fractions import Fraction

import pytest

from goldencalc import (
    FibTable,
    GoldenNumber,
    Polynomial,
    TruncatedSeries,
    bf_numbers_recursive,
    bf_numbers_series,
    classical_bernoulli_numbers,
    classical_bernoulli_numbers_recursive,
    classical_bernoulli_polynomial,
    core_property_reports,
    fibonomial_rows,
    verify_identities,
)
from goldencalc import verify
from goldencalc.bernoulli import CLASSICAL, FIBONACCI
from goldencalc.polynomials import linear_combination
from goldencalc.verify import Counterexample, VerificationReport, _run

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


def _skewed_rows(monkeypatch, module, family, n, *ks):
    """Add 1 to each entry [n, k] of the rows of ``family``, a Lucas pair, that ``module`` reads."""
    rows = module.fibonomial_rows

    def skewed(table):
        for m, row in enumerate(rows(table)):
            hit = m == n and table.pair == family
            yield tuple(v + (k in ks) for k, v in enumerate(row)) if hit else row

    monkeypatch.setattr(module, "fibonomial_rows", skewed)


def test_fibonomial_symmetry_checks_the_pascal_rows(monkeypatch):
    _skewed_rows(monkeypatch, verify, FIBONACCI, 5, 4)
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


def test_fibonomial_integrality_checks_the_ratio_rule(monkeypatch):
    def wrong_f4_in_row_nine(ratio_rule_break, n, row, fibs):
        # the ratio rule reads F_4 one too high while it checks row 9
        if n == 9:
            fibs = fibs[:4] + (fibs[4] + 1,) + fibs[5:]
        return ratio_rule_break(n, row, fibs)

    _wrap(monkeypatch, "ratio_rule_break", wrong_f4_in_row_nine)
    core = {r.identity: r for r in core_property_reports(8)}
    report = core["fibonomial-integrality"]
    assert not report.passed
    assert report.statuses.count(False) == 1
    assert report.counterexample.degree == 9
    assert all(r.passed for name, r in core.items() if name != "fibonomial-integrality")


def _pair_of(args):
    """The Lucas pair of the family whose table, or rows, a builder's last input is.

    A family's rows give its pair (p, q) by [2, 1] = U_2 = p and [3, 1] = U_3 = p^2 - q.
    """
    last = args[-1]
    table = getattr(last, "__self__", last)  # a table, or one of its bound methods
    if isinstance(table, FibTable):
        return table.pair
    p = last[2][1]
    return p, p * p - last[3][1]


def _of_family(calls, family):
    """The recorded (args, result) of each call that read ``family``'s table or rows."""
    return [call for call in calls if _pair_of(call[0]) == family]


def test_constant_term_compares_genfunc_with_the_recursive_route(monkeypatch):
    _fault_in_a_number(monkeypatch, "_sum_rule_numbers", FIBONACCI, 10)
    reports = {r.identity: r for r in verify_identities(8)}
    report = reports["constant-term-equals-number"]
    assert not report.passed
    assert report.statuses.count(False) == 1
    assert report.counterexample.degree == 10


# The Bernoulli layer's Fibonacci-family identities; the other four check
# the classical family.
FIBONACCI_FAMILY = {name for name in EXPECTED_IDENTITIES if not name.startswith("classical-")}

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
    inverse = verify._inverse_shifted_exponential

    def faulty(order, factorial):
        reciprocal = inverse(order, factorial)
        if _pair_of((factorial,)) != FIBONACCI:
            return reciprocal
        coeffs = list(reciprocal.coeffs)
        coeffs[5] += Fraction(1, 7)
        return TruncatedSeries(coeffs)

    monkeypatch.setattr(verify, "_inverse_shifted_exponential", faulty)


def _fault_in_a_number(monkeypatch, name, family, index):
    """Add 1/7 to b_index of what ``verify.<name>`` returns for ``family``, a Lucas pair."""
    route = getattr(verify, name)

    def faulty(*args):
        numbers = route(*args)
        if _pair_of(args) == family:
            numbers[index] += Fraction(1, 7)
        return numbers

    monkeypatch.setattr(verify, name, faulty)


def _fault_in_an_appell_coefficient(monkeypatch, family, n, i):
    """Add 1/7 to the x^i coefficient of ``family``'s degree-n polynomial from ``verify._appell``."""
    appell = verify._appell
    row_n = tuple(fibonomial_rows(FibTable(n, *family)))[n]

    def faulty(row, numbers):
        polynomial = appell(row, numbers)
        if tuple(row) != row_n:
            return polynomial
        return polynomial + Polynomial.monomial(i, Fraction(1, 7))

    monkeypatch.setattr(verify, "_appell", faulty)


# fault -> the exact set of Bernoulli-layer identities it turns red at N = 16
BERNOULLI_FAULTS = [
    (
        "series reciprocal z^5 + 1/7",
        _fault_in_the_fibonacci_reciprocal,
        ROUTE_CROSS_CHECKS | {"number-sum-vanishes"},
    ),
    (
        "recursive b^F_5 + 1/7",
        lambda mp: _fault_in_a_number(mp, "_sum_rule_numbers", FIBONACCI, 5),
        ROUTE_CROSS_CHECKS | {"fibonomial-sum-recursion"},
    ),
    (
        "classical b_3 + 1/7",
        lambda mp: _fault_in_a_number(mp, "_numbers_from_reciprocal", CLASSICAL, 3),
        {"classical-number-sum-vanishes", "classical-odd-numbers-vanish", "classical-value-at-one"},
    ),
    # the classical polynomials read the sum-rule numbers, and only the
    # value at one sets them against the series numbers
    (
        "classical sum-rule b_4 + 1/7",
        lambda mp: _fault_in_a_number(mp, "_sum_rule_numbers", CLASSICAL, 4),
        {"classical-value-at-one"},
    ),
    # The Appell property D B_n = c_n B_(n-1) holds for any number sequence,
    # so only a fault in a family's rows turns its derivative identity red.
    (
        "Fibonacci row [5, 4] + 1",
        lambda mp: _skewed_rows(mp, verify, FIBONACCI, 5, 4),
        FIBONACCI_FAMILY,
    ),
    # B^F_5 is no longer Appell in the rows: every lower sum from n = 6 on reads it
    (
        "B^F_5's x^2 coefficient + 1/7",
        lambda mp: _fault_in_an_appell_coefficient(mp, FIBONACCI, 5, 2),
        {
            "polynomials-cross-method",
            "golden-derivative-lowers-degree",
            "fibonomial-sum-recursion",
            "value-at-one-equals-number",
            "h-polynomial-two-derivations",
            "h-polynomial-closed-form",
        },
    ),
    # row 6 stays symmetric, so of the row checks only the ratio rule rejects it
    (
        "Fibonacci row [6, 2] and [6, 4] + 1",
        lambda mp: _skewed_rows(mp, verify, FIBONACCI, 6, 2, 4),
        FIBONACCI_FAMILY,
    ),
    (
        "classical row [5, 4] + 1",
        lambda mp: _skewed_rows(mp, verify, CLASSICAL, 5, 4),
        {
            "classical-number-sum-vanishes",
            "classical-value-at-one",
            "classical-derivative-lowers-degree",
        },
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
    assert caught == EXPECTED_IDENTITIES


def test_a_pascal_row_fault_turns_the_fibonacci_family_red(monkeypatch):
    _skewed_rows(monkeypatch, verify, FIBONACCI, 5, 4)
    red = {r.identity for r in verify_identities(8) if not r.passed}
    assert len(FIBONACCI_FAMILY) == 9
    assert red == FIBONACCI_FAMILY


def _wrap(monkeypatch, name, faulty):
    """Replace ``verify.<name>`` by ``faulty(original, *args)``."""
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: faulty(original, *args))


def _phi_cubed_plus_one(ladders, m):
    phi_powers, conjugate_powers = ladders(m)
    return phi_powers[:3] + (phi_powers[3] + 1,) + phi_powers[4:], conjugate_powers


def _sign_flipped_in_degree_six(golden_binomial, n, row):
    coefficients = golden_binomial(n, row)
    if n != 6:
        return coefficients
    return coefficients[:2] + (-coefficients[2],) + coefficients[3:]


PASCAL_RECURSIONS = {"pascal-recursion-a", "pascal-recursion-b"}

# fault -> the exact set of core identities it turns red at N = 8
CORE_FAULTS = [
    (
        "Pascal row [5, 4] + 1",
        lambda mp: _skewed_rows(mp, verify, FIBONACCI, 5, 4),
        {"fibonomial-symmetry", "fibonomial-integrality"} | PASCAL_RECURSIONS,
    ),
    (
        "Binet F_7 + 1",
        lambda mp: _wrap(mp, "binet", lambda binet, n: binet(n) + (1 if n == 7 else 0)),
        {"binet-matches-recurrence"},
    ),
    (
        "phi^3 + 1",
        lambda mp: _wrap(mp, "golden_power_ladders", _phi_cubed_plus_one),
        PASCAL_RECURSIONS,
    ),
    (
        "sign of term 2 of the degree-6 Golden binomial",
        lambda mp: _wrap(mp, "golden_binomial", _sign_flipped_in_degree_six),
        {"golden-binomial-signs"},
    ),
    (
        "dilatation derivative + 1 at degree 5",
        lambda mp: _wrap(
            mp, "golden_derivative_dilatation", lambda d, p: d(p) + (1 if p.degree == 5 else 0)
        ),
        {"golden-derivative-dilatation-oracle"},
    ),
]


def test_every_core_identity_turns_red_under_some_fault(monkeypatch):
    caught = set()
    for fault, inject, expected in CORE_FAULTS:
        with monkeypatch.context() as patched:
            inject(patched)
            red = {r.identity for r in core_property_reports(8) if not r.passed}
        assert red == expected, fault
        caught |= red
    assert caught == EXPECTED_CORE


def test_a_pascal_recursion_counterexample_quotes_both_entries(monkeypatch):
    _wrap(monkeypatch, "golden_power_ladders", _phi_cubed_plus_one)
    reports = {r.identity: r for r in core_property_reports(8)}
    assert reports["pascal-recursion-a"].counterexample == Counterexample(4, "k=1: 4", "k=1: 3")


def test_no_factorial_ratio_outside_the_integrality_check(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a factorial-ratio Fibonomial was taken")

    monkeypatch.setattr(FibTable, "fibonomial", forbidden)
    assert all(report.passed for report in verify_identities(16))
    assert all(report.passed for report in core_property_reports(16))


def _recorded(monkeypatch, name):
    """The (args, result) of each call of ``verify.<name>`` from now on."""
    calls = []
    original = getattr(verify, name)

    def recording(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, name, recording)
    return calls


# what verify._family builds each family's inputs with, once per degree
INPUT_BUILDERS = (
    "fibonomial_rows",
    "_inverse_shifted_exponential",
    "_numbers_from_reciprocal",
    "_sum_rule_numbers",
    "_appell",
)


def _inputs_of_verify_identities(monkeypatch, max_degree):
    """The recorded calls of each input builder in one passing ``verify_identities``."""
    calls = {name: _recorded(monkeypatch, name) for name in INPUT_BUILDERS}
    assert all(report.passed for report in verify_identities(max_degree))
    return calls


def test_polynomials_are_built_only_to_the_polynomial_degree(monkeypatch):
    calls = _inputs_of_verify_identities(monkeypatch, 8)
    # the Fibonacci family is built first, then the classical one
    degrees = [len(row) - 1 for (row, _), _ in calls["_appell"]]
    assert degrees[:9] == list(range(9))
    assert degrees[9:] == list(range(9))
    [(_, classical)] = _of_family(calls["_numbers_from_reciprocal"], CLASSICAL)
    assert len(classical) == 9
    [(_, series)] = _of_family(calls["_numbers_from_reciprocal"], FIBONACCI)
    [((_, rows), recursive)] = _of_family(calls["_sum_rule_numbers"], FIBONACCI)
    assert len(series) == len(recursive) == 17
    assert len(rows) == 18


def test_builds_the_pascal_rows_once(monkeypatch):
    # once per family: the Fibonomials to 2N+1 and the binomials to N+1
    calls = _recorded(monkeypatch, "fibonomial_rows")
    assert all(report.passed for report in verify_identities(16))
    built = [(table.pair, table.limit) for (table,), _ in calls]
    assert built == [(FIBONACCI, 33), (CLASSICAL, 17)]


def test_polynomials_are_built_from_the_recursive_numbers(monkeypatch):
    calls = _inputs_of_verify_identities(monkeypatch, 12)
    [(_, series)] = _of_family(calls["_numbers_from_reciprocal"], FIBONACCI)
    [(_, recursive)] = _of_family(calls["_sum_rule_numbers"], FIBONACCI)
    assert series == bf_numbers_series(24)
    for n, ((row, numbers), polynomial) in enumerate(calls["_appell"][:13]):
        # built from the recursive numbers, checked against the series ones
        assert len(row) - 1 == n and numbers is recursive
        assert polynomial.coefficient(0) == series[n]
        assert polynomial.degree == n


def test_builds_every_route_of_one_degree(monkeypatch):
    # polynomials to the degree, numbers to twice it
    calls = _inputs_of_verify_identities(monkeypatch, 12)
    [((table,), _), ((classical_table,), _)] = calls["fibonomial_rows"]
    assert table.limit == 25
    assert classical_table.limit == 13
    [((order, _), reciprocal)] = _of_family(calls["_inverse_shifted_exponential"], FIBONACCI)
    assert order == reciprocal.order == 24
    [((_, rows), recursive)] = _of_family(calls["_sum_rule_numbers"], FIBONACCI)
    assert rows == tuple(fibonomial_rows(FibTable(25)))
    assert recursive == bf_numbers_recursive(24)
    assert len(calls["_appell"]) == 2 * 13
    [(_, classical)] = _of_family(calls["_numbers_from_reciprocal"], CLASSICAL)
    assert classical == classical_bernoulli_numbers(12)
    [(_, classical_sum_rule)] = _of_family(calls["_sum_rule_numbers"], CLASSICAL)
    assert classical_sum_rule == classical_bernoulli_numbers_recursive(12)
    for n, ((row, numbers), polynomial) in enumerate(calls["_appell"][13:]):
        # the classical polynomials read the rows built once, C(n, 0..n)
        assert len(row) - 1 == n and numbers is classical_sum_rule
        assert row == tuple(math.comb(n, k) for k in range(n + 1))
        assert polynomial == classical_bernoulli_polynomial(n)


def test_the_classical_series_numbers_read_no_row(monkeypatch):
    # hand the classical family Fibonacci rows: only a route that reads no row keeps its numbers
    rows = verify.fibonomial_rows
    monkeypatch.setattr(verify, "fibonomial_rows", lambda table: rows(FibTable(table.limit)))
    calls = _recorded(monkeypatch, "_numbers_from_reciprocal")
    red = {r.identity for r in verify_identities(16) if not r.passed}
    [(_, classical)] = _of_family(calls, CLASSICAL)
    assert classical == classical_bernoulli_numbers(16)
    assert "classical-number-sum-vanishes" in red
    assert "classical-odd-numbers-vanish" not in red


@pytest.mark.parametrize("pair", [(2, -1), (1, -2), (3, 2)], ids=["pell", "jacobsthal", "3,2"])
def test_one_family_builder_serves_any_lucas_pair(pair):
    # a route with a hidden Fibonacci-only assumption turns red on these pairs
    family = verify._family(pair, 48, 24)
    assert family.table.pair == pair
    assert family.series_numbers == family.sum_rule_numbers
    assert len(family.series_numbers) == 49 and len(family.polys) == 25
    for n, polynomial in enumerate(family.polys):
        assert polynomial == verify._genfunc(n, family.reciprocal, family.table)
    sum_rule, value_at_one, lowering = verify._family_checks(family)
    assert _run("sum rule", 2, 48, sum_rule).passed
    assert _run("value at one", 2, 24, value_at_one).passed
    assert _run("lowering derivative", 1, 24, lowering).passed


def _direct_lower_sums(family):
    """The sums over l < n of [n, l] B_l, each formed term by term."""
    rows, polys = family.rows, family.polys
    return [None] + [linear_combination(zip(rows[n][:n], polys)) for n in range(1, len(polys))]


@pytest.mark.parametrize(
    "pair", [FIBONACCI, (2, -1), (1, -2), (3, 2)], ids=["fibonacci", "pell", "jacobsthal", "3,2"]
)
def test_factored_lower_sums_equal_the_direct_sums(pair):
    family = verify._family(pair, 48, 48)
    assert verify._lower_sums(family) == _direct_lower_sums(family)


def test_lower_sums_past_a_broken_factorization_are_the_direct_sums():
    family = verify._family(FIBONACCI, 16, 16)
    rows, polys = list(family.rows), list(family.polys)
    # row 6 symmetric but not [6, .]; B^F_5 off by 1/7 at x^2; B^F_3 with an x^5 term
    skewed = rows[:6] + [tuple(v + (k in (2, 4)) for k, v in enumerate(rows[6]))] + rows[7:]
    off = polys[:5] + [polys[5] + Polynomial.monomial(2, Fraction(1, 7))] + polys[6:]
    raised = polys[:3] + [polys[3] + Polynomial.monomial(5)] + polys[4:]
    for faulted in (
        family._replace(rows=tuple(skewed)),
        family._replace(polys=off),
        family._replace(polys=raised),
    ):
        lower_sums = verify._lower_sums(faulted)
        assert lower_sums == _direct_lower_sums(faulted)
        assert lower_sums != verify._lower_sums(family)


def test_reports_are_deterministic():
    assert verify_identities(4) == verify_identities(4)
    assert core_property_reports(2) == core_property_reports(2)


def test_bound_below_two_rejected():
    with pytest.raises(ValueError):
        verify_identities(1)
    with pytest.raises(ValueError):
        core_property_reports(1)


def test_no_report_covers_an_empty_range():
    # at degree 2, classical-odd-numbers-vanish would cover 3..2
    with pytest.raises(ValueError, match="at least 3"):
        verify_identities(2)
    with pytest.raises(ValueError, match="empty range 3..2"):
        _run("synthetic", 3, 2, lambda n: (n, n), step=2)


def test_failure_captures_first_counterexample():
    report = _run("synthetic", 0, 3, lambda n: (n * n, n + n))
    # n*n == n+n only for n in {0, 2}
    assert report.statuses == (True, False, True, False)
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample.degree == 1
    assert report.counterexample.lhs == "1"
    assert report.counterexample.rhs == "2"


def test_counterexample_text_of_exact_values():
    report = _run("synthetic", 0, 0, lambda n: (Fraction(1, 2), Fraction(1, 3)))
    assert report.counterexample.lhs == "1/2"
    assert report.counterexample.rhs == "1/3"
    report = _run("synthetic", 0, 0, lambda n: (Polynomial([1, 2]), Polynomial([1])))
    assert report.counterexample.lhs == "2 x + 1"


def test_equal_values_beyond_the_str_limit_pass():
    # Python refuses int -> str past 4300 digits; equal values are never rendered.
    big = Fraction(10**5000 + 1, 3)
    sides = [(big, Fraction(3 * 10**5000 + 3, 9)), (big, big)]
    report = _run("synthetic", 0, 1, sides.__getitem__)
    assert report.passed
    assert report.counterexample is None


def test_unequal_golden_numbers_beyond_the_str_limit_are_rendered():
    # as a failing pascal-recursion check at a large degree would report them
    report = _run("synthetic", 0, 0, lambda n: (GoldenNumber(10**5000 + 1, 3), GoldenNumber(0)))
    assert not report.passed
    assert report.counterexample.lhs == "1" + "0" * 4999 + "1 + 3*sqrt5"
    assert report.counterexample.rhs == "0"


def test_bernoulli_layer_inverts_one_series_per_family(monkeypatch):
    calls = []
    inverse = TruncatedSeries.inverse

    def counted(self):
        calls.append(self.order)
        return inverse(self)

    monkeypatch.setattr(TruncatedSeries, "inverse", counted)
    assert all(report.passed for report in verify_identities(16))
    # the Fibonacci family's reciprocal at order 2N, the classical one at N
    assert sorted(calls) == [16, 32]


def test_degree_64_within_wall_clock_cap():
    start = time.perf_counter()
    reports = verify_identities(64) + core_property_reports(64)
    elapsed = time.perf_counter() - start
    assert all(report.passed for report in reports)
    assert elapsed < 2.5, f"verify at degree 64 took {elapsed:.2f} s"


def test_passing_report_has_no_counterexample():
    report = _run("synthetic", 0, 2, lambda n: (n, n))
    assert report.passed
    assert report.counterexample is None


@pytest.mark.parametrize(
    "hi, step, indices", [(8, 1, [3, 4, 5, 6, 7, 8]), (8, 2, [3, 5, 7]), (9, 2, [3, 5, 7, 9])]
)
def test_run_checks_each_index_of_its_range_once_in_order(hi, step, indices):
    checked = []
    report = _run("synthetic", 3, hi, lambda n: checked.append(n) or (n, n), step=step)
    assert checked == indices
    assert report.statuses == (True,) * len(indices)
    assert (report.degree_min, report.degree_max) == (3, hi)


def test_report_value_semantics():
    report = VerificationReport("x", 0, 1, (True, True))
    assert report.passed
    assert report.counterexample is None
    assert report == VerificationReport("x", 0, 1, (True, True), None)
    assert hash(report) == hash(VerificationReport("x", 0, 1, (True, True)))
    assert report != VerificationReport("x", 0, 1, (True, False))
    assert report != VerificationReport("y", 0, 1, (True, True))
    failing = VerificationReport("x", 0, 1, (True, False), Counterexample(1, "0", "1"))
    assert failing == VerificationReport("x", 0, 1, (True, False), Counterexample(1, "0", "1"))
    assert failing != VerificationReport("x", 0, 1, (True, False), Counterexample(1, "0", "2"))
    # the CLI's forked worker sends its reports back pickled
    assert pickle.loads(pickle.dumps(failing)) == failing


@pytest.mark.parametrize(
    "statuses, passed",
    [((True,), True), ((True, True), True), ((True, False), False), ((False, True), False)],
)
def test_a_report_passes_when_every_status_does(statuses, passed):
    assert VerificationReport("x", 0, 1, statuses).passed is passed


def test_report_repr_names_the_type_and_each_field():
    report = VerificationReport("x", 0, 1, (False,), Counterexample(0, "1", "2"))
    assert repr(report) == (
        "VerificationReport(identity='x', degree_min=0, degree_max=1, statuses=(False,), "
        "counterexample=Counterexample(degree=0, lhs='1', rhs='2'))"
    )


@pytest.mark.parametrize(
    "record, attribute",
    [
        (VerificationReport("x", 0, 1, (True,)), "statuses"),
        (VerificationReport("x", 0, 1, (True,)), "counterexample"),
        (VerificationReport("x", 0, 1, (True,)), "passed"),
        (VerificationReport("x", 0, 1, (True,)), "note"),
        (Counterexample(0, "1", "2"), "lhs"),
        (Counterexample(0, "1", "2"), "note"),
    ],
)
def test_report_attributes_cannot_be_assigned(record, attribute):
    with pytest.raises(AttributeError):
        setattr(record, attribute, None)
