import json
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from goldencalc import format_rational, parse_rational
from goldencalc.cli import (
    build_binomial_document,
    build_evaluation_document,
    build_fibonomial_document,
    build_numbers_document,
    build_polynomial_document,
    build_verification_document,
)
from goldencalc import polynomials
from goldencalc.output import OutputDocument, load_schema
from goldencalc.rationals import latex_rational

F = Fraction


class TestRationalWireFormat:
    @pytest.mark.parametrize(
        "value,text",
        [
            (F(0), "0"),
            (F(7), "7"),
            (F(-3), "-3"),
            (F(1, 2), "1/2"),
            (F(-101, 39), "-101/39"),
            (F(6, 4), "3/2"),
        ],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text

    def test_parse(self):
        assert parse_rational("101/39") == F(101, 39)
        assert parse_rational("-5/8") == F(-5, 8)
        assert parse_rational(" 7 ") == F(7)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @given(st.fractions())
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.fractions())
    def test_format_is_reduced_with_positive_denominator(self, q):
        text = format_rational(q)
        if "/" in text:
            p_text, q_text = text.split("/")
            import math

            assert int(q_text) > 0
            assert math.gcd(abs(int(p_text)), int(q_text)) == 1


class TestLatexHelpers:
    def test_latex_rational(self):
        assert latex_rational("3") == "3"
        assert latex_rational("1/2") == "\\frac{1}{2}"
        assert latex_rational("-5/8") == "-\\frac{5}{8}"

    def test_latex_rational_past_the_int_str_limit(self):
        # the wire string is split, never parsed back into a number
        numerator = "7" * 5000
        assert latex_rational(f"-{numerator}/3") == f"-\\frac{{{numerator}}}{{3}}"


@pytest.fixture(scope="module")
def schema():
    return load_schema()


DOCUMENTS = {
    "numbers": lambda: build_numbers_document("fib", 6, "series"),
    "numbers-both": lambda: build_numbers_document("fib", 4, "both"),
    "numbers-classical": lambda: build_numbers_document("classical", 6, "series"),
    "polynomials": lambda: build_polynomial_document("fib", 2),
    "fibonomials": lambda: build_fibonomial_document(7),
    "binomial": lambda: build_binomial_document(4),
    "evaluation": lambda: build_evaluation_document("fib", 6, F(1)),
    "verification": lambda: build_verification_document(2),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_documents_validate_against_schema(schema, name):
    document = DOCUMENTS[name]()
    jsonschema.validate(json.loads(document.render("json")), schema)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_rendering_is_deterministic(name):
    first = DOCUMENTS[name]()
    second = DOCUMENTS[name]()
    for fmt in ("json", "csv", "latex", "plain"):
        assert first.render(fmt) == second.render(fmt)


def test_schema_rejects_malformed_rational():
    schema = load_schema()
    document = json.loads(build_numbers_document("fib", 2, "series").render("json"))
    document["payload"][0]["value"] = "1.5"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(document, schema)


def test_numbers_document_rows():
    document = build_numbers_document("fib", 6, "series")
    values = [row["value"] for row in document.payload]
    assert values == ["1", "-1", "1/2", "-1/3", "3/10", "-5/8", "101/39"]
    assert document.payload[-1]["value"] == "101/39"


def test_numbers_document_single_row():
    document = build_numbers_document("fib", 0, "series")
    assert document.payload == [{"n": 0, "value": "1"}]


def test_numbers_both_match_flags():
    document = build_numbers_document("fib", 8, "both")
    assert all(row["match"] for row in document.payload)


def test_polynomial_document_coefficients():
    assert build_polynomial_document("fib", 1).payload["coefficients"] == ["-1", "1"]
    assert build_polynomial_document("fib", 2).payload["coefficients"] == [
        "1/2",
        "-1",
        "1",
    ]
    assert build_polynomial_document("classical", 2).payload["coefficients"] == [
        "1/6",
        "-1",
        "1",
    ]


def test_evaluation_document_values():
    assert build_evaluation_document("fib", 6, F(1)).payload["value"] == "101/39"
    assert build_evaluation_document("fib", 3, F(0)).payload["value"] == "-1/3"


def test_fibonomial_document_rows():
    document = build_fibonomial_document(4)
    assert document.payload[4]["row"] == ["1", "3", "6", "3", "1"]
    assert document.payload[0]["row"] == ["1"]


def test_binomial_document_terms():
    document = build_binomial_document(2)
    assert document.payload["rendered"] == "x^2 + xy - y^2"
    term = build_binomial_document(4).payload["terms"][2]
    assert term == {
        "k": 2,
        "sign": -1,
        "coefficient": "6",
        "monomial": "x^2 y^2",
        "term": "-6 x^2 y^2",
    }
    assert build_binomial_document(0).payload["rendered"] == "1"


def test_binomial_document_formats_each_term_once_per_field(monkeypatch):
    # term_text(k) formats term k alone; rebuilding the sum per term is O(n^2)
    calls = []
    original = polynomials.render_monomial
    monkeypatch.setattr(
        polynomials, "render_monomial", lambda *args: calls.append(args) or original(*args)
    )
    build_binomial_document(40)
    assert len(calls) == 3 * 41


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        build_fibonomial_document(1).render("xml")


def test_csv_has_header_and_quoting():
    document = build_numbers_document("fib", 2, "series")
    lines = document.render("csv").split("\r\n")
    assert lines[0] == "n,value"
    assert lines[1] == "0,1"

    # a field containing a comma must be quoted RFC-style
    doc = OutputDocument(
        "polynomials",
        {"variant": "fib", "n": 0},
        {"coefficients": ["1"], "rendered": "a,b"},
    )
    assert doc.render("csv").split("\r\n")[0] == "degree,coefficient"


def test_latex_contains_environments():
    assert "\\begin{tabular}" in build_numbers_document("fib", 2, "series").render("latex")
    assert "\\begin{align*}" in build_polynomial_document("fib", 2).render("latex")
    assert "\\frac{1}{2}" in build_polynomial_document("fib", 2).render("latex")
    assert "\\begin{tabular}" in build_fibonomial_document(3).render("latex")
    assert "\\begin{align*}" in build_evaluation_document("fib", 2, F(1)).render("latex")
    assert "\\begin{tabular}" in build_verification_document(2).render("latex")


def test_plain_verification_lists_counterexample():
    payload = [
        {
            "identity": "synthetic",
            "degree_min": 0,
            "degree_max": 3,
            "checked": 4,
            "passed": False,
            "counterexample": {"degree": 1, "lhs": "1", "rhs": "2"},
        }
    ]
    doc = OutputDocument("verification", {"max_degree": 2, "all_passed": False}, payload)
    text = doc.render("plain")
    assert "FAIL synthetic" in text
    assert "counterexample at 1: 1 != 2" in text
    assert "FAILURES: 1" in text
