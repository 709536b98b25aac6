import csv
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given
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
from goldencalc import cli, polynomials
from goldencalc.output import OutputDocument, _csv_line, load_schema
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

    def test_format_past_the_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        digits = "7" * (limit + 700)
        big = int(Decimal(digits))  # int(str) would hit the limit itself
        assert format_rational(big) == digits
        assert format_rational(F(-big, 3)) == f"-{digits}/3"
        assert format_rational(F(3, big)) == f"3/{digits}"
        assert sys.get_int_max_str_digits() == limit

    def test_parse(self):
        assert parse_rational("101/39") == F(101, 39)
        assert parse_rational("-5/8") == F(-5, 8)
        assert parse_rational(" 7 ") == F(7)
        assert parse_rational("-0/5") == 0
        assert parse_rational("+3/6") == F(1, 2)

    def test_parse_past_the_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        digits = "7" * (limit + 700)
        big = int(Decimal(digits))
        for text in (f"{digits}/3", f"-{digits}", f"3/{digits}"):
            assert format_rational(parse_rational(text)) == text
        assert parse_rational(f" +{digits}/3 ") == F(big, 3)
        assert parse_rational(f"{digits}/21") == F(big, 21)  # 7...7/21 reduces
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize(
        "text", ["7" * 4999 + "x", "1/" + "0" * 4999, "-" * 5000, "7" * 2500 + "/-" + "7" * 2500]
    )
    def test_long_malformed_literal_gets_a_short_message(self, text):
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        message = str(info.value)
        assert len(message) < 200
        assert f"({len(text)} characters)" in message
        assert text[:20] in message and text[-20:] in message

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")
        with pytest.raises(ValueError):
            parse_rational("1/0")
        # underscores, decimals, exponents and non-ASCII digits are not "p" or "p/q",
        # on any Python version
        for text in ["1_0", "1_0/3", "1.5", "1e3", "\u0661\u0662", "3/-4"]:
            with pytest.raises(ValueError, match="not an exact rational literal"):
                parse_rational(text)

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
    "verification": lambda: build_verification_document(3),
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
    payload = build_fibonomial_document(4).payload
    rows = list(payload)
    assert rows[4]["row"] == ["1", "3", "6", "3", "1"]
    assert rows[0]["row"] == ["1"]
    assert list(payload) == rows  # a lazy view, computed afresh on each pass
    with pytest.raises(ValueError):
        build_fibonomial_document(-1)


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
    # each term's "term" text renders that term alone; rebuilding the sum per term is O(n^2)
    calls = []
    original = polynomials.render_monomial

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polynomials, "render_monomial", counted)
    monkeypatch.setattr(cli, "render_monomial", counted)
    build_binomial_document(40)
    assert len(calls) == 3 * 41


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        build_fibonomial_document(1).render("xml")


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_json_is_json_dumps_with_indent_2(name):
    document = DOCUMENTS[name]()
    payload = document.payload
    body = {
        "kind": document.kind,
        "metadata": document.metadata,
        "payload": payload if isinstance(payload, dict) else list(payload),
    }
    assert document.render("json") == json.dumps(body, indent=2)


def test_json_of_an_empty_payload_list():
    document = OutputDocument("verification", {"max_degree": 2, "all_passed": True}, [])
    assert document.render("json") == json.dumps(
        {"kind": "verification", "metadata": document.metadata, "payload": []}, indent=2
    )


def test_a_document_holds_its_kind_metadata_and_payload_and_nothing_else():
    payload = {"terms": [], "rendered": "1"}
    doc = OutputDocument(kind="binomial", metadata={"n": 0}, payload=payload)
    assert (doc.kind, doc.metadata, doc.payload) == ("binomial", {"n": 0}, payload)
    with pytest.raises(AttributeError):
        doc.kinds = "numbers"  # a misspelt field is an error, not a new attribute


def _csv_writer_line(fields) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue()


csv_fields = st.lists(
    st.one_of(st.text(alphabet=st.sampled_from(',"\r\n ab1\u00e9')), st.text(), st.integers()),
    min_size=1,
    max_size=6,
)


@given(csv_fields)
@example([""])
@example(["", ""])
@example(["a,b", 'say "hi"', "cr\r", "lf\n", "", 7])
def test_csv_line_matches_csv_writer(fields):
    assert _csv_line(fields) + "\r\n" == _csv_writer_line(fields)


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
    assert "\\begin{tabular}" in build_verification_document(3).render("latex")


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
