"""Structured output documents and their chunk writers.

Every CLI command produces one OutputDocument.  For each (format, kind)
there is one writer.  A JSON writer yields text chunks and any other
writer yields lines; :meth:`OutputDocument.chunks` joins either with its
format's separator ("" for JSON, "\\r\\n" for CSV, "\\n" for LaTeX and
plain text), so the chunks concatenate to the document in that format
without its final newline.  ``cli.main`` writes the chunks as they come,
so no format holds a whole table, and :meth:`OutputDocument.render` is
their join.  A payload may be a lazy, re-iterable view (the Fibonomial
triangle computes one row at a time); writers only iterate it.  Writing
is a pure function of the document, so identical invocations are
byte-identical.

The bytes are those of the standard encoders: JSON is
``json.dumps(body, indent=2)`` of ``{kind, metadata, payload}``, with a
payload list written item by item, and CSV is ``csv.writer``'s default
dialect (QUOTE_MINIMAL, "\\r\\n"), each record written by ``writerow``
(a Fibonomial row's records, ints and digit strings that need no quoting,
are joined directly).
All rational values cross the wire as strings "p/q" (reduced, q > 0) or
"p" when integral; see :func:`goldencalc.rationals.format_rational`.
Writers never parse those strings back into numbers: a LaTeX fraction
is the wire string split at its "/", and plain text and LaTeX share one
term formatter, :func:`goldencalc.polynomials.render_terms`, for every
signed sum of monomials (B_n(x), (x+y)_F^n).

An OutputDocument is a plain ``__slots__`` record of kind, metadata and
payload.  A ``verify`` payload holds one row per
:class:`goldencalc.verify.VerificationReport`, a named tuple.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Iterable, Iterator
from types import SimpleNamespace

from .polynomials import binomial_factors, render_coefficients, render_terms
from .rationals import latex_rational

# A JSON writer yields chunks; any other writer yields lines.  Either is joined by its separator.
_SEPARATORS = {"json": "", "csv": "\r\n", "latex": "\n", "plain": "\n"}
FORMATS = tuple(_SEPARATORS)


class OutputDocument:
    """A command's result: its kind, metadata dict and payload.

    The payload is iterated once per writing, so a lazy payload must be
    re-iterable.
    """

    __slots__ = ("kind", "metadata", "payload")

    def __init__(self, kind: str, metadata: dict, payload: object) -> None:
        self.kind = kind
        self.metadata = metadata
        self.payload = payload

    def chunks(self, fmt: str) -> Iterator[str]:
        """The document in ``fmt`` as text chunks, without the final newline."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format: {fmt!r}")
        writer = _WRITERS.get((fmt, self.kind))
        if writer is None:
            raise ValueError(f"unknown kind: {self.kind!r}")
        return _joined(writer, self, _SEPARATORS[fmt])

    def render(self, fmt: str) -> str:
        return "".join(self.chunks(fmt))


def _joined(writer: Callable, doc: OutputDocument, separator: str) -> Iterator[str]:
    """The chunks of ``separator.join(writer(doc))``."""
    lines = iter(writer(doc))
    for line in lines:
        yield line
        break
    for line in lines:
        yield separator + line


def load_schema() -> dict:
    """The JSON schema every JSON document validates against."""
    from importlib import resources  # only this reads package data; the CLI never does

    text = resources.files(__package__).joinpath("output_schema.json").read_text()
    return json.loads(text)


def _symbol(letter: str, variant: str, n, latex: bool = False) -> str:
    """b_n / B_n (classical) or b^F_n / B^F_n, in plain or LaTeX style."""
    if latex:
        return f"{letter}_{{{n}}}" if variant == "classical" else f"{letter}^{{F}}_{{{n}}}"
    return f"{letter}_{n}" if variant == "classical" else f"{letter}_{n}^F"


# -- JSON --------------------------------------------------------------


def _json(doc: OutputDocument) -> Iterator[str]:
    if isinstance(doc.payload, dict):
        return _json_document(doc, [_json_nested(doc.payload, 1)])
    return _json_document(doc, _json_list(_json_nested(item, 2) for item in doc.payload))


def _json_fibonomials(doc: OutputDocument) -> Iterator[str]:
    # every entry is a string of decimal digits, which JSON only quotes
    items = (
        f'{{\n      "n": {row["n"]},\n      "row": [\n        "'
        + '",\n        "'.join(row["row"])
        + '"\n      ]\n    }'
        for row in doc.payload
    )
    return _json_document(doc, _json_list(items))


def _json_document(doc: OutputDocument, payload: Iterable[str]) -> Iterator[str]:
    """``json.dumps({kind, metadata, payload}, indent=2)``, from the payload's chunks."""
    yield (
        f'{{\n  "kind": {_json_nested(doc.kind, 1)},\n'
        f'  "metadata": {_json_nested(doc.metadata, 1)},\n  "payload": '
    )
    yield from payload
    yield "\n}"


def _json_list(items: Iterable[str]) -> Iterator[str]:
    """The chunks of a list one level deep, from its items encoded two levels deep."""
    opener = "["
    for item in items:
        yield f"{opener}\n    {item}"
        opener = ","
    yield "[]" if opener == "[" else "\n  ]"


def _json_nested(value, depth: int) -> str:
    # JSON escapes a newline inside a string, so every newline here is indentation
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# -- CSV ---------------------------------------------------------------


# writerow returns what its file's write returns; this file's write returns the record
_CSV_RECORDS = csv.writer(SimpleNamespace(write=str))


def _csv_line(fields: Iterable) -> str:
    """One record as ``csv.writer`` writes it (default dialect), without its "\\r\\n"."""
    return _CSV_RECORDS.writerow(fields)[:-2]


def _flag(value: bool) -> str:
    return str(value).lower()


def _csv_numbers(doc: OutputDocument):
    if doc.metadata["method"] == "both":
        yield _csv_line(["n", "series", "recursive", "match"])
        for row in doc.payload:
            yield _csv_line([row["n"], row["series"], row["recursive"], _flag(row["match"])])
    else:
        yield _csv_line(["n", "value"])
        for row in doc.payload:
            yield _csv_line([row["n"], row["value"]])


def _csv_polynomials(doc: OutputDocument):
    yield _csv_line(["degree", "coefficient"])
    for i, c in enumerate(doc.payload["coefficients"]):
        yield _csv_line([i, c])


def _csv_fibonomials(doc: OutputDocument):
    yield _csv_line(["n", "k", "value"])
    for row in doc.payload:
        n = row["n"]
        # the row's records in one chunk; ints and decimal digit strings need no quoting
        entries = (f"{n},{k},{value}" for k, value in enumerate(row["row"]))
        yield _SEPARATORS["csv"].join(entries)


def _csv_binomial(doc: OutputDocument):
    yield _csv_line(["k", "sign", "coefficient", "monomial"])
    for term in doc.payload["terms"]:
        yield _csv_line([term["k"], term["sign"], term["coefficient"], term["monomial"]])


def _csv_evaluation(doc: OutputDocument):
    meta = doc.metadata
    yield _csv_line(["variant", "n", "x", "value"])
    yield _csv_line([meta["variant"], meta["n"], meta["x"], doc.payload["value"]])


def _csv_verification(doc: OutputDocument):
    yield _csv_line(
        [
            "identity",
            "degree_min",
            "degree_max",
            "checked",
            "passed",
            "counterexample_degree",
            "lhs",
            "rhs",
        ]
    )
    for row in doc.payload:
        ce = row["counterexample"]
        yield _csv_line(
            [
                row["identity"],
                row["degree_min"],
                row["degree_max"],
                row["checked"],
                _flag(row["passed"]),
                "" if ce is None else ce["degree"],
                "" if ce is None else ce["lhs"],
                "" if ce is None else ce["rhs"],
            ]
        )


# -- LaTeX and plain text ----------------------------------------------


def _tabular(header: list[str], rows: Iterable[list[str]], column_format: str) -> Iterator[str]:
    yield f"\\begin{{tabular}}{{{column_format}}}"
    yield "\\hline"
    yield " & ".join(header) + r" \\"
    yield "\\hline"
    for row in rows:
        yield " & ".join(row) + r" \\"
    yield "\\hline"
    yield "\\end{tabular}"


def _align(lhs: str, rhs: str) -> Iterator[str]:
    yield "\\begin{align*}"
    yield f"{lhs} &= {rhs}"
    yield "\\end{align*}"


def _latex_numbers(doc: OutputDocument):
    symbol = _symbol("b", doc.metadata["variant"], "n", latex=True)
    if doc.metadata["method"] == "both":
        rows = (
            [
                str(row["n"]),
                f"${latex_rational(row['series'])}$",
                f"${latex_rational(row['recursive'])}$",
            ]
            for row in doc.payload
        )
        header = ["$n$", f"${symbol}$ (series)", f"${symbol}$ (recursive)"]
        return _tabular(header, rows, "rrr")
    rows = ([str(row["n"]), f"${latex_rational(row['value'])}$"] for row in doc.payload)
    return _tabular(["$n$", f"${symbol}$"], rows, "rr")


def _latex_polynomials(doc: OutputDocument):
    meta = doc.metadata
    return _align(
        f"{_symbol('B', meta['variant'], meta['n'], latex=True)}(x)",
        render_coefficients(doc.payload["coefficients"], latex=True),
    )


def _latex_fibonomials(doc: OutputDocument):
    width = doc.metadata["max_n"] + 1
    rows = (
        [str(row["n"])] + [f"${v}$" for v in row["row"]] + [""] * (width - len(row["row"]))
        for row in doc.payload
    )
    return _tabular(["$n$"] + [f"$k={k}$" for k in range(width)], rows, "r" * (width + 1))


def _latex_binomial(doc: OutputDocument):
    n = doc.metadata["n"]
    terms = (
        (
            term["coefficient"] if term["sign"] > 0 else f"-{term['coefficient']}",
            binomial_factors(n, term["k"]),
        )
        for term in doc.payload["terms"]
    )
    return _align(f"(x+y)_F^{{{n}}}", render_terms(terms, latex=True))


def _latex_evaluation(doc: OutputDocument):
    meta = doc.metadata
    point = latex_rational(meta["x"])
    return _align(
        f"{_symbol('B', meta['variant'], meta['n'], latex=True)}({point})",
        latex_rational(doc.payload["value"]),
    )


def _latex_verification(doc: OutputDocument):
    rows = (
        [
            f"\\texttt{{{row['identity']}}}",
            f"{row['degree_min']}..{row['degree_max']}",
            "pass" if row["passed"] else "fail",
        ]
        for row in doc.payload
    )
    return _tabular(["identity", "range", "result"], rows, "lrr")


def _plain_numbers(doc: OutputDocument):
    variant = doc.metadata["variant"]
    if doc.metadata["method"] == "both":
        for row in doc.payload:
            match = "yes" if row["match"] else "NO"
            yield (
                f"{_symbol('b', variant, row['n'])}: series={row['series']} "
                f"recursive={row['recursive']} match={match}"
            )
    else:
        for row in doc.payload:
            yield f"{_symbol('b', variant, row['n'])} = {row['value']}"


def _plain_polynomials(doc: OutputDocument):
    meta = doc.metadata
    yield f"{_symbol('B', meta['variant'], meta['n'])}(x) = {doc.payload['rendered']}"
    yield "coefficients (ascending): " + ", ".join(doc.payload["coefficients"])


def _plain_fibonomials(doc: OutputDocument):
    for row in doc.payload:
        yield f"row {row['n']}: " + " ".join(row["row"])


def _plain_binomial(doc: OutputDocument):
    yield f"(x+y)_F^{doc.metadata['n']} = {doc.payload['rendered']}"


def _plain_evaluation(doc: OutputDocument):
    meta = doc.metadata
    yield f"{_symbol('B', meta['variant'], meta['n'])}({meta['x']}) = {doc.payload['value']}"


def _plain_verification(doc: OutputDocument):
    failures = 0
    for row in doc.payload:
        span = f"[{row['degree_min']}..{row['degree_max']}]"
        if row["passed"]:
            yield f"PASS {row['identity']} {span} ({row['checked']} checks)"
        else:
            failures += 1
            ce = row["counterexample"]
            yield (
                f"FAIL {row['identity']} {span}: counterexample at {ce['degree']}: "
                f"{ce['lhs']} != {ce['rhs']}"
            )
    yield "all identities passed" if failures == 0 else f"FAILURES: {failures}"


_WRITERS = {
    ("json", "numbers"): _json,
    ("json", "polynomials"): _json,
    ("json", "fibonomials"): _json_fibonomials,
    ("json", "binomial"): _json,
    ("json", "evaluation"): _json,
    ("json", "verification"): _json,
    ("csv", "numbers"): _csv_numbers,
    ("csv", "polynomials"): _csv_polynomials,
    ("csv", "fibonomials"): _csv_fibonomials,
    ("csv", "binomial"): _csv_binomial,
    ("csv", "evaluation"): _csv_evaluation,
    ("csv", "verification"): _csv_verification,
    ("latex", "numbers"): _latex_numbers,
    ("latex", "polynomials"): _latex_polynomials,
    ("latex", "fibonomials"): _latex_fibonomials,
    ("latex", "binomial"): _latex_binomial,
    ("latex", "evaluation"): _latex_evaluation,
    ("latex", "verification"): _latex_verification,
    ("plain", "numbers"): _plain_numbers,
    ("plain", "polynomials"): _plain_polynomials,
    ("plain", "fibonomials"): _plain_fibonomials,
    ("plain", "binomial"): _plain_binomial,
    ("plain", "evaluation"): _plain_evaluation,
    ("plain", "verification"): _plain_verification,
}
