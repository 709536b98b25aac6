"""Structured output documents and their renderers.

Every CLI command produces one OutputDocument; rendering is a pure
function of the document, so identical invocations are byte-identical.
All rational values cross the wire as strings "p/q" (reduced, q > 0) or
"p" when integral; see :func:`goldencalc.rationals.format_rational`.
Renderers never parse those strings back into numbers: a LaTeX fraction
is the wire string split at its "/", and plain text and LaTeX share one
term formatter, :func:`goldencalc.polynomials.render_terms`, for every
signed sum of monomials (B_n(x), (x+y)_F^n).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources

from .polynomials import binomial_factors, render_coefficients, render_terms
from .rationals import latex_rational


@dataclass(frozen=True)
class OutputDocument:
    kind: str
    metadata: dict
    payload: object

    def render(self, fmt: str) -> str:
        if fmt not in _RENDERERS:
            raise ValueError(f"unknown format: {fmt!r}")
        return _RENDERERS[fmt](self)


def load_schema() -> dict:
    """The JSON schema every JSON document validates against."""
    text = resources.files(__package__).joinpath("output_schema.json").read_text()
    return json.loads(text)


def _symbol(letter: str, variant: str, n, latex: bool = False) -> str:
    """b_n / B_n (classical) or b^F_n / B^F_n, in plain or LaTeX style."""
    if latex:
        return f"{letter}_{{{n}}}" if variant == "classical" else f"{letter}^{{F}}_{{{n}}}"
    return f"{letter}_{n}" if variant == "classical" else f"{letter}_{n}^F"


def _render_json(doc: OutputDocument) -> str:
    body = {"kind": doc.kind, "metadata": doc.metadata, "payload": doc.payload}
    return json.dumps(body, indent=2)


# -- CSV ---------------------------------------------------------------


def _render_csv(doc: OutputDocument) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for row in _csv_rows(doc):
        writer.writerow(row)
    return buffer.getvalue().rstrip("\r\n")


def _csv_rows(doc: OutputDocument):
    kind = doc.kind
    if kind == "numbers":
        if doc.metadata["method"] == "both":
            yield ["n", "series", "recursive", "match"]
            for row in doc.payload:
                yield [row["n"], row["series"], row["recursive"], str(row["match"]).lower()]
        else:
            yield ["n", "value"]
            for row in doc.payload:
                yield [row["n"], row["value"]]
    elif kind == "polynomials":
        yield ["degree", "coefficient"]
        for i, c in enumerate(doc.payload["coefficients"]):
            yield [i, c]
    elif kind == "fibonomials":
        yield ["n", "k", "value"]
        for row in doc.payload:
            for k, value in enumerate(row["row"]):
                yield [row["n"], k, value]
    elif kind == "binomial":
        yield ["k", "sign", "coefficient", "monomial"]
        for term in doc.payload["terms"]:
            yield [term["k"], term["sign"], term["coefficient"], term["monomial"]]
    elif kind == "evaluation":
        yield ["variant", "n", "x", "value"]
        meta = doc.metadata
        yield [meta["variant"], meta["n"], meta["x"], doc.payload["value"]]
    elif kind == "verification":
        yield [
            "identity",
            "degree_min",
            "degree_max",
            "checked",
            "passed",
            "counterexample_degree",
            "lhs",
            "rhs",
        ]
        for row in doc.payload:
            ce = row["counterexample"]
            yield [
                row["identity"],
                row["degree_min"],
                row["degree_max"],
                row["checked"],
                str(row["passed"]).lower(),
                "" if ce is None else ce["degree"],
                "" if ce is None else ce["lhs"],
                "" if ce is None else ce["rhs"],
            ]
    else:
        raise ValueError(f"unknown kind: {kind!r}")


# -- LaTeX -------------------------------------------------------------


def _tabular(header: list[str], rows: list[list[str]], column_format: str) -> str:
    lines = [f"\\begin{{tabular}}{{{column_format}}}", "\\hline"]
    lines.append(" & ".join(header) + r" \\")
    lines.append("\\hline")
    for row in rows:
        lines.append(" & ".join(row) + r" \\")
    lines.append("\\hline")
    lines.append("\\end{tabular}")
    return "\n".join(lines)


def _latex_numbers(doc: OutputDocument) -> str:
    symbol = _symbol("b", doc.metadata["variant"], "n", latex=True)
    if doc.metadata["method"] == "both":
        rows = [
            [
                str(row["n"]),
                f"${latex_rational(row['series'])}$",
                f"${latex_rational(row['recursive'])}$",
            ]
            for row in doc.payload
        ]
        return _tabular(["$n$", f"${symbol}$ (series)", f"${symbol}$ (recursive)"], rows, "rrr")
    rows = [[str(row["n"]), f"${latex_rational(row['value'])}$"] for row in doc.payload]
    return _tabular(["$n$", f"${symbol}$"], rows, "rr")


def _latex_polynomials(doc: OutputDocument) -> str:
    meta = doc.metadata
    sum_text = render_coefficients(doc.payload["coefficients"], latex=True)
    lines = [
        "\\begin{align*}",
        f"{_symbol('B', meta['variant'], meta['n'], latex=True)}(x) &= {sum_text}",
        "\\end{align*}",
    ]
    return "\n".join(lines)


def _latex_fibonomials(doc: OutputDocument) -> str:
    width = doc.metadata["max_n"] + 1
    rows = []
    for row in doc.payload:
        cells = [f"${v}$" for v in row["row"]]
        cells += [""] * (width - len(cells))
        rows.append([str(row["n"])] + cells)
    return _tabular(["$n$"] + [f"$k={k}$" for k in range(width)], rows, "r" * (width + 1))


def _latex_binomial(doc: OutputDocument) -> str:
    n = doc.metadata["n"]
    terms = (
        (
            term["coefficient"] if term["sign"] > 0 else f"-{term['coefficient']}",
            binomial_factors(n, term["k"]),
        )
        for term in doc.payload["terms"]
    )
    sum_text = render_terms(terms, latex=True)
    lines = [
        "\\begin{align*}",
        f"(x+y)_F^{{{n}}} &= {sum_text}",
        "\\end{align*}",
    ]
    return "\n".join(lines)


def _latex_evaluation(doc: OutputDocument) -> str:
    meta = doc.metadata
    point = latex_rational(meta["x"])
    value = latex_rational(doc.payload["value"])
    lines = [
        "\\begin{align*}",
        f"{_symbol('B', meta['variant'], meta['n'], latex=True)}({point}) &= {value}",
        "\\end{align*}",
    ]
    return "\n".join(lines)


def _latex_verification(doc: OutputDocument) -> str:
    rows = [
        [
            f"\\texttt{{{row['identity']}}}",
            f"{row['degree_min']}..{row['degree_max']}",
            "pass" if row["passed"] else "fail",
        ]
        for row in doc.payload
    ]
    return _tabular(["identity", "range", "result"], rows, "lrr")


_LATEX_RENDERERS = {
    "numbers": _latex_numbers,
    "polynomials": _latex_polynomials,
    "fibonomials": _latex_fibonomials,
    "binomial": _latex_binomial,
    "evaluation": _latex_evaluation,
    "verification": _latex_verification,
}


# -- plain text ---------------------------------------------------------


def _plain_numbers(doc: OutputDocument) -> str:
    variant = doc.metadata["variant"]
    lines = []
    if doc.metadata["method"] == "both":
        for row in doc.payload:
            match = "yes" if row["match"] else "NO"
            lines.append(
                f"{_symbol('b', variant, row['n'])}: series={row['series']} "
                f"recursive={row['recursive']} match={match}"
            )
    else:
        for row in doc.payload:
            lines.append(f"{_symbol('b', variant, row['n'])} = {row['value']}")
    return "\n".join(lines)


def _plain_polynomials(doc: OutputDocument) -> str:
    meta = doc.metadata
    return "\n".join(
        [
            f"{_symbol('B', meta['variant'], meta['n'])}(x) = {doc.payload['rendered']}",
            "coefficients (ascending): " + ", ".join(doc.payload["coefficients"]),
        ]
    )


def _plain_fibonomials(doc: OutputDocument) -> str:
    return "\n".join(
        f"row {row['n']}: " + " ".join(row["row"]) for row in doc.payload
    )


def _plain_binomial(doc: OutputDocument) -> str:
    return f"(x+y)_F^{doc.metadata['n']} = {doc.payload['rendered']}"


def _plain_evaluation(doc: OutputDocument) -> str:
    meta = doc.metadata
    return f"{_symbol('B', meta['variant'], meta['n'])}({meta['x']}) = {doc.payload['value']}"


def _plain_verification(doc: OutputDocument) -> str:
    lines = []
    for row in doc.payload:
        span = f"[{row['degree_min']}..{row['degree_max']}]"
        if row["passed"]:
            lines.append(f"PASS {row['identity']} {span} ({row['checked']} checks)")
        else:
            ce = row["counterexample"]
            lines.append(
                f"FAIL {row['identity']} {span}: counterexample at {ce['degree']}: "
                f"{ce['lhs']} != {ce['rhs']}"
            )
    failures = sum(1 for row in doc.payload if not row["passed"])
    lines.append(
        "all identities passed" if failures == 0 else f"FAILURES: {failures}"
    )
    return "\n".join(lines)


_PLAIN_RENDERERS = {
    "numbers": _plain_numbers,
    "polynomials": _plain_polynomials,
    "fibonomials": _plain_fibonomials,
    "binomial": _plain_binomial,
    "evaluation": _plain_evaluation,
    "verification": _plain_verification,
}


_RENDERERS = {
    "json": _render_json,
    "csv": _render_csv,
    "latex": lambda doc: _LATEX_RENDERERS[doc.kind](doc),
    "plain": lambda doc: _PLAIN_RENDERERS[doc.kind](doc),
}
FORMATS = tuple(_RENDERERS)
