"""Command-line interface.

    goldencalc numbers fib 6 --method=both --format=csv
    goldencalc poly fib 2
    goldencalc eval fib 6 1
    goldencalc eval fib 4 --format plain -- -3/7
    goldencalc fibonomial 7
    goldencalc binomial 4 --format=latex
    goldencalc verify 32 --format=plain

A negative point such as -3/7 would be read as an option, so it goes
after "--", with every option before it.

Exit codes: 0 on success, 1 when `verify` finds a broken identity,
2 on usage errors, 3 on an unexpected internal error (reported in one
line on stderr).  Output goes to stdout unless --out is given.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .bernoulli import (
    bf_eval,
    bf_numbers_recursive,
    bf_numbers_series,
    bf_polynomial,
    classical_bernoulli_numbers,
    classical_bernoulli_numbers_recursive,
    classical_bernoulli_polynomial,
)
from .fibonacci import fibonomial_row
from .output import FORMATS, OutputDocument
from .polynomials import golden_binomial, render_coefficients
from .rationals import format_rational, parse_rational
from .verify import VerificationReport, core_property_reports, verify_identities

DEFAULT_VERIFY_BOUND = 32


def build_numbers_document(variant: str, max_n: int, method: str) -> OutputDocument:
    metadata = {"variant": variant, "max_n": max_n, "method": method}
    if variant == "classical":
        series_route = classical_bernoulli_numbers
        recursive_route = classical_bernoulli_numbers_recursive
    else:
        series_route, recursive_route = bf_numbers_series, bf_numbers_recursive
    series = series_route(max_n) if method in ("series", "both") else None
    recursive = recursive_route(max_n) if method in ("recursive", "both") else None
    if method == "both":
        payload = [
            {
                "n": n,
                "series": format_rational(series[n]),
                "recursive": format_rational(recursive[n]),
                "match": series[n] == recursive[n],
            }
            for n in range(max_n + 1)
        ]
    else:
        values = series if method == "series" else recursive
        payload = [
            {"n": n, "value": format_rational(values[n])} for n in range(max_n + 1)
        ]
    return OutputDocument("numbers", metadata, payload)


def build_polynomial_document(variant: str, n: int) -> OutputDocument:
    poly = (
        classical_bernoulli_polynomial(n) if variant == "classical" else bf_polynomial(n)
    )
    coefficients = [format_rational(poly.coefficient(i)) for i in range(n + 1)]
    payload = {"coefficients": coefficients, "rendered": render_coefficients(coefficients)}
    return OutputDocument("polynomials", {"variant": variant, "n": n}, payload)


def build_evaluation_document(variant: str, n: int, point: Fraction) -> OutputDocument:
    if variant == "classical":
        value = classical_bernoulli_polynomial(n)(point)
    else:
        value = bf_eval(n, point)
    metadata = {"variant": variant, "n": n, "x": format_rational(point)}
    return OutputDocument("evaluation", metadata, {"value": format_rational(value)})


def build_fibonomial_document(max_n: int) -> OutputDocument:
    payload = [
        {"n": n, "row": [str(v) for v in fibonomial_row(n)]}
        for n in range(max_n + 1)
    ]
    return OutputDocument("fibonomials", {"max_n": max_n}, payload)


def build_binomial_document(n: int) -> OutputDocument:
    expansion = golden_binomial(n)
    terms = [
        {
            "k": term.k,
            "sign": term.sign,
            "coefficient": str(term.coefficient),
            "monomial": expansion.monomial_text(term.k),
            "term": expansion.term_text(term.k),
        }
        for term in expansion.terms
    ]
    payload = {"terms": terms, "rendered": expansion.rendered()}
    return OutputDocument("binomial", {"n": n}, payload)


def build_verification_document(max_degree: int) -> OutputDocument:
    reports = verify_identities(max_degree) + core_property_reports(max_degree)
    payload = [_report_row(report) for report in reports]
    metadata = {
        "max_degree": max_degree,
        "all_passed": all(report.passed for report in reports),
    }
    return OutputDocument("verification", metadata, payload)


def _report_row(report: VerificationReport) -> dict:
    ce = report.counterexample
    return {
        "identity": report.identity,
        "degree_min": report.degree_min,
        "degree_max": report.degree_max,
        "checked": len(report.statuses),
        "passed": report.passed,
        "counterexample": None
        if ce is None
        else {"degree": ce.degree, "lhs": ce.lhs, "rhs": ce.rhs},
    }


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _verify_bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 2:
        raise argparse.ArgumentTypeError("verification bound must be at least 2")
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldencalc",
        description="Exact Golden-calculus tables: Fibonomials, Golden binomials, "
        "and Bernoulli-Fibonacci numbers and polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("numbers", help="Bernoulli(-Fibonacci) number table b_0..b_N")
    p.add_argument("variant", choices=("fib", "classical"))
    p.add_argument("max_n", type=_nonnegative_int, metavar="N")
    p.add_argument(
        "--method", choices=("series", "recursive", "both"), default="series"
    )
    add_io_options(p)

    p = sub.add_parser("poly", help="coefficients and rendering of B_n(x)")
    p.add_argument("variant", choices=("fib", "classical"))
    p.add_argument("n", type=_nonnegative_int)
    add_io_options(p)

    p = sub.add_parser("eval", help="exact value of B_n at a rational point")
    p.add_argument("variant", choices=("fib", "classical"))
    p.add_argument("n", type=_nonnegative_int)
    p.add_argument(
        "x",
        type=_rational,
        help='rational literal, e.g. "1" or "1/2"; a negative one goes after every '
        'option and "--", e.g. "eval fib 4 --format plain -- -3/7"',
    )
    add_io_options(p)

    p = sub.add_parser("fibonomial", help="Fibonomial triangle rows 0..N")
    p.add_argument("max_n", type=_nonnegative_int, metavar="N")
    add_io_options(p)

    p = sub.add_parser("binomial", help="Golden binomial expansion of (x+y)_F^n")
    p.add_argument("n", type=_nonnegative_int)
    add_io_options(p)

    p = sub.add_parser(
        "verify", help="run the full identity suite and exit 0/1 accordingly"
    )
    p.add_argument(
        "max_degree",
        type=_verify_bound,
        metavar="N",
        nargs="?",
        default=DEFAULT_VERIFY_BOUND,
    )
    add_io_options(p)

    return parser


def _emit(document: OutputDocument, fmt: str, out: str | None) -> None:
    text = document.render(fmt) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.command == "numbers":
            document = build_numbers_document(args.variant, args.max_n, args.method)
        elif args.command == "poly":
            document = build_polynomial_document(args.variant, args.n)
        elif args.command == "eval":
            document = build_evaluation_document(args.variant, args.n, args.x)
        elif args.command == "fibonomial":
            document = build_fibonomial_document(args.max_n)
        elif args.command == "binomial":
            document = build_binomial_document(args.n)
        else:  # argparse allows only "verify" here
            document = build_verification_document(args.max_degree)
        _emit(document, args.format, args.out)
    except Exception as exc:
        # a bug must not exit 1, which reads as a failed identity
        print(f"goldencalc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = document.kind == "verification" and not document.metadata["all_passed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
