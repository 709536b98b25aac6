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

argparse dispatches: each subcommand's parser sets ``build``, which calls
its ``build_*_document``, and ``_int_at_least`` checks every size.

Exit codes: 0 on success, 1 when `verify` finds a broken identity,
2 on usage errors (output that cannot be written is one: an --out path,
or a full or closed stdout; reported in one line on stderr), 3 on an
unexpected internal error, a worker process that died without a result
among them (also one line on stderr).  Output goes to stdout unless
--out is given.  It is written chunk by chunk while table rows are
computed, so part of it may precede a write error or an internal error.

Process model: two commands are each two computations that share no
data.  From order FORK_MIN_ORDER on (N for `numbers N --method both`,
2N for `verify N`), one of them runs in a single forked worker while
this process runs the other: the series route of `numbers`, and the
core layer (`core_property_reports`) of `verify`.  The worker pickles
its result back over a pipe and ends with `os._exit`, and it is always
reaped before the document is written.  Below that order, and for
every other command, everything runs in this one process.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterator
from contextlib import nullcontext, suppress
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
from .fibonacci import fibonomial_triangle, mirror_row
from .output import FORMATS, OutputDocument
from .polynomials import (
    binomial_factors,
    golden_binomial,
    render_coefficients,
    render_monomial,
    render_terms,
)
from .rationals import format_rational, parse_rational
from .verify import VerificationReport, core_property_reports, verify_identities

DEFAULT_VERIFY_BOUND = 32
# From this order on, the two independent halves of a command run side by
# side, which saves at most the shorter half, and only with a core to spare;
# forking, pickling back and reaping cost about 2 ms.  Where no core was
# spare (2-core x86-64, CPython 3.11.7: two forked busy loops took as long as
# in sequence), forcing the fork slowed `verify 32` 0.121 -> 0.167 s,
# `verify 16` 0.092 -> 0.103 s and `numbers fib 48 --method both` 0.010 ->
# 0.020 s (build and render, medians of 9 alternating runs), though `verify
# 32`'s halves take 0.057 s and 0.049 s.  96 stays: from there the shorter
# half (13 ms in `numbers 96`, 82 ms in `verify 48`) dwarfs the fork's cost.
FORK_MIN_ORDER = 96


def _side_by_side(first: Callable[[], object], second: Callable[[], object], order: int) -> tuple:
    """``(first(), second())``, with ``first`` in a forked worker from FORK_MIN_ORDER on.

    The worker sends its pickled outcome, a result or an exception, back
    over a pipe while this process runs ``second``.  Its exception is raised
    again here, and a worker that dies without an outcome raises
    RuntimeError.  If ``second`` raises, the worker is killed.  Either way it
    is reaped before this returns, by this process or, when SIGCHLD is
    ignored, by the kernel.  Below the threshold, without ``os.fork``, or
    when the pipe or the fork fails, the two run one after the other.  The
    CLI starts no thread, so forking it is safe.
    """
    if order < FORK_MIN_ORDER or not hasattr(os, "fork"):
        return first(), second()
    import pickle
    import signal

    pipe_fds = ()
    try:
        pipe_fds = os.pipe()
        pid = os.fork()
    except OSError:
        # no descriptor or process to spare (EMFILE, EAGAIN, ENOMEM): one
        # after the other still works
        for fd in pipe_fds:
            os.close(fd)
        return first(), second()
    read_fd, write_fd = pipe_fds
    if pid == 0:
        # never return into the caller, and never flush the inherited stdout
        exit_code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, first())
            except Exception as exc:
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
            exit_code = 0
        finally:
            os._exit(exit_code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            second_result = second()
            data = pipe.read()
        except BaseException:
            with suppress(ProcessLookupError):  # already gone, see below
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            try:
                _, status = os.waitpid(pid, 0)
            except ChildProcessError:
                # SIGCHLD is ignored (inherited across exec), so the kernel
                # reaped the worker itself once it ended
                status = None
    if not data:
        if status is None:
            how = "exit status lost: SIGCHLD is ignored"
        else:
            code = os.waitstatus_to_exitcode(status)
            how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise RuntimeError(f"the worker process died without a result ({how})")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, second_result


def build_numbers_document(variant: str, max_n: int, method: str) -> OutputDocument:
    metadata = {"variant": variant, "max_n": max_n, "method": method}
    if variant == "classical":
        series_route = classical_bernoulli_numbers
        recursive_route = classical_bernoulli_numbers_recursive
    else:
        series_route, recursive_route = bf_numbers_series, bf_numbers_recursive
    if method == "both":
        series, recursive = _side_by_side(
            lambda: series_route(max_n), lambda: recursive_route(max_n), max_n
        )
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
        values = (series_route if method == "series" else recursive_route)(max_n)
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


class _FibonomialRows:
    """The payload rows ``{"n", "row"}`` of the Fibonomial triangle 0..max_n.

    A lazy view: each pass runs :func:`fibonomial_triangle` afresh, so only
    the previous row is ever held.  Only the left half [n, 0..n/2] of each
    row is converted to digits; the right half reuses those strings, as the
    triangle's right half reuses its left half's entries.
    """

    def __init__(self, max_n: int) -> None:
        if max_n < 0:
            raise ValueError("n must be nonnegative")
        self.max_n = max_n

    def __iter__(self) -> Iterator[dict]:
        for n, row in enumerate(fibonomial_triangle(self.max_n)):
            yield {"n": n, "row": mirror_row(n, [str(v) for v in row[: n // 2 + 1]])}


def build_fibonomial_document(max_n: int) -> OutputDocument:
    return OutputDocument("fibonomials", {"max_n": max_n}, _FibonomialRows(max_n))


def build_binomial_document(n: int) -> OutputDocument:
    # each term's signed wire-format coefficient and its factors, formatted once
    signed_terms = [
        (format_rational(c), binomial_factors(n, k)) for k, c in enumerate(golden_binomial(n))
    ]
    terms = [
        {
            "k": k,
            "sign": -1 if coefficient.startswith("-") else 1,
            "coefficient": coefficient.lstrip("-"),
            "monomial": render_monomial(factors),
            "term": render_terms([(coefficient, factors)]),
        }
        for k, (coefficient, factors) in enumerate(signed_terms)
    ]
    payload = {"terms": terms, "rendered": render_terms(signed_terms)}
    return OutputDocument("binomial", {"n": n}, payload)


def build_verification_document(max_degree: int) -> OutputDocument:
    core, bernoulli = _side_by_side(
        lambda: core_property_reports(max_degree),
        lambda: verify_identities(max_degree),
        2 * max_degree,
    )
    reports = bernoulli + core
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


def _int_at_least(low: int, message: str) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``low``; below it, ``message``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_size = _int_at_least(0, "must be nonnegative")


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
    p.add_argument("max_n", type=_size, metavar="N")
    p.add_argument(
        "--method", choices=("series", "recursive", "both"), default="series"
    )
    add_io_options(p)
    p.set_defaults(build=lambda a: build_numbers_document(a.variant, a.max_n, a.method))

    p = sub.add_parser("poly", help="coefficients and rendering of B_n(x)")
    p.add_argument("variant", choices=("fib", "classical"))
    p.add_argument("n", type=_size)
    add_io_options(p)
    p.set_defaults(build=lambda a: build_polynomial_document(a.variant, a.n))

    p = sub.add_parser("eval", help="exact value of B_n at a rational point")
    p.add_argument("variant", choices=("fib", "classical"))
    p.add_argument("n", type=_size)
    p.add_argument(
        "x",
        type=_rational,
        help='rational literal, e.g. "1" or "1/2"; a negative one goes after every '
        'option and "--", e.g. "eval fib 4 --format plain -- -3/7"',
    )
    add_io_options(p)
    p.set_defaults(build=lambda a: build_evaluation_document(a.variant, a.n, a.x))

    p = sub.add_parser("fibonomial", help="Fibonomial triangle rows 0..N")
    p.add_argument("max_n", type=_size, metavar="N")
    add_io_options(p)
    p.set_defaults(build=lambda a: build_fibonomial_document(a.max_n))

    p = sub.add_parser("binomial", help="Golden binomial expansion of (x+y)_F^n")
    p.add_argument("n", type=_size)
    add_io_options(p)
    p.set_defaults(build=lambda a: build_binomial_document(a.n))

    p = sub.add_parser(
        "verify", help="run the full identity suite and exit 0/1 accordingly"
    )
    p.add_argument(
        "max_degree",
        type=_int_at_least(3, "verification bound must be at least 3"),
        metavar="N",
        nargs="?",
        default=DEFAULT_VERIFY_BOUND,
    )
    add_io_options(p)
    p.set_defaults(build=lambda a: build_verification_document(a.max_degree))

    return parser


def build_document(args: argparse.Namespace) -> OutputDocument:
    """The document of one parsed command line, from its subcommand's builder."""
    return args.build(args)


def _output(out: str | None):
    """The open --out file, or stdout (left open) when ``out`` is None."""
    if out is None:
        return nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        document = build_document(args)
        chunks = document.chunks(args.format)
        with _output(args.out) as handle:
            # rows are computed as they are written, so output may precede an error
            for chunk in chunks:
                handle.write(chunk)
            handle.write("\n")
            handle.flush()
    except OSError as exc:
        # Computing does no I/O, and _side_by_side handles the OSErrors of its
        # own worker mechanics (pipe, fork, reaping), so this is the output's
        # own error: an unwritable --out path, or a full or closed stdout.
        target = args.out or "stdout"
        print(f"goldencalc: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug must not exit 1, which reads as a failed identity
        print(f"goldencalc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    failed = document.kind == "verification" and not document.metadata["all_passed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
