"""Spans and counters around goldencalc's public functions, from outside src/.

`instrument(recorder)` replaces each listed function or method, in every
goldencalc namespace that holds it, by a wrapper that records a span
(name, start, end, parent) or bumps a counter, and puts the originals back
on exit.  Spans stay in memory; `layer_metrics` turns them into the
per-layer metrics named in BENCHMARK.json.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple

from workloads import FORMATS

# (module, attribute, span name).  Several attributes may share a span name.
SPANNED = (
    ("fibonacci", "FibTable.__init__", "fibonacci.FibTable"),
    ("fibonacci", "fibonomial_row", "fibonacci.fibonomial_row"),
    ("fibonacci", "fibonomial_rec_a", "fibonacci.fibonomial_rec"),
    ("fibonacci", "fibonomial_rec_b", "fibonacci.fibonomial_rec"),
    ("fibonacci", "binet", "fibonacci.binet"),
    ("polynomials", "Polynomial.__mul__", "polynomials.Polynomial.mul"),
    ("polynomials", "golden_derivative_dilatation", "polynomials.golden_derivative_dilatation"),
    ("polynomials", "golden_binomial", "polynomials.golden_binomial"),
    ("series", "TruncatedSeries.inverse", "series.inverse"),
    ("series", "TruncatedSeries.inverse_newton", "series.inverse_newton"),
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("bernoulli", "bf_numbers_series", "bernoulli.bf_numbers_series"),
    ("bernoulli", "bf_numbers_recursive", "bernoulli.bf_numbers_recursive"),
    ("bernoulli", "bf_polynomial", "bernoulli.bf_polynomial"),
    ("bernoulli", "bf_polynomial_genfunc", "bernoulli.bf_polynomial_genfunc"),
    ("bernoulli", "bf_eval", "bernoulli.bf_eval"),
    ("bernoulli", "h_polynomial_sum", "bernoulli.h_polynomial"),
    ("bernoulli", "h_polynomial_explicit", "bernoulli.h_polynomial"),
    ("bernoulli", "classical_bernoulli_numbers", "bernoulli.classical"),
    ("bernoulli", "classical_bernoulli_polynomial", "bernoulli.classical"),
    ("verify", "verify_identities", "verify.verify_identities"),
    ("verify", "core_property_reports", "verify.core_property_reports"),
    ("rationals", "format_rational", "rationals.format_rational"),
    ("cli", "build_numbers_document", "cli.build_document"),
    ("cli", "build_polynomial_document", "cli.build_document"),
    ("cli", "build_evaluation_document", "cli.build_document"),
    ("cli", "build_fibonomial_document", "cli.build_document"),
    ("cli", "build_binomial_document", "cli.build_document"),
    ("cli", "build_verification_document", "cli.build_document"),
)

# Q(sqrt5) arithmetic is too fine-grained for a span per call: count only.
GOLDEN_OPS = ("__mul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")

# Every identity `goldencalc verify` reports, in report order.
IDENTITIES = (
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
    "binet-matches-recurrence",
    "fibonomial-symmetry",
    "fibonomial-integrality",
    "pascal-recursion-a",
    "pascal-recursion-b",
    "golden-binomial-signs",
    "golden-derivative-dilatation-oracle",
)

# Layers that own spans; golden has none, so its time lands in its callers.
LAYERS = ("fibonacci", "polynomials", "series", "bernoulli", "verify", "rationals", "output", "cli")

SELF_TIMED = (
    "fibonacci.FibTable",
    "fibonacci.fibonomial_row",
    "fibonacci.fibonomial_rec",
    "fibonacci.binet",
    "polynomials.Polynomial.mul",
    "polynomials.golden_derivative_dilatation",
    "polynomials.golden_binomial",
    "series.inverse",
    "series.mul",
    "bernoulli.bf_numbers_series",
    "bernoulli.bf_numbers_recursive",
    "bernoulli.bf_polynomial_genfunc",
    "bernoulli.h_polynomial",
    "bernoulli.classical",
    "verify.verify_identities",
    "verify.core_property_reports",
    "rationals.format_rational",
    "cli.build_document",
) + tuple(f"output.render.{fmt}" for fmt in FORMATS)

CALL_COUNTED = (
    "fibonacci.FibTable",
    "polynomials.Polynomial.mul",
    "series.inverse",
    "bernoulli.bf_numbers_series",
    "bernoulli.bf_polynomial",
    "rationals.format_rational",
)

# name -> (unit, better) for every metric a traced run reports.
PER_LAYER_METRICS = {
    **{f"{name}.calls": ("count", "lower") for name in CALL_COUNTED},
    **{f"{name}.self_s": ("s", "lower") for name in SELF_TIMED},
    "golden.GoldenNumber.ops": ("count", "lower"),
    "series.inverse.max_order": ("order", "lower"),
    "series.inverse_newton.self_s": ("s", "lower"),
    "verify.checks": ("count", "higher"),
    **{f"verify.identity.{name}.s": ("s", "lower") for name in IDENTITIES},
    "verify.growth_exponent": ("1", "lower"),
    "rationals.max_digits": ("digits", "lower"),
    "output.bytes": ("bytes", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Recorder:
    """In-memory spans, counters and maxima of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        covered = _covered(children.get(index, ()), span.start, span.end)
        totals[span.name] += span.end - span.start - covered
    return dict(totals)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.end - span.start
    return dict(totals)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass (those it can see)."""
    own = self_times(recorder.spans)
    inclusive = inclusive_times(recorder.spans)
    calls = Counter(span.name for span in recorder.spans)
    metrics: dict[str, float] = {}
    for name in CALL_COUNTED:
        metrics[f"{name}.calls"] = calls[name]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    for name in IDENTITIES:
        metrics[f"verify.identity.{name}.s"] = inclusive.get(f"verify.identity.{name}", 0.0)
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            t for name, t in own.items() if name.split(".", 1)[0] == layer
        )
    metrics["golden.GoldenNumber.ops"] = recorder.counts["golden.GoldenNumber.ops"]
    metrics["verify.checks"] = recorder.counts["verify.checks"]
    metrics["output.bytes"] = recorder.counts["output.bytes"]
    metrics["series.inverse.max_order"] = recorder.maxima.get("series.inverse.max_order", 0)
    metrics["rationals.max_digits"] = recorder.maxima.get("rationals.max_digits", 0)
    return metrics


def growth_exponent(degrees_and_seconds: list[tuple[int, float]]) -> float:
    """Log-log slope between the smallest and the largest degree; 0 with fewer than two."""
    if len(degrees_and_seconds) < 2:
        return 0.0
    (d0, t0), (d1, t1) = min(degrees_and_seconds), max(degrees_and_seconds)
    return math.log(t1 / t0) / math.log(d1 / d0)


def _spanned(recorder: Recorder, fn: Callable, name: str, label=None, observe=None) -> Callable:
    spans, stack = recorder.spans, recorder.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = Span(label(args) if label else name, start, end, parent)
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def _counted(recorder: Recorder, fn: Callable, name: str) -> Callable:
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "goldencalc" or name.startswith("goldencalc.")
    ]


def _holders(module_name: str, attribute: str):
    """The object `goldencalc.<module>.<attribute>` and every (owner, name) holding it.

    A method is also held under its aliases (`__rmul__ = __mul__`); a function
    is also held wherever another goldencalc module imported it by name.
    """
    module = importlib.import_module(f"goldencalc.{module_name}")
    if "." in attribute:
        class_name, method = attribute.split(".")
        owners = [getattr(module, class_name)]
        original = owners[0].__dict__[method]
    else:
        owners = _package_modules()
        original = getattr(module, attribute)
    return original, [
        (owner, key)
        for owner in owners
        for key, value in list(vars(owner).items())
        if value is original
    ]


@contextmanager
def instrument(recorder: Recorder):
    """Record spans and counts into `recorder` until the block exits."""
    patches: list[tuple[object, str, object]] = []

    def patch(module_name: str, attribute: str, make_wrapper: Callable) -> None:
        original, holders = _holders(module_name, attribute)
        wrapper = make_wrapper(original)
        for owner, key in holders:
            patches.append((owner, key, original))
            setattr(owner, key, wrapper)

    def observe_inverse(args, result) -> None:
        recorder.note_max("series.inverse.max_order", args[0].order)

    def observe_rational(args, result) -> None:
        recorder.note_max("rationals.max_digits", max(len(p.lstrip("-")) for p in result.split("/")))

    def observe_run(args, result) -> None:
        recorder.counts["verify.checks"] += len(result.statuses)

    def observe_render(args, result) -> None:
        recorder.counts["output.bytes"] += len(result.encode("utf-8")) + 1  # + the newline

    observers = {
        "series.inverse": observe_inverse,
        "rationals.format_rational": observe_rational,
    }
    try:
        for module_name, attribute, name in SPANNED:
            patch(
                module_name,
                attribute,
                lambda fn, name=name: _spanned(recorder, fn, name, observe=observers.get(name)),
            )
        patch(
            "verify",
            "_run",
            lambda fn: _spanned(
                recorder, fn, "verify.identity", label=lambda a: f"verify.identity.{a[0]}", observe=observe_run
            ),
        )
        patch(
            "output",
            "OutputDocument.render",
            lambda fn: _spanned(
                recorder, fn, "output.render", label=lambda a: f"output.render.{a[1]}", observe=observe_render
            ),
        )
        for op in GOLDEN_OPS:
            patch("golden", f"GoldenNumber.{op}", lambda fn: _counted(recorder, fn, "golden.GoldenNumber.ops"))
        yield recorder
    finally:
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
