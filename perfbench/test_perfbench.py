"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import Outcome, judge  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_children_covered_interval():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("child", 1.0, 3.0, 0),
        Span("child", 2.0, 5.0, 0),  # overlaps its sibling: counted once
        Span("grandchild", 1.5, 2.0, 1),
        Span("late", 8.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(10 - 4 - 2)
    assert own["child"] == pytest.approx((2 - 0.5) + 3)
    assert own["grandchild"] == pytest.approx(0.5)
    assert own["late"] == pytest.approx(4)
    assert tracing.inclusive_times(spans)["child"] == pytest.approx(5)


def test_instrument_records_nested_spans_and_restores_originals():
    cli = run._import_package()
    from goldencalc import bernoulli, verify

    original = bernoulli.bf_numbers_series
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        assert verify.bf_numbers_series is not original
        document, fmt = run.build_document(cli, ("numbers", "fib", "6"))
        document.render(fmt)
    assert bernoulli.bf_numbers_series is original
    assert verify.bf_numbers_series is original
    names = [span.name for span in recorder.spans]
    assert names[0] == "cli.build_document"
    series_index = names.index("bernoulli.bf_numbers_series")
    assert recorder.spans[series_index].parent == 0
    assert "output.render.json" in names
    metrics = tracing.layer_metrics(recorder)
    assert metrics["series.inverse.calls"] == 1
    assert metrics["series.inverse.max_order"] == 6
    assert metrics["bernoulli.bf_numbers_series.calls"] == 1


def _pinned(argv, digest="d" * 64, text=None):
    return Outcome(argv, 0, digest, text)


def test_exit_code_or_digest_mismatch_counts_as_failed():
    argv = ("fibonomial", "250", "--format", "json")
    manifest = {workloads.command_key(argv): "a" * 64}
    assert judge([_pinned(argv, "a" * 64)], manifest) == [True]
    assert judge([Outcome(argv, 1, "a" * 64)], manifest) == [False]
    assert judge([_pinned(argv, "b" * 64)], manifest) == [False]
    assert judge([_pinned(("fibonomial", "7"))], manifest) == [False]  # unpinned


def test_failing_process_is_a_failed_op():
    code = "import sys; print('partial'); sys.exit(1)"
    finished = run.run_command([sys.executable, "-c", code], run.child_env(), keep_text=True)
    assert (finished.returncode, finished.text) == (1, "partial\n")
    assert finished.wall > 0 and finished.rss_kib > 0
    argv = ("binomial", "250")
    outcome = Outcome(argv, finished.returncode, finished.digest, None)
    assert judge([outcome], {workloads.command_key(argv): finished.digest}) == [False]


def test_cross_route_checks_run_at_their_own_sizes():
    run._import_package()
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        checks = run.cross_route_checks({"numbers": 7, "polynomial": 3, "inverse": 5})
        assert [agrees() for _, agrees in checks] == [True, True, True]
    assert [name.rsplit(" ", 1)[1] for name, _ in checks] == ["7", "3", "5"]
    # Each check is bound to its own size: the numbers check reaches order 7.
    assert recorder.maxima["series.inverse.max_order"] == 7
    assert tracing.self_times(recorder.spans)["series.inverse_newton"] > 0


def test_verify_must_report_all_passed():
    argv = ("verify", "32")
    for passed, verdict in ((True, True), (False, False)):
        text = json.dumps({"metadata": {"all_passed": passed}})
        manifest = {workloads.command_key(argv): "a" * 64}
        assert judge([_pinned(argv, "a" * 64, text)], manifest) == [verdict]


def test_eval_is_checked_against_poly_coefficients():
    poly_text = json.dumps({"payload": {"coefficients": ["-1/3", "1", "-2", "1"]}})
    manifest = {workloads.command_key(workloads.POLY_REFERENCE): "p" * 64}
    poly = _pinned(workloads.POLY_REFERENCE, "p" * 64, poly_text)

    def evaluation(point, value):
        text = json.dumps({"metadata": {"n": 3, "x": point}, "payload": {"value": value}})
        return _pinned(("eval", "fib", "96", "--", point), "e" * 64, text)

    # x^3 - 2x^2 + x - 1/3 at 1/2 is 1/8 - 1/2 + 1/2 - 1/3 = -5/24
    assert judge([evaluation("1/2", "-5/24"), poly], manifest) == [True, True]
    assert judge([evaluation("1/2", "-5/23"), poly], manifest) == [False, True]
    assert judge([evaluation("1/2", "-5/24")], manifest) == [False]  # no reference


def test_workload_inputs_depend_only_on_seed():
    import random

    for name, make in workloads.WORKLOADS.items():
        assert make(random.Random(7)) == make(random.Random(7))
        for argv in make(random.Random(7)):
            assert workloads.is_seeded(argv) or workloads.command_key(argv) in workloads.load_manifest()
    assert workloads.WORKLOADS["tables"](random.Random(1)) != workloads.WORKLOADS["tables"](random.Random(2))


def test_metric_names_are_valid_and_match_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END_METRICS
    assert declared_layer == tracing.PER_LAYER_METRICS
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    for name in [*declared_e2e, *declared_layer, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0, 2.0, 3.0])["tail"] is None
    summary = run.tail_percentile([float(i) for i in range(100)])
    assert summary["n"] == 100
    assert summary["tail"] == {"q": 90, "value": 89.0}
