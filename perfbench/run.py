#!/usr/bin/env python3
"""goldencalc benchmark: CLI wall time per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is taken from the
checkout's src/ directory.  With --trace 0, each command of the workload runs
as a fresh `python -m goldencalc` process, one at a time, pass after pass
until --seconds have elapsed; every output is checked.  With --trace 1, the
same commands run in this process through the `cli.build_*_document`
builders and `OutputDocument.render`, alternately untraced and traced (see
tracing.py), followed by the workload's cross-route assertions.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it gives the detail
(seed, sample counts, percentiles, per-command medians, environment).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import workloads
from workloads import Outcome, judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS_PER_PASS = 5
CHUNK = 1 << 20

END_TO_END_METRICS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Finished(NamedTuple):
    returncode: int
    digest: str  # sha256 of stdout
    text: str | None  # stdout, when asked to keep it
    wall: float
    cpu: float  # user + sys seconds, from wait4's rusage
    rss_kib: int  # ru_maxrss


def run_command(argv: list[str], env: dict[str, str], keep_text: bool) -> Finished:
    """Run one process to completion, hashing its stdout as it drains."""
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    digest = hashlib.sha256()
    kept = bytearray()
    try:
        for chunk in iter(lambda: proc.stdout.read(CHUNK), b""):
            digest.update(chunk)
            if keep_text:
                kept += chunk
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        proc.returncode,
        digest.hexdigest(),
        kept.decode("utf-8") if keep_text else None,
        perf_counter() - start,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
    )


def setup_seconds(env: dict[str, str]) -> float:
    """Wall time of a fresh interpreter that imports goldencalc.cli and exits."""
    argv = [sys.executable, "-c", "import goldencalc.cli"]
    finished = run_command(argv, env, keep_text=False)
    if finished.returncode != 0:
        raise RuntimeError(f"importing goldencalc.cli failed with exit code {finished.returncode}")
    return finished.wall


def cli_argv(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "goldencalc", *argv]


def tail_percentile(samples: list[float]) -> dict:
    """Median, the highest listed percentile with at least ten samples
    beyond it (None when there are too few samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(Fraction(str(q)) * n / 100)  # nearest rank, 1-based
        if n - rank >= 10:
            tail = {"q": q, "value": ordered[rank - 1]}
            break
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count()}


def measure_end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    rng = random.Random(seed)
    commands = workloads.WORKLOADS[workload](rng)
    manifest = workloads.load_manifest()
    env = child_env()

    setup_seconds(env)  # warms the bytecode cache; not a sample
    setup, pass_walls, pass_cpus, peak_rss_kib = [], [], [], 0
    per_command: dict[str, list[float]] = {}
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not pass_walls or perf_counter() < deadline:
        # Set-up samples are spread over the run, so that one slow spell of
        # a shared machine does not decide their median.
        setup += [setup_seconds(env) for _ in range(SETUP_RUNS_PER_PASS)]
        order = list(commands)
        rng.shuffle(order)
        outcomes, cpu = [], 0.0
        start = perf_counter()
        for argv in order:
            finished = run_command(cli_argv(argv), env, workloads.keeps_text(argv))
            outcomes.append(Outcome(argv, finished.returncode, finished.digest, finished.text))
            cpu += finished.cpu
            peak_rss_kib = max(peak_rss_kib, finished.rss_kib)
            per_command.setdefault(workloads.command_key(argv), []).append(finished.wall)
        pass_walls.append(perf_counter() - start)
        pass_cpus.append(cpu)
        verdicts = judge(outcomes, manifest)
        attempted += len(verdicts)
        failed += verdicts.count(False)
        for outcome, ok in zip(outcomes, verdicts):
            if not ok:
                print(f"FAILED: {workloads.command_key(outcome.argv)} (exit {outcome.returncode})", file=sys.stderr)

    metrics = {
        "wall_s": statistics.median(pass_walls),
        "cpu_s": statistics.median(pass_cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kib / 1024,
    }
    detail = {
        "wall_s": tail_percentile(pass_walls),
        "cpu_s": tail_percentile(pass_cpus),
        "setup_s": tail_percentile(setup),
        "command_wall_s": {key: tail_percentile(walls) for key, walls in per_command.items()},
        "error_rate": failed / attempted,
    }
    return _result(metrics, attempted, failed, END_TO_END_METRICS), detail


def _import_package():
    sys.path.insert(0, str(SRC))
    import goldencalc.cli

    if Path(goldencalc.cli.__file__).resolve().parent != SRC / "goldencalc":
        raise RuntimeError(f"imported goldencalc from {goldencalc.cli.__file__}, not {SRC}")
    return goldencalc.cli


def build_document(cli, argv: tuple[str, ...]):
    """The document `goldencalc <argv>` would print, and its format."""
    args = cli.build_parser().parse_args(list(argv))
    if args.command == "numbers":
        document = cli.build_numbers_document(args.variant, args.max_n, args.method)
    elif args.command == "poly":
        document = cli.build_polynomial_document(args.variant, args.n)
    elif args.command == "eval":
        document = cli.build_evaluation_document(args.variant, args.n, args.x)
    elif args.command == "fibonomial":
        document = cli.build_fibonomial_document(args.max_n)
    elif args.command == "binomial":
        document = cli.build_binomial_document(args.n)
    elif args.command == "verify":
        document = cli.build_verification_document(args.max_degree)
    else:
        raise ValueError(f"unsupported command: {argv}")
    return document, args.format


def run_in_process(cli, order) -> tuple[list[Outcome], dict[tuple[str, ...], float]]:
    outcomes, seconds = [], {}
    for argv in order:
        start = perf_counter()
        try:
            document, fmt = build_document(cli, argv)
            stdout = (document.render(fmt) + "\n").encode("utf-8")
        except Exception:
            traceback.print_exc()
            outcomes.append(Outcome(argv, 1, ""))
            continue
        seconds[argv] = perf_counter() - start
        failed_identity = document.kind == "verification" and not document.metadata["all_passed"]
        outcomes.append(workloads.outcome_from_stdout(argv, int(failed_identity), stdout))
    return outcomes, seconds


def cross_route_checks(sizes: dict[str, int]) -> list[tuple[str, object]]:
    """(name, thunk) pairs; a thunk returns True when its two routes agree exactly."""
    from goldencalc import bernoulli, series

    def numbers(n: int) -> bool:
        return bernoulli.bf_numbers_series(n) == bernoulli.bf_numbers_recursive(n)

    def polynomial(n: int) -> bool:
        return bernoulli.bf_polynomial(n) == bernoulli.bf_polynomial_genfunc(n)

    def inverse(n: int) -> bool:
        exponential = series.golden_exponential(n)
        return exponential.inverse() == exponential.inverse_newton()

    routes = {
        "numbers": ("bf_numbers_series == bf_numbers_recursive", numbers),
        "polynomial": ("bf_polynomial == bf_polynomial_genfunc", polynomial),
        "inverse": ("TruncatedSeries.inverse == inverse_newton", inverse),
    }
    return [
        (f"{routes[kind][0]} at {n}", functools.partial(routes[kind][1], n))
        for kind, n in sizes.items()
    ]


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import tracing

    cli = _import_package()
    rng = random.Random(seed)
    commands = workloads.WORKLOADS[workload](rng)
    manifest = workloads.load_manifest()

    samples: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not samples or perf_counter() < deadline:
        order = list(commands)
        rng.shuffle(order)
        start = perf_counter()
        plain_outcomes, plain_seconds = run_in_process(cli, order)
        untraced = perf_counter() - start
        recorder = tracing.Recorder()
        start = perf_counter()
        with tracing.instrument(recorder):
            traced_outcomes, _ = run_in_process(cli, order)
        traced = perf_counter() - start
        for outcomes in (plain_outcomes, traced_outcomes):
            verdicts = judge(outcomes, manifest)
            attempted += len(verdicts)
            failed += verdicts.count(False)
        metrics = tracing.layer_metrics(recorder)
        metrics["trace.overhead_s"] = traced - untraced
        metrics["verify.growth_exponent"] = tracing.growth_exponent(
            [(int(argv[1]), t) for argv, t in plain_seconds.items() if argv[0] == "verify"]
        )
        samples.append(metrics)

    recorder = tracing.Recorder()
    cross = {}
    with tracing.instrument(recorder):
        for name, agrees in cross_route_checks(workloads.CROSS_ROUTE_SIZES[workload]):
            attempted += 1
            try:
                ok = agrees()
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
            cross[name] = ok
    newton = tracing.self_times(recorder.spans).get("series.inverse_newton", 0.0)

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["series.inverse_newton.self_s"] = newton
    units = {name: unit for name, (unit, _) in tracing.PER_LAYER_METRICS.items()}
    detail = {"passes": len(samples), "cross_route": cross}
    return _result(metrics, attempted, failed, units), detail


def _result(metrics: dict[str, float], attempted: int, failed: int, units: dict[str, str]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "goldencalc" / "__init__.py").is_file():
        print(f"error: no goldencalc sources under {SRC}", file=sys.stderr)
        return 2
    measure = measure_traced if args.trace else measure_end_to_end
    result, detail = measure(args.workload, args.seed, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
