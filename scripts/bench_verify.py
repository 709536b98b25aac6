#!/usr/bin/env python3
"""Time `goldencalc verify N` end to end, alone or paired with another checkout.

For each size in --sizes the script runs `python -m goldencalc verify N
--format plain` as a fresh process, --runs times, with the package taken
from the checkout's src/.  Each run records its wall time, its exit code
and the `ru_maxrss` that `os.wait4` returns for it (on Linux that covers
the forked worker the CLI reaped, too), and hashes its output.  With
--against PATH each run is paired with one of the checkout at PATH, and
which side goes first alternates from pair to pair.

First comes a spare-core probe: two forked busy loops run in sequence,
then at once, and the line gives the ratio of the two times (about 2 with
a core to spare, 1 without).  Then, per size and side, the median wall
time, the interquartile range, the peak RSS and the exit codes; with
--against, this checkout's line also gives the pairs it won (ties count
for neither) and whether both sides printed the same bytes.  Last come
each side's growth exponents: the log-log slope of the median between
each two consecutive sizes.  The exit code is 1 if any run exited
nonzero.

    python3 scripts/bench_verify.py --sizes 64 128 192 --runs 5 --against ../parent --record

--record appends the run as one JSON record to BENCH_verify.json at this
checkout's root, with each side's git revision and whether the runs
could write a bytecode cache.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_verify.json"
BUSY_LOOP = 3_000_000  # decrements, about 0.1 s of one core
PROBES = 3


def run_once(checkout: Path, size: int) -> dict:
    """One `verify size` of ``checkout``: wall seconds, exit code, peak RSS in MB, output digest."""
    argv = [sys.executable, "-m", "goldencalc", "verify", str(size), "--format", "plain"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=checkout)
    digest = hashlib.sha256()
    try:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": time.perf_counter() - start,
        "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
        "digest": digest.hexdigest(),
    }


def busy_loops(at_once: bool) -> float:
    """Wall seconds of two forked busy loops, one after the other or side by side."""

    def start() -> int:
        pid = os.fork()
        if pid == 0:
            n = BUSY_LOOP
            while n:
                n -= 1
            os._exit(0)
        return pid

    begin = time.perf_counter()
    if at_once:
        pids = [start(), start()]
    else:
        pids = [start()]
        os.waitpid(pids[0], 0)
        pids = [start()]
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - begin


def spare_core_probe() -> float:
    """Median over PROBES tries of the loops' time in sequence over their time at once."""
    return statistics.median(busy_loops(False) / busy_loops(True) for _ in range(PROBES))


def summary(runs: list[dict]) -> dict:
    walls = [run["wall"] for run in runs]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {
        "walls": [round(wall, 4) for wall in walls],
        "median": round(statistics.median(walls), 4),
        "iqr": round(q3 - q1, 4),
        "peak_rss_mb": round(max(run["rss_mb"] for run in runs), 1),
        "exit_codes": sorted({run["exit"] for run in runs}),
    }


def growth_exponents(medians: dict[int, float]) -> dict[str, float]:
    """The log-log slope of the median between each two consecutive sizes."""
    sizes = sorted(medians)
    return {
        f"{low}-{high}": round(math.log(medians[high] / medians[low]) / math.log(high / low), 2)
        for low, high in zip(sizes, sizes[1:])
    }


def revision(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of ``checkout``, or None outside a git work tree."""
    try:
        described = subprocess.run(
            ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return described.stdout.strip() if described.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 192], metavar="N")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--against", type=Path, metavar="PATH", default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if min(args.sizes) < 3:
        parser.error("every size must be at least 3")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"this": ROOT}
    if args.against is not None:
        against = args.against.resolve()
        if not (against / "src" / "goldencalc" / "__init__.py").is_file():
            parser.error(f"no goldencalc sources under {against / 'src'}")
        sides["against"] = against

    probe = spare_core_probe()
    print(f"spare-core probe: {probe:.2f}x (two busy loops in sequence / at once)")
    for checkout in sides.values():  # a warm-up, which also writes any bytecode cache
        run_once(checkout, min(args.sizes))

    results, failed = {}, False
    for size in args.sizes:
        runs = {side: [] for side in sides}
        for pair in range(args.runs):
            order = list(sides) if pair % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(run_once(sides[side], size))
        entry = {side: summary(side_runs) for side, side_runs in runs.items()}
        failed |= any(run["exit"] for side_runs in runs.values() for run in side_runs)
        if "against" in sides:
            pairs = zip(runs["this"], runs["against"])
            entry["pairs_won"] = sum(mine["wall"] < theirs["wall"] for mine, theirs in pairs)
            digests = {run["digest"] for side_runs in runs.values() for run in side_runs}
            entry["same_output"] = len(digests) == 1
        results[size] = entry

    header = f"{'size':>5} {'side':<8} {'median_s':>9} {'iqr_s':>8} {'rss_mb':>7} {'exit':>5}"
    print(header + "  won  same")
    for size, entry in results.items():
        for side in sides:
            row = entry[side]
            codes = ",".join(map(str, row["exit_codes"]))
            line = f"{size:>5} {side:<8} {row['median']:>9.3f} {row['iqr']:>8.3f}"
            line += f" {row['peak_rss_mb']:>7.1f} {codes:>5}"
            if side == "this" and "against" in sides:
                same = "yes" if entry["same_output"] else "no"
                line += f"  {entry['pairs_won']}/{args.runs}  {same}"
            print(line)
    exponents = {
        side: growth_exponents({size: entry[side]["median"] for size, entry in results.items()})
        for side in sides
    }
    for step in exponents["this"]:
        slopes = ", ".join(f"{side} {exponents[side][step]}" for side in sides)
        print(f"growth exponent {step}: {slopes}")

    if args.record:
        record = {
            "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "spare_core": round(probe, 2),
            "bytecode_cache": not sys.flags.dont_write_bytecode,
            "runs": args.runs,
            "revisions": {side: revision(checkout) for side, checkout in sides.items()},
            "sizes": {str(size): entry for size, entry in results.items()},
            "growth_exponent": exponents,
        }
        records = json.loads(RECORD.read_text()) if RECORD.exists() else []
        RECORD.write_text(json.dumps(records + [record], indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
