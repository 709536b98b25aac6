#!/usr/bin/env python3
"""Time the CLI's start-up: a bare interpreter, the stdlib floor, and the package.

Every `goldencalc` process first imports `goldencalc.cli`, which imports
the whole package.  This script times three fresh interpreters: `pass`,
the stdlib modules every command needs (`fractions`, `argparse`, `json`,
`csv`), and `import goldencalc.cli`.  Each runs with and without `-S`.
`-S` skips `site`, so a host's `.pth` hooks cannot import modules on the
package's behalf and hide what it loads.  The six commands run once per
round, in an order that alternates from round to round, and each line
gives the median and quartiles in ms over --runs rounds.  The header
says whether a bytecode cache is written (it is not under
PYTHONDONTWRITEBYTECODE, and then every run also compiles the package).
Last come the modules that `import goldencalc.cli` adds under `-S`.

    python3 scripts/bench_startup.py --runs 21

The package is imported from this checkout's src/.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = {
    "pass": "pass",
    "stdlib floor": "import fractions, argparse, json, csv",
    "goldencalc.cli": "import goldencalc.cli",
}
ADDED_MODULES = (
    "import sys; before = set(sys.modules); import goldencalc.cli; "
    "print(*sorted(set(sys.modules) - before), sep='\\n')"
)


def interpreter(code: str, no_site: bool) -> list[str]:
    return [sys.executable, *(["-S"] if no_site else []), "-c", code]


def wall_seconds(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=21)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cases = [(name, no_site) for name in COMMANDS for no_site in (False, True)]
    for name, no_site in cases:  # a warm-up, which also writes any bytecode cache; not a sample
        wall_seconds(interpreter(COMMANDS[name], no_site), env)
    samples = {case: [] for case in cases}
    for run in range(args.runs):
        for name, no_site in cases if run % 2 == 0 else reversed(cases):
            samples[name, no_site].append(wall_seconds(interpreter(COMMANDS[name], no_site), env))

    cache = "off" if sys.flags.dont_write_bytecode else "on"
    header = f"{'command':<16} {'-S':>3} {'median':>8} {'q1':>8} {'q3':>8}"
    print(f"{header}  (ms, {args.runs} runs, bytecode cache {cache})")
    for (name, no_site), walls in samples.items():
        q1, median, q3 = (1000 * value for value in quartiles(walls))
        flag = "yes" if no_site else "no"
        print(f"{name:<16} {flag:>3} {median:>8.1f} {q1:>8.1f} {q3:>8.1f}")

    listing = interpreter(ADDED_MODULES, no_site=True)
    listed = subprocess.run(listing, env=env, check=True, capture_output=True, text=True)
    added = listed.stdout.split()
    print(f"\nimport goldencalc.cli under -S adds {len(added)} modules:")
    print(" ".join(added))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
