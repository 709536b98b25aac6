#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures in tests/golden/.

Each fixture is the exact stdout byte stream of one CLI invocation, so
the files are produced through a subprocess rather than in-process.
"""

import subprocess
import sys
from pathlib import Path

FIXTURES = {
    "numbers_fib_6.json": ["numbers", "fib", "6"],
    "poly_fib_2.json": ["poly", "fib", "2"],
    "fibonomial_7.json": ["fibonomial", "7"],
    "verify_8.json": ["verify", "8"],
    "verify_8_plain.txt": ["verify", "8", "--format", "plain"],
}


def main() -> int:
    golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
    golden.mkdir(parents=True, exist_ok=True)
    for name, argv in FIXTURES.items():
        result = subprocess.run(
            [sys.executable, "-m", "goldencalc", *argv],
            capture_output=True,
            check=True,
        )
        (golden / name).write_bytes(result.stdout)
        print(f"wrote {golden / name} ({len(result.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
