#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures in tests/golden/.

Each fixture is the exact stdout byte stream of one CLI invocation, so
the files are produced through a subprocess rather than in-process.  The
invocations are listed in tests/golden_invocations.json, which the golden
test in tests/test_cli.py reads too.
"""

import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
GOLDEN = TESTS / "golden"


def main() -> int:
    invocations = json.loads((TESTS / "golden_invocations.json").read_text())
    for name, argv in invocations.items():
        result = subprocess.run(
            [sys.executable, "-m", "goldencalc", *argv],
            capture_output=True,
            check=True,
        )
        (GOLDEN / name).write_bytes(result.stdout)
        print(f"wrote {GOLDEN / name} ({len(result.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
