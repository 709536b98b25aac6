#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures in tests/golden/.

Each fixture is the exact stdout byte stream of one CLI invocation, so
the files are produced through a subprocess rather than in-process.  The
invocations are listed in tests/golden_invocations.json, which the golden
test in tests/test_cli.py reads too.  The CLI is run from this checkout's
src/, whatever copy of goldencalc the caller's environment may hold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
GOLDEN = TESTS / "golden"


def child_env() -> dict[str, str]:
    """The caller's environment with this checkout's src/ first on PYTHONPATH."""
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def main() -> int:
    invocations = json.loads((TESTS / "golden_invocations.json").read_text())
    env = child_env()
    for name, argv in invocations.items():
        result = subprocess.run(
            [sys.executable, "-m", "goldencalc", *argv],
            capture_output=True,
            check=True,
            env=env,
            cwd=ROOT,
        )
        (GOLDEN / name).write_bytes(result.stdout)
        print(f"wrote {GOLDEN / name} ({len(result.stdout)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
