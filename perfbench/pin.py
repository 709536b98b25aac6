#!/usr/bin/env python3
"""Rewrite manifest.json: the sha256 of stdout of every seed-independent
workload command, as the CLI in this checkout prints it.

    python3 perfbench/pin.py

Run it only when a change to the CLI output is intended; the benchmark
counts every command whose stdout differs from the manifest as failed.
"""

from __future__ import annotations

import json
import random
import sys

import workloads
from run import child_env, cli_argv, run_command


def main() -> int:
    env = child_env()
    manifest = {}
    for make_commands in workloads.WORKLOADS.values():
        for argv in make_commands(random.Random(0)):
            if workloads.is_seeded(argv):
                continue
            finished = run_command(cli_argv(argv), env, keep_text=False)
            if finished.returncode != 0:
                print(f"error: {workloads.command_key(argv)} exited {finished.returncode}", file=sys.stderr)
                return 1
            manifest[workloads.command_key(argv)] = finished.digest
    workloads.MANIFEST_PATH.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
