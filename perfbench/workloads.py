"""What each workload runs, and how its outputs are judged correct.

A workload is a list of `goldencalc` CLI argument vectors.  The seed only
draws the `eval` points (and, in run.py, the command order of each pass);
every other command is fixed and its stdout is pinned by sha256 in
manifest.json.  `eval` outputs are instead recomputed here in Fraction
arithmetic from the coefficients that `poly fib 96` printed in the same pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

MANIFEST_PATH = Path(__file__).with_name("manifest.json")

FORMATS = ("json", "csv", "latex", "plain")
POLY_REFERENCE = ("poly", "fib", "96")
EVAL_POINTS = 3
EVAL_BOUND = 99


def _verify(rng: random.Random) -> list[tuple[str, ...]]:
    # The paper's headline command at two degrees, so the traced run can
    # report the growth exponent between them.
    return [("verify", "32"), ("verify", "64")]


def _tables(rng: random.Random) -> list[tuple[str, ...]]:
    # One order-192 series reciprocal over Fractions beside the integer
    # recursive route; operands reach about 3.9k digits.
    points = [_draw_point(rng) for _ in range(EVAL_POINTS)]
    return [
        ("numbers", "fib", "192", "--method", "both"),
        ("numbers", "classical", "192"),
        POLY_REFERENCE,
    ] + [("eval", "fib", "96", "--", point) for point in points]


def _triangle(rng: random.Random) -> list[tuple[str, ...]]:
    # Integer-only and output-heavy: about 35 MB of stdout per format.
    return [("fibonomial", "250", "--format", fmt) for fmt in FORMATS] + [
        ("binomial", "250")
    ]


WORKLOADS = {"verify": _verify, "tables": _tables, "triangle": _triangle}

# Sizes of the cross-route assertions made in the traced run.  Each pair of
# independent routes must agree exactly; a disagreement is a failed op.
CROSS_ROUTE_SIZES = {
    "verify": {"numbers": 128, "polynomial": 64},
    "tables": {"numbers": 192, "polynomial": 96, "inverse": 192},
    "triangle": {},
}


def _draw_point(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-EVAL_BOUND, EVAL_BOUND), rng.randint(1, EVAL_BOUND)))


def is_seeded(argv: tuple[str, ...]) -> bool:
    """True for commands whose input comes from the seed (not pinned)."""
    return argv[0] == "eval"


def keeps_text(argv: tuple[str, ...]) -> bool:
    """True for commands whose stdout the checks parse; the rest are hashed only."""
    return argv[0] in ("verify", "poly", "eval")


def command_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def load_manifest() -> dict[str, str]:
    return json.loads(MANIFEST_PATH.read_text())


@dataclass(frozen=True)
class Outcome:
    """What one command produced: exit code, stdout digest, and stdout text
    when :func:`keeps_text` says the checks need it."""

    argv: tuple[str, ...]
    returncode: int
    digest: str
    text: str | None = None


def outcome_from_stdout(argv: tuple[str, ...], returncode: int, stdout: bytes) -> Outcome:
    text = stdout.decode("utf-8") if keeps_text(argv) else None
    return Outcome(argv, returncode, hashlib.sha256(stdout).hexdigest(), text)


def judge(outcomes: list[Outcome], manifest: dict[str, str]) -> list[bool]:
    """One verdict per outcome: True when the command's output is correct.

    A nonzero exit code, a digest that differs from the manifest, `verify`
    reporting a failed identity, or an `eval` value that disagrees with the
    harness's own evaluation all make a command fail.  A command that no
    check covers fails too, so nothing passes unchecked.
    """
    coefficients = _reference_coefficients(outcomes, manifest)
    return [_passes(outcome, manifest, coefficients) for outcome in outcomes]


def _reference_coefficients(
    outcomes: list[Outcome], manifest: dict[str, str]
) -> list[Fraction] | None:
    for outcome in outcomes:
        if outcome.argv == POLY_REFERENCE and _pinned_ok(outcome, manifest):
            try:
                coefficients = json.loads(outcome.text)["payload"]["coefficients"]
                return [Fraction(c) for c in coefficients]
            except (ValueError, KeyError, TypeError):
                return None
    return None


def _pinned_ok(outcome: Outcome, manifest: dict[str, str]) -> bool:
    return outcome.returncode == 0 and manifest.get(command_key(outcome.argv)) == outcome.digest


def _passes(
    outcome: Outcome, manifest: dict[str, str], coefficients: list[Fraction] | None
) -> bool:
    if is_seeded(outcome.argv):
        return (
            outcome.returncode == 0
            and coefficients is not None
            and _eval_matches(outcome, coefficients)
        )
    if not _pinned_ok(outcome, manifest):
        return False
    if outcome.argv[0] == "verify":
        try:
            return json.loads(outcome.text)["metadata"]["all_passed"] is True
        except (ValueError, KeyError, TypeError):
            return False
    return True


def _eval_matches(outcome: Outcome, coefficients: list[Fraction]) -> bool:
    try:
        document = json.loads(outcome.text)
        point = Fraction(outcome.argv[-1])
        if Fraction(document["metadata"]["x"]) != point:
            return False
        if document["metadata"]["n"] != len(coefficients) - 1:
            return False
        value = Fraction(document["payload"]["value"])
    except (ValueError, KeyError, TypeError):
        return False
    expected = Fraction(0)
    for c in reversed(coefficients):
        expected = expected * point + c
    return value == expected
