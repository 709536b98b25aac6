#!/usr/bin/env python3
"""Print LaTeX tables of Bernoulli(-Fibonacci) numbers and polynomials.

Example:
    python scripts/make_tables.py --max-number 10 --max-poly 6 > tables.tex
"""

import argparse

from goldencalc.cli import build_numbers_document, build_polynomial_document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", choices=("fib", "classical"), default="fib")
    parser.add_argument("--max-number", type=int, default=10)
    parser.add_argument("--max-poly", type=int, default=6)
    args = parser.parse_args()

    print("% number table")
    print(build_numbers_document(args.variant, args.max_number, "series").render("latex"))
    print()
    print("% polynomials")
    for n in range(args.max_poly + 1):
        print(build_polynomial_document(args.variant, n).render("latex"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
