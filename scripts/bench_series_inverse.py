#!/usr/bin/env python3
"""Time the two exact series-reciprocal routes on the golden exponential.

The O(N^2) convolution recurrence is the route the library uses; Newton
doubling is the alternative, and it has been slower at every order
measured (order 128 on CPython 3.11, 2-core Intel Xeon: 0.04 s for the
recurrence against 0.13 s for Newton, whose products form each
coefficient as one sum of products; 0.23 s against 0.4 s at order 192).  Both must agree coefficient for
coefficient, which this script re-asserts while timing.  The third
column times the sum-rule route of the Bernoulli-Fibonacci numbers
(0.04 s at order 128), whose sums share the recurrence's kernel, and
asserts that it equals the numbers read off the series.

    python3 scripts/bench_series_inverse.py --orders 64 128

The package is imported from this checkout's src/.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from goldencalc.bernoulli import bf_numbers_recursive, bf_numbers_series  # noqa: E402
from goldencalc.series import golden_exponential  # noqa: E402  (after the path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--orders", type=int, nargs="+", default=[16, 32, 64, 128, 192]
    )
    args = parser.parse_args()

    print(f"{'order':>6}  {'recurrence':>12}  {'newton':>12}  {'sum-rule':>12}")
    for order in args.orders:
        series = golden_exponential(order)
        t0 = time.perf_counter()
        naive = series.inverse()
        t1 = time.perf_counter()
        newton = series.inverse_newton()
        t2 = time.perf_counter()
        recursive = bf_numbers_recursive(order)
        t3 = time.perf_counter()
        assert naive == newton
        assert recursive == bf_numbers_series(order)
        print(f"{order:>6}  {t1 - t0:>11.4f}s  {t2 - t1:>11.4f}s  {t3 - t2:>11.4f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
