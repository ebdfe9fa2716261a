#!/usr/bin/env python3
"""Measured serial-test discrepancy against the reference curves.

For each prime modulus this prints the exact star discrepancy of the
full-period inversive stream (k-tuples, lags 0..k-1), the extreme-
discrepancy enclosure, the proved upper bound, and the magnitude
p^(-1/2) (log log p)^(1/2) that truly random points would show.  The last
column is context only: the theory makes no per-instance claim there, so
nothing is asserted against it.

Usage:
    python scripts/discrepancy_sweep.py
    python scripts/discrepancy_sweep.py --primes 101,211,499,1009 -k 2 -a 4
"""

from __future__ import annotations

import argparse
import math

from filament_prng.prng import StreamSpec, eicg_stream
from filament_prng.stattest import serial_test


def random_reference(p: int) -> float:
    return math.sqrt(math.log(math.log(p))) / math.sqrt(p)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--primes",
        default="101,211,499,1009,2003,4093",
        help="comma-separated prime moduli",
    )
    parser.add_argument("-k", type=int, default=2, help="tuple dimension")
    parser.add_argument("-a", type=int, default=4, help="stream multiplier")
    parser.add_argument("-b", type=int, default=0, help="stream offset")
    args = parser.parse_args()

    primes = [int(tok) for tok in args.primes.split(",")]
    print(
        f"{'p':>6}  {'D*':>10}  {'2^k D*':>10}  {'bound':>10}  "
        f"{'sqrt(loglog p)/sqrt(p)':>22}"
    )
    for p in primes:
        samples = eicg_stream(StreamSpec.eicg(p, args.a, args.b), p)
        rep = serial_test(samples.u, args.k)
        bound = rep.theorem2_upper if rep.theorem2_upper is not None else float("nan")
        print(
            f"{p:>6}  {rep.star:>10.6f}  {rep.extreme_upper:>10.6f}  "
            f"{bound:>10.6f}  {random_reference(p):>22.6f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
