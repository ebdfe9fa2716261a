#!/usr/bin/env python3
"""Empirical check of the many-multipliers discrepancy lower bound.

The existence bound says more than A_p(t)(p-1) multipliers a produce a
full-period stream whose k-dimensional discrepancy is at least
t/(2(pi+2)) p^(-1/2).  That counts multipliers, so no single stream can
confirm or refute it; this script measures the fraction of multipliers
exceeding the threshold and prints it next to A_p(t).  Report only - the
per-instance inequality is deliberately not asserted anywhere.

Usage:
    python scripts/theorem3_fraction.py -p 101 -t 0.5
    python scripts/theorem3_fraction.py -p 499 -t 0.8 --sample 100
"""

from __future__ import annotations

import argparse

from filament_prng.prng import StreamSpec, eicg_stream
from filament_prng.stattest import serial_test, theorem3_lower


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-p", type=int, default=101, help="prime modulus")
    parser.add_argument("-t", type=float, default=0.5, help="threshold parameter")
    parser.add_argument("-k", type=int, default=2, help="tuple dimension")
    parser.add_argument(
        "--sample",
        type=int,
        default=0,
        help="check only the first N multipliers (0 = all of 1..p-1)",
    )
    args = parser.parse_args()

    p, k = args.p, args.k
    threshold, predicted = theorem3_lower(p, args.t)
    multipliers = range(1, p) if not args.sample else range(1, min(p, args.sample + 1))
    exceeding = 0
    total = 0
    for a in multipliers:
        samples = eicg_stream(StreamSpec.eicg(p, a, 0), p)
        # the star discrepancy lower-bounds the extreme discrepancy the
        # theorem speaks about, so this undercounts if anything
        star = serial_test(samples.u, k).star
        exceeding += star >= threshold
        total += 1
    print(f"p={p} k={k} t={args.t}")
    print(f"threshold            : {threshold:.6f}")
    print(f"predicted fraction   : > {predicted:.4f} (of all p-1 multipliers)")
    print(f"measured fraction    : {exceeding}/{total} = {exceeding / total:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
