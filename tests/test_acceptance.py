"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s to see them
all); the asserts carry the same conditions.
"""

import math
import time

import numpy as np

from filament_prng.filament import circle_row, corner_angle
from filament_prng.modular import euler_totient
from filament_prng.prng import (
    StreamSpec,
    eicg_pow2_stream,
    eicg_stream,
    lcg_stream,
    randu_preset,
    vfe_unit_samples,
)
from filament_prng.stattest import (
    TupleCloud,
    make_tuples,
    randu_plane_count,
    star_discrepancy,
    theorem2_upper,
)
from filament_prng.verify import (
    verify_closure,
    verify_compound,
    verify_gauss,
    verify_theorem1,
)
from helpers import sieve_primes, star_discrepancy_oracle


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_gauss_sum_law():
    start = time.time()
    magnitude, closed = verify_gauss(q_max=300)
    elapsed = time.time() - start
    ok = magnitude.passed and closed.passed and elapsed <= 60.0
    report(
        "1 gauss-sum law (q <= 300)",
        ok,
        f"magnitude err {magnitude.max_error:.2e}, closed err "
        f"{closed.max_error:.2e} vs 1e-9*sqrt(q); {magnitude.cases} + "
        f"{closed.cases} cases in {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_closure():
    start = time.time()
    suite = verify_closure(sides_range=(3, 10), q_max=50)
    elapsed = time.time() - start
    ok = suite.passed and elapsed <= 120.0
    report(
        "2 closure (M 3..10, q <= 50)",
        ok,
        f"max residual {suite.max_error:.2e} < 1e-7 over {suite.cases} "
        f"configurations in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_3_theorem1_equivalence():
    start = time.time()
    suite = verify_theorem1(sides_range=(3, 8), q_max=40)
    elapsed = time.time() - start
    ok = suite.passed and elapsed <= 120.0
    report(
        "3 geometric vs closed form (M 3..8, q <= 40)",
        ok,
        f"max error {suite.max_error:.2e} < 1e-8 over {suite.cases} "
        f"(p, m) cases in {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_circle_law():
    worst_radius = 0.0
    min_gap = math.inf
    for q in (101, 128, 202, 1009):
        angle = corner_angle(3, q)
        values = circle_row(angle, vfe_unit_samples(q).u)
        assert len(values) == euler_totient(q), f"count mismatch at q={q}"
        radii = np.abs(values - 1j * angle.cos_rho**2)
        worst_radius = max(worst_radius, np.max(np.abs(radii - angle.sin_rho**2)))
        diffs = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(diffs, np.inf)
        min_gap = min(min_gap, float(diffs.min()))
    ok = worst_radius < 1e-9 and min_gap > 1e-9
    report(
        "4 circle law (q in 101, 128, 202, 1009)",
        ok,
        f"phi(q) points each; worst radius defect {worst_radius:.2e} < 1e-9, "
        f"closest pair {min_gap:.2e} > 1e-9",
    )


def test_criterion_5_eicg_structure():
    start = time.time()
    checked = 0
    for q in sieve_primes(10_000):
        a = 4 if 4 % q else 1  # a must not vanish mod q (q = 2)
        xs = eicg_stream(StreamSpec.eicg(q, a, 0), q).x.tolist()
        assert sorted(xs) == list(range(q)), f"not a permutation at q={q}"
        checked += 1
    for q, a, b in [(101, 1, 0), (101, 17, 5), (499, 3, 11), (1009, 99, 98)]:
        xs = eicg_stream(StreamSpec.eicg(q, a, b), q).x.tolist()
        assert sorted(xs) == list(range(q)), f"not a permutation at {(q, a, b)}"
    odd_ok = True
    for omega in range(5, 17):
        spec = StreamSpec.eicg_pow2(omega, a=2, b=1)
        period = 1 << (omega - 1)
        xs = set(eicg_pow2_stream(spec, period).x.tolist())
        odd_ok = odd_ok and xs == set(range(1, spec.q, 2))
    elapsed = time.time() - start
    report(
        "5 inversive structure",
        odd_ok,
        f"full-period permutation for all {checked} primes <= 1e4 plus "
        f"4 extra (a, b); odd residues exact for omega 5..16 ({elapsed:.1f}s)",
    )


def test_criterion_6_randu():
    q = 2**31
    xs = lcg_stream(randu_preset(), 1_000_000).x.tolist()
    recurrence_ok = all(
        (9 * x0 - 6 * x1 + x2) % q == 0 for x0, x1, x2 in zip(xs, xs[1:], xs[2:])
    )
    planes = randu_plane_count(1_000_000)
    ok = recurrence_ok and planes == 15
    report(
        "6 RANDU lattice",
        ok,
        f"three-term recurrence exact over 1e6 samples; plane count {planes} == 15",
    )


def test_criterion_7_serial_vs_theorem2():
    start = time.time()
    lines = []
    ok = True
    for q in (101, 211, 499):
        samples = eicg_stream(StreamSpec.eicg(q, 4, 0), q)
        star = star_discrepancy(make_tuples(samples.u, 2, (0, 1)))
        bound = theorem2_upper(q, 2)
        ok = ok and 4.0 * star <= bound
        lines.append(f"q={q}: D*={star:.5f}, 4D*={4 * star:.5f} <= {bound:.5f}")
    elapsed = time.time() - start
    ok = ok and elapsed <= 600.0
    report(
        "7 serial test vs reference bound (k=2)",
        ok,
        "; ".join(lines) + f" ({elapsed:.1f}s, limit 600s)",
    )


def test_criterion_8_compound_identity():
    suite = verify_compound(prime_sets=((5, 7), (11, 13, 17)), p_max=10_000)
    report(
        "8 compound product identity",
        suite.passed,
        f"max residual {suite.max_error:.2e} < 1e-9 over {suite.cases} "
        "admissible indices p <= 1e4 for primes (5,7) and (11,13,17)",
    )


def test_criterion_9_oracle_parity():
    rng = np.random.default_rng(123456789)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 65))
        k = int(rng.integers(1, 3))
        pts = rng.random((n, k))
        cloud = TupleCloud(points=pts, k=k, lags=tuple(range(k)), n=n)
        if star_discrepancy(cloud) != star_discrepancy_oracle(pts):
            mismatches += 1
    report(
        "9 exact star discrepancy vs brute-force oracle",
        mismatches == 0,
        f"200 random point sets (N <= 64, k <= 2), {mismatches} mismatches",
    )
