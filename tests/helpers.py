"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force (enumeration,
direct counting, factorization) and never calls the code paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def inverse_by_search(a: int, n: int) -> int | None:
    """Exhaustive-search modular inverse; None when none exists."""
    if n == 1:
        return 0
    for x in range(n):
        if a * x % n == 1:
            return x
    return None


def totient_by_count(q: int) -> int:
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion (p an odd prime)."""
    a %= p
    if a == 0:
        return 0
    value = pow(a, (p - 1) // 2, p)
    return -1 if value == p - 1 else value


def jacobi_by_factorization(a: int, n: int) -> int:
    """Jacobi symbol as the product of Legendre symbols over n's factors."""
    if n == 1:
        return 1
    result = 1
    for prime, exp in factorize(n).items():
        result *= legendre_euler(a, prime) ** exp
    return result


def sieve_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i, f in enumerate(flags) if f]


def star_discrepancy_oracle(points: np.ndarray) -> float:
    """Brute-force star discrepancy: every grid corner from the coordinate
    values union {1}, counting both open and closed boxes directly."""
    n, k = points.shape
    axes = [np.append(np.unique(points[:, d]), 1.0) for d in range(k)]
    best = 0.0
    for corner in itertools.product(*axes):
        c = np.array(corner)
        closed = int(np.all(points <= c, axis=1).sum())
        opened = int(np.all(points < c, axis=1).sum())
        vol = corner[0]
        for coord in corner[1:]:
            vol = vol * coord
        best = max(best, closed / n - vol, vol - opened / n)
    return best


def gauss_direct(a: int, b: int, c: int) -> complex:
    """Literal evaluation of the c-term sum
    G(a, b, c) = sum_{l=0}^{c-1} exp(2 pi i (a l^2 + b l) / c).

    The phase integers (a l^2 + b l) mod c are reduced exactly before any
    rounding, and numpy's pairwise summation keeps the accumulated error
    orders of magnitude below 1e-9 * sqrt(c) for c up to 1e4.
    """
    l = np.arange(c, dtype=np.int64)
    k = (((a % c) * (l * l % c)) % c + (b % c) * l) % c
    return complex(np.exp((2j * np.pi / c) * k).sum())
