"""Exact integer arithmetic: modular powers of int64 arrays (`pow_row`, the
one inversion routine of the streams), inverses, Jacobi symbols, totients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvenModulus, NotCoprime, NotInvertible, RangeError

# Largest ring modulus accepted anywhere in the package.  Products of two
# reduced residues then stay below 2**62, so every intermediate fits a
# signed 64-bit word and behaviour is portable to fixed-width arithmetic.
MAX_MODULUS = 2**31


def _check_modulus(n: int) -> None:
    if n < 1:
        raise RangeError(f"modulus must be positive, got {n}")
    if n > MAX_MODULUS:
        raise RangeError(f"modulus {n} exceeds supported bound 2**31")


def pow_row(v: np.ndarray, e: int, n: int) -> np.ndarray:
    """v**e mod n over an int64 array by square-and-multiply, e >= 0.  Every
    operand is reduced below n <= MAX_MODULUS, so products stay below 2**62."""
    _check_modulus(n)
    if e < 0:
        raise RangeError(f"exponent must be nonnegative, got {e}")
    base = np.asarray(v, dtype=np.int64) % n
    result = np.full(base.shape, 1 % n, dtype=np.int64)
    while e:
        if e & 1:
            result *= base
            result %= n
        base *= base
        base %= n
        e >>= 1
    return result


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n by the extended Euclidean algorithm.

    n = 1 returns 0: the ring Z_1 is trivial and every congruence there
    holds vacuously.
    """
    _check_modulus(n)
    if math.gcd(a, n) != 1:
        raise NotInvertible(f"{a % n} has no inverse mod {n}")
    return pow(a, -1, n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n >= 1; 0 when gcd(a, n) > 1.

    (a | 1) = 1 by the empty-product convention.  The denominator is not
    range-limited: closed-form recombination feeds products of two bounded
    moduli through here.
    """
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs a positive odd modulus, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_totient(q: int) -> int:
    """Count of 1 <= k <= q coprime to q, via the Euler product."""
    _check_modulus(q)
    result = q
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            result -= result // p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def factor_pow2(q: int) -> tuple[int, int]:
    """(r, q_odd) with q = 2**r * q_odd and q_odd odd."""
    _check_modulus(q)
    r = (q & -q).bit_length() - 1
    return r, q >> r


def phi_p(p: int, q: int) -> tuple[int, int]:
    """(phi, effective modulus) of the inverse map driving the
    tangent-evolution phases.

    (4p)^-1 mod q for odd q; p^-1 mod (q/2) when q = 2 mod 4; p^-1 mod q
    when q = 0 mod 4.  The effective modulus is the ring phi lives in.
    """
    _check_modulus(q)
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    if q % 2 == 1:
        return pow(4 * p, -1, q), q
    if q % 4 == 2:
        return pow(p, -1, q // 2), q // 2
    return pow(p, -1, q), q


def coprime_residues(q: int) -> list[int]:
    """Residues 1 <= p < q coprime to q, ascending; empty for q = 1."""
    _check_modulus(q)
    candidates = np.arange(1, q, dtype=np.int64)
    return candidates[np.gcd(candidates, q) == 1].tolist()


# Witnesses making Miller-Rabin deterministic for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
