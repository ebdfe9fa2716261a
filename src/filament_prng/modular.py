"""Exact integer arithmetic: modular powers of int64 arrays (`pow_row`) and
`inverse_row`, the one inversion routine; the inverse map phi over an array
(`phi_row`); `coprime_row`, the one coprimality check; Jacobi symbols over
an array (`jacobi_row`), totients, and windows of the integers coprime to a
modulus (`coprime_window`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import EvenModulus, NotCoprime, RangeError

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


def inverse_row(v: np.ndarray, n: int) -> np.ndarray:
    """v**-1 mod n over an int64 array whose entries are units mod n, by
    Euler's theorem v**(phi(n) - 1); the callers ensure the precondition."""
    return pow_row(v, euler_totient(n) - 1, n)


def coprime_row(p: int | np.ndarray, q: int) -> np.ndarray:
    """p (an int or an int64 array) reduced into [0, q) as int64, refused
    unless every entry is coprime to q; Python ints of any size are reduced
    before they meet the fixed-width array."""
    _check_modulus(q)
    ps = np.asarray(np.asarray(p) % q, dtype=np.int64)
    shared = np.gcd(ps, q) != 1
    if shared.any():
        raise NotCoprime(f"p={p if ps.ndim == 0 else ps[shared][0]} and q={q} are not coprime")
    return ps


def jacobi_row(a: int | np.ndarray, n: int) -> np.ndarray:
    """Jacobi symbols (a | n) over an int or an int64 array a, for odd n >= 1,
    as int64; 0 where gcd(a, n) > 1, and (a | 1) = 1.

    The product over the prime powers l**e of n of the Legendre symbol
    (a | l)**e, each read from a table of the squares mod l: O(len(a) + l)
    work and memory for l the largest prime factor of n.
    """
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs a positive odd modulus, got {n}")
    _check_modulus(n)
    residues = np.asarray(np.asarray(a) % n, dtype=np.int64)
    result = np.ones(residues.shape, dtype=np.int64)
    rest = n
    for prime in _prime_factors(n):
        squares = np.arange(prime // 2 + 1, dtype=np.int64)
        legendre = np.full(prime, -1, dtype=np.int64)
        legendre[squares * squares % prime] = 1
        legendre[0] = 0
        symbol = legendre[residues % prime]
        exponent = 0
        while rest % prime == 0:
            rest //= prime
            exponent += 1
        result *= symbol if exponent % 2 else symbol * symbol
    return result


@lru_cache(maxsize=1024)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division that
    stops once the cofactor left is prime, tested on n and after each factor.

    Memoized: a stream's windows, their inverses and the sweeps over q ask
    for the same few moduli again, and a modulus with two large prime
    factors costs milliseconds of trial division."""
    primes = []
    p = 2
    cofactor_prime = is_probable_prime(n)
    while not cofactor_prime and p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
            cofactor_prime = is_probable_prime(n)
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return tuple(primes)


def euler_totient(q: int) -> int:
    """Count of 1 <= k <= q coprime to q, via the Euler product."""
    _check_modulus(q)
    result = q
    for p in _prime_factors(q):
        result -= result // p
    return result


def factor_pow2(q: int) -> tuple[int, int]:
    """(r, q_odd) with q = 2**r * q_odd and q_odd odd."""
    _check_modulus(q)
    r = (q & -q).bit_length() - 1
    return r, q >> r


def _phi_class(q: int) -> tuple[int, int]:
    """(scale, den) with phi(p) = (scale p)^-1 mod den: (4, q) for odd q,
    (1, q/2) when q = 2 mod 4, (1, q) when q = 0 mod 4."""
    if q % 2 == 1:
        return 4, q
    if q % 4 == 2:
        return 1, q // 2
    return 1, q


def phi_row(p: int | np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """(phi, effective modulus) of the inverse map driving the
    tangent-evolution phases, over an int or an int64 array of p coprime
    to q: (4p)^-1 mod q for odd q; p^-1 mod (q/2) when q = 2 mod 4; p^-1
    mod q when q = 0 mod 4.  The effective modulus is the ring phi lives in.
    """
    ps = coprime_row(p, q)
    scale, den = _phi_class(q)
    return inverse_row(scale * ps, den), den


def phi_p(p: int, q: int) -> tuple[int, int]:
    """The scalar form of phi_row: (phi, effective modulus) for one int p."""
    _check_modulus(q)
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    scale, den = _phi_class(q)
    return pow(scale * p, -1, den), den


def _coprime_terms(modulus: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The prime factors of modulus, and its D squarefree divisors d with
    their Moebius signs mu(d) as int64 rows; D <= 2**9 below 2**31."""
    primes = _prime_factors(modulus)
    divisors = np.ones(1, dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for p in primes:
        divisors = np.concatenate([divisors, divisors * p])
        signs = np.concatenate([signs, -signs])
    return primes, divisors, signs


def _count_coprimes(n: int, modulus: int, divisors: np.ndarray, signs: np.ndarray) -> int:
    """C(n), the count of 1 <= k <= n coprime to modulus (n >= 0): the sum of
    mu(d) floor(n / d), with whole periods split off so every term stays
    below 2**31."""
    periods, rest = divmod(n, modulus)
    return periods * int(signs @ (modulus // divisors)) + int(signs @ (rest // divisors))


def coprime_count(modulus: int, n: int) -> int:
    """Count of 1 <= k <= n coprime to modulus; 0 for n < 1."""
    _check_modulus(modulus)
    _, divisors, signs = _coprime_terms(modulus)
    return _count_coprimes(max(n, 0), modulus, divisors, signs)


def coprime_window(modulus: int, start: int, count: int) -> np.ndarray:
    """The start-th through (start + count - 1)-th positive integers coprime
    to modulus, ascending, as int64; the 0-th is 1.

    The count C(N) of coprimes up to N, a sum of mu(d) floor(N / d) over
    the D squarefree divisors d of modulus, differs from N phi / modulus by
    less than D / 2.  So each end of the window is one count and a walk of
    at most D modulus / phi integers away, and the span between the ends is
    sieved by the prime factors of modulus: O(log start + count) work.
    Refused before the span is built when the last value passes the int64
    bound.
    """
    _check_modulus(modulus)
    if start < 0 or count < 0:
        raise RangeError(f"coprime window needs start, count >= 0, got {start}, {count}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    primes, divisors, signs = _coprime_terms(modulus)
    phi = _count_coprimes(modulus, modulus, divisors, signs)

    def nth(t: int) -> int:
        """The t-th coprime v (t >= 1, C(v) = t), walked to from below
        (t - D/2) modulus / phi."""
        v = max((2 * t - len(divisors)) * modulus // (2 * phi), 0)
        seen = _count_coprimes(v, modulus, divisors, signs)
        while seen < t:
            v += 1
            seen += math.gcd(v, modulus) == 1
        return v

    first, last = nth(start + 1), nth(start + count)
    if last >= 2**63:
        raise RangeError(
            f"the coprimes to {modulus} from the {start}-th for {count} pass the int64 bound 2**63 - 1"
        )
    mask = np.ones(last - first + 1, dtype=bool)
    for p in primes:
        mask[-first % p :: p] = False
    window = np.flatnonzero(mask).astype(np.int64, copy=False)
    window += first
    return window


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
