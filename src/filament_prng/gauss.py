"""Generalized quadratic Gauss sums.

G(a, b, c) = sum_{l=0}^{c-1} exp(2 pi i (a l^2 + b l) / c) is evaluated two
independent ways: literal summation (`gauss_direct`, `gauss_direct_row`) and
the closed forms for the three parity classes of the modulus
(`closed_odd_row`, `closed_2mod4_row`, `closed_0mod4_row`).  The closed
forms never feed the direct route, so each can serve as the other's oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvenModulus, NotCoprime, WrongParityClass
from .modular import _check_modulus, factor_pow2, jacobi, mod_inverse

TWO_PI = 2.0 * math.pi

# i**k for k mod 4, kept exact on the unit circle.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


def gauss_direct(a: int, b: int, c: int) -> complex:
    """Literal evaluation of the c-term sum in double precision.

    The phase integers (a l^2 + b l) mod c are reduced exactly before any
    rounding, and numpy's pairwise summation keeps the accumulated error
    orders of magnitude below 1e-9 * sqrt(c) for c up to 1e4.
    """
    _check_modulus(c)
    l = np.arange(c, dtype=np.int64)
    k = (((a % c) * (l * l % c)) % c + (b % c) * l) % c
    return complex(np.exp((2j * np.pi / c) * k).sum())


def gauss_direct_row(a: int, c: int) -> np.ndarray:
    """G(a, b, c) for every b = 0..c-1 as one complex array.

    Same summand family as `gauss_direct`, evaluated through an FFT: with
    w_l = exp(2 pi i a l^2 / c), the row is c * ifft(w).  Only the
    association order of the accumulation differs from the scalar path.
    """
    _check_modulus(c)
    l = np.arange(c, dtype=np.int64)
    k = (a % c) * (l * l % c) % c
    w = np.exp((2j * np.pi / c) * k)
    return c * np.fft.ifft(w)


def gauss_magnitude(p: int, m: int | np.ndarray, q: int) -> float | np.ndarray:
    """|G(-p, m, q)| from the magnitude law, for gcd(p, q) = 1: a float for
    one index m, a float row for an int64 index array.

    sqrt(q) for odd q; sqrt(2q) when q is even and q/2 = m mod 2; else 0.
    """
    _check_modulus(q)
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    m = np.asarray(m, dtype=np.int64)
    if q % 2 == 1:
        return np.full(m.shape, math.sqrt(q))[()]
    return np.where((q // 2 - m) % 2 == 0, math.sqrt(2 * q), 0.0)[()]


def _phase_row(scale: int, ks: np.ndarray, den: int) -> np.ndarray:
    """exp(2 pi i (scale * ks) / den) with the numerator reduced exactly."""
    ks = (scale % den) * (ks % den) % den
    return np.exp((2j * np.pi / den) * ks)


def closed_odd_row(p: int, q: int, ms: np.ndarray) -> np.ndarray:
    """Closed form of G(-p, m, q) for odd q, vectorized over m:
    sqrt(q) (p|q) exp(2 pi i phi m^2 / q), times -i when q = 3 mod 4,
    with phi = (4p)^-1 mod q.
    """
    if q % 2 == 0:
        raise EvenModulus(f"odd-modulus closed form got q={q}")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    p %= q
    phi = mod_inverse(4 * p, q)
    pref = math.sqrt(q) * jacobi(p, q)
    if q % 4 == 3:
        pref *= -1j
    ms = np.asarray(ms, dtype=np.int64)
    return pref * _phase_row(phi, ms * ms % q, q)


def closed_2mod4_row(p: int, q: int, ms: np.ndarray) -> np.ndarray:
    """Closed form of G(-p, m, q) for q = 2 mod 4, q > 2, odd m:
    2 G(-2p, m, q/2) = sqrt(2q) (2p|q/2) exp(4 pi i phi1 m^2 / q), times -i
    when q = 6 mod 8, with phi1 = (8p)^-1 mod (q/2).

    The modulus 2 has no closed form here ("q = 2 is the planar case");
    evaluate it with gauss_direct.
    """
    if q % 4 != 2 or q <= 2:
        raise WrongParityClass(f"need q = 2 mod 4 and q > 2, got q={q}")
    ms = np.asarray(ms, dtype=np.int64)
    if np.any(ms % 2 == 0):
        raise WrongParityClass("this parity class only has odd indices")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    p %= q
    half = q // 2
    phi1 = mod_inverse(8 * p, half)
    pref = math.sqrt(2 * q) * jacobi(2 * p, half)
    if q % 8 == 6:
        pref *= -1j
    # exp(4 pi i phi1 m^2 / q) = exp(2 pi i phi1 m^2 / (q/2))
    return pref * _phase_row(phi1, ms * ms % half, half)


def closed_0mod4_row(p: int, q: int, ms: np.ndarray) -> np.ndarray:
    """Closed form of G(-p, m, q) for q = 0 mod 4 and even m.

    With q = 2**r * q' (q' odd) the sum splits as
    G(-2**r p, m, q') * G(-q' p, m, 2**r); the first factor is the odd-part
    closed form with phi1 = (2**(r+2) p)^-1 mod q', the second is
    exp(pi i phi2 m^2 / 2**(r+1)) (2**r | q' p)(1 - i**(q' p)) sqrt(2**r)
    with phi2 = (q' p)^-1 mod 2**r.
    """
    if q % 4 != 0:
        raise WrongParityClass(f"need q = 0 mod 4, got q={q}")
    ms = np.asarray(ms, dtype=np.int64)
    if np.any(ms % 2 == 1):
        raise WrongParityClass("this parity class only has even indices")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    p %= q
    r, q1 = factor_pow2(q)
    two_r = 1 << r
    phi1 = mod_inverse(4 * two_r * p, q1)
    phi2 = mod_inverse(q1 * p, two_r)
    pref = math.sqrt(q1) * jacobi(two_r * p, q1)
    if q1 % 4 == 3:
        pref *= -1j
    # (2**r | q'p) via multiplicativity in the denominator; q'p stays odd.
    pref *= jacobi(two_r, q1) * jacobi(two_r, p)
    pref *= (1 - _I_POW[q1 * p % 4]) * math.sqrt(two_r)
    m2 = ms * ms
    # exp(pi i phi2 m^2 / 2**(r+1)) = exp(2 pi i phi2 (m^2/4) / 2**r) for even m
    return pref * _phase_row(phi1, m2 % q1, q1) * _phase_row(phi2, (m2 >> 2) % two_r, two_r)


def active_indices(q: int) -> range:
    """Indices m with nonzero G(-p, m, q): all m for odd q, odd m for
    q = 2 mod 4, even m for q = 0 mod 4."""
    if q % 2 == 1:
        return range(q)
    if q % 4 == 2:
        return range(1, q, 2)
    return range(0, q, 2)


def theta_sequence(p: int, q: int) -> np.ndarray:
    """Phases in [0, 2 pi) of the nonzero sums G(-p, m, q), one per m of
    active_indices(q).

    Each phase is taken with math.atan2: np.arctan2 differs from it in the
    last bit for some sums, which would change the polygon bytes.
    """
    _check_modulus(q)
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"p={p} and q={q} are not coprime")
    row = gauss_direct_row(-p, q)[active_indices(q)]
    thetas = np.array([math.atan2(z.imag, z.real) for z in row.tolist()]) % TWO_PI
    thetas[thetas >= TWO_PI] = 0.0  # rounding of tiny negative angles
    return thetas
