"""Generalized quadratic Gauss sums.

G(a, b, c) = sum_{l=0}^{c-1} exp(2 pi i (a l^2 + b l) / c) is evaluated two
independent ways: literal summation over a whole row of b
(`gauss_direct_row`) and the closed form of G(-p, m, q) (`closed_row`),
one formula for every modulus through the split q = 2**r q' with q' odd.
The closed form never feeds the direct route, so each can serve as the
other's oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .modular import _check_modulus, coprime_row, factor_pow2, inverse_row, jacobi

TWO_PI = 2.0 * math.pi

# i**k for k mod 4, kept exact on the unit circle.
_I_POW = np.array([1 + 0j, 1j, -1 + 0j, -1j])


def _unit_roots(den: int) -> np.ndarray:
    """exp(2 pi i k / den) for k = 0..den-1, bit for bit the values the
    same exponential gives at any one k."""
    return np.exp((2j * np.pi / den) * np.arange(den, dtype=np.int64))


def gauss_direct_row(a: int | np.ndarray, c: int) -> np.ndarray:
    """G(a, b, c) for every b = 0..c-1: one complex row for an int a, a
    (P, c) stack of rows for an int64 array of P values of a.

    The summands are evaluated through an FFT: with
    w_l = exp(2 pi i a l^2 / c), the row is c * ifft(w).  Only the
    association order of the accumulation differs from a literal sum.  The
    summands of every row of a stack are read from one table of the c-th
    roots of unity.
    """
    _check_modulus(c)
    l = np.arange(c, dtype=np.int64)
    # a Python int of any size is reduced before it meets the int64 array
    k = np.asarray(np.asarray(a) % c, dtype=np.int64)[..., None] * (l * l % c) % c
    return c * np.fft.ifft(_unit_roots(c)[k], axis=-1)


def gauss_magnitude(p: int, m: int | np.ndarray, q: int) -> float | np.ndarray:
    """|G(-p, m, q)| from the magnitude law, for gcd(p, q) = 1: a float for
    one index m, a float row for an int64 index array.

    sqrt(q) for odd q; sqrt(2q) when q is even and q/2 = m mod 2; else 0.
    """
    coprime_row(p, q)
    m = np.asarray(m, dtype=np.int64)
    if q % 2 == 1:
        return np.full(m.shape, math.sqrt(q))[()]
    return np.where((q // 2 - m) % 2 == 0, math.sqrt(2 * q), 0.0)[()]


def _phase_row(scale: np.ndarray, ks: np.ndarray, den: int) -> np.ndarray:
    """exp(2 pi i (scale * ks) / den) with the numerator reduced exactly; a
    column of scales against a row of ks gives one grid of phases, read
    from the table of den-th roots."""
    return _unit_roots(den)[scale[..., None] * (ks % den) % den]


def closed_row(p: int | np.ndarray, q: int, ms: np.ndarray) -> np.ndarray:
    """Closed form of G(-p, m, q) for every q >= 1, vectorized over m: one
    row for an int p, a (P, len(ms)) stack for an int64 array of P values.

    With q = 2**r q' (q' odd) the sum splits by the Chinese remainder
    theorem as G(-2**r p, m, q') G(-q' p, m, 2**r).  The odd factor is
    sqrt(q') (2**r p | q') exp(2 pi i phi1 m^2 / q'), times -i when
    q' = 3 mod 4, with phi1 = (2**(r+2) p)^-1 mod q'.  The 2-power factor
    is 1 for r = 0; 2 at odd m for r = 1; for r >= 2 it is
    exp(pi i phi2 m^2 / 2**(r+1)) (2**r | q' p)(1 - i**(q' p)) sqrt(2**r)
    at even m, with phi2 = (q' p)^-1 mod 2**r.  Both inverses come from
    inverse_row.  The phases are read from tables of the q'-th and 2**r-th
    roots of unity, so a call costs O(q) however few indices it asks for,
    as gauss_direct_row does.  At the indices where the magnitude law puts
    no mass the row holds an exact 0.
    """
    ps = coprime_row(p, q)
    r, q1 = factor_pow2(q)
    two_r = 1 << r
    ms = np.asarray(ms, dtype=np.int64) % q
    m2 = ms * ms
    # (2**r p | q') = (2**r | q')(p | q'), one Python step per p
    symbols = [jacobi(v, q1) for v in ps.ravel().tolist()]
    pref = math.sqrt(q1) * (jacobi(two_r, q1) * np.array(symbols).reshape(ps.shape))
    if q1 % 4 == 3:
        pref = pref * -1j
    phi1 = inverse_row(4 * two_r % q1 * ps, q1)
    odd_phase = _phase_row(phi1, m2 % q1, q1)
    if r == 0:
        return pref[..., None] * odd_phase
    if r == 1:
        return np.where(ms % 2 == 1, 2 * pref[..., None] * odd_phase, 0j)
    phi2 = inverse_row(q1 % two_r * ps, two_r)
    # (2**r | q'p) = (2**r | q')(2 | p)**r, with (2 | p) = 1 iff p = +-1 mod 8.
    two_p = np.where((ps % 8 == 1) | (ps % 8 == 7), 1, -1)
    pref = pref * (jacobi(two_r, q1) * two_p**r)
    pref = pref * ((1 - _I_POW[q1 * ps % 4]) * math.sqrt(two_r))
    # exp(pi i phi2 m^2 / 2**(r+1)) = exp(2 pi i phi2 (m^2/4) / 2**r) for even m
    row = pref[..., None] * odd_phase * _phase_row(phi2, (m2 >> 2) % two_r, two_r)
    return np.where(ms % 2 == 0, row, 0j)


def active_indices(q: int) -> range:
    """Indices m with nonzero G(-p, m, q): all m for odd q, odd m for
    q = 2 mod 4, even m for q = 0 mod 4."""
    if q % 2 == 1:
        return range(q)
    if q % 4 == 2:
        return range(1, q, 2)
    return range(0, q, 2)


def theta_sequence(p: int | np.ndarray, q: int) -> np.ndarray:
    """Phases in [0, 2 pi) of the nonzero sums G(-p, m, q), one per m of
    active_indices(q): one row for an int p, a (P, ·) stack of rows for an
    int64 array of P values.

    Each phase is taken with math.atan2: np.arctan2 differs from it in the
    last bit for some sums, which would change the polygon bytes.
    """
    ps = coprime_row(p, q)
    active = active_indices(q)
    rows = gauss_direct_row(-ps, q)[..., active.start :: active.step]
    phases = map(math.atan2, rows.imag.ravel().tolist(), rows.real.ravel().tolist())
    thetas = np.fromiter(phases, float, rows.size).reshape(rows.shape) % TWO_PI
    thetas[thetas >= TWO_PI] = 0.0  # rounding of tiny negative angles
    return thetas
