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
from typing import Callable

import numpy as np

from .modular import _check_modulus, coprime_row, factor_pow2, inverse_row, jacobi_row

TWO_PI = 2.0 * math.pi

# Phases converted to Python floats for math.atan2 at a time, so a long
# period never becomes two whole lists of Python floats.
_ATAN2_WINDOW = 2**14

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


def closed_prefactor(p: int | np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-p part of closed_row: (pref, phi1, phi2) over an int or an
    int64 array of p coprime to q, each of the shape of p.

    pref is sqrt(q') (2**r p | q'), times -i when q' = 3 mod 4; times 2 for
    r = 1; for r >= 2 times (2**r | q' p)(1 - i**(q' p)) sqrt(2**r).  The
    inverses are phi1 = (2**(r+2) p)^-1 mod q' and phi2 = (q' p)^-1 mod 2**r,
    both from inverse_row; the phases read phi2 only for r >= 2.
    """
    ps = coprime_row(p, q)
    r, q1 = factor_pow2(q)
    two_r = 1 << r
    two_r_symbol = int(jacobi_row(two_r, q1))
    # (2**r p | q') = (2**r | q')(p | q')
    pref = math.sqrt(q1) * (two_r_symbol * jacobi_row(ps, q1))
    if q1 % 4 == 3:
        pref = pref * -1j
    phi1 = inverse_row(4 * two_r % q1 * ps, q1)
    phi2 = inverse_row(q1 % two_r * ps, two_r)
    if r == 1:
        pref = 2 * pref
    elif r >= 2:
        # (2**r | q'p) = (2**r | q')(2 | p)**r, with (2 | p) = 1 iff p = +-1 mod 8.
        two_p = np.where((ps % 8 == 1) | (ps % 8 == 7), 1, -1)
        pref = pref * (two_r_symbol * two_p**r)
        pref = pref * ((1 - _I_POW[q1 * ps % 4]) * math.sqrt(two_r))
    return pref, phi1, phi2


def closed_grid(
    q: int, ms: np.ndarray | range
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """The per-(p, m) part of closed_row at one q and index row ms: a
    function of closed_prefactor's (pref, phi1, phi2), for a run of P
    values of p, giving their (P, len(ms)) grid of the closed form.

    The odd factor's phase is exp(2 pi i phi1 m^2 / q'); for r >= 2 the
    2-power factor's is exp(pi i phi2 m^2 / 2**(r+1)) at even m.  The m^2
    terms and the tables of q'-th and 2**r-th roots are built here, once;
    each grid reads them with one product and one reduction per entry.
    At the indices where the magnitude law puts no mass the grid holds an
    exact 0.
    """
    r, q1 = factor_pow2(q)
    two_r = 1 << r
    ms = np.asarray(ms, dtype=np.int64) % q
    m2 = ms * ms
    odd_roots, odd_ks = _unit_roots(q1), m2 % q1
    # exp(pi i phi2 m^2 / 2**(r+1)) = exp(2 pi i phi2 (m^2/4) / 2**r) for even m
    two_roots, two_ks = _unit_roots(two_r), (m2 >> 2) % two_r
    active = active_indices(q)
    massless = (ms - active.start) % active.step != 0
    if not massless.any():
        massless = None

    def grid(pref: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
        row = pref[..., None] * odd_roots[phi1[..., None] * odd_ks % q1]
        if r >= 2:
            row *= two_roots[phi2[..., None] * two_ks % two_r]
        if massless is not None:
            row[..., massless] = 0j
        return row

    return grid


def closed_row(p: int | np.ndarray, q: int, ms: np.ndarray) -> np.ndarray:
    """Closed form of G(-p, m, q) for every q >= 1, vectorized over m: one
    row for an int p, a (P, len(ms)) stack for an int64 array of P values.

    With q = 2**r q' (q' odd) the sum splits by the Chinese remainder
    theorem as G(-2**r p, m, q') G(-q' p, m, 2**r).  The odd factor is
    sqrt(q') (2**r p | q') exp(2 pi i phi1 m^2 / q'), times -i when
    q' = 3 mod 4, with phi1 = (2**(r+2) p)^-1 mod q'.  The 2-power factor
    is 1 for r = 0; 2 at odd m for r = 1; for r >= 2 it is
    exp(pi i phi2 m^2 / 2**(r+1)) (2**r | q' p)(1 - i**(q' p)) sqrt(2**r)
    at even m, with phi2 = (q' p)^-1 mod 2**r.  The per-p factors come from
    closed_prefactor and the phase grid from closed_grid; the phases are
    read from tables of the q'-th and 2**r-th roots of unity, so a call
    costs O(q) however few indices it asks for, as gauss_direct_row does.
    At the indices where the magnitude law puts no mass the row holds an
    exact 0.
    """
    return closed_grid(q, ms)(*closed_prefactor(p, q))


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

    Each phase is taken with math.atan2, in windows of _ATAN2_WINDOW
    sums: np.arctan2 differs from it in the last bit for some sums, which
    would change the polygon bytes.
    """
    ps = coprime_row(p, q)
    active = active_indices(q)
    rows = gauss_direct_row(-ps, q)[..., active.start :: active.step]
    im, re = rows.imag.ravel(), rows.real.ravel()
    thetas = np.empty(rows.size)
    for lo in range(0, rows.size, _ATAN2_WINDOW):
        y, x = im[lo : lo + _ATAN2_WINDOW].tolist(), re[lo : lo + _ATAN2_WINDOW].tolist()
        thetas[lo : lo + len(y)] = np.fromiter(map(math.atan2, y, x), float, len(y))
    thetas = np.remainder(thetas, TWO_PI, out=thetas).reshape(rows.shape)
    thetas[thetas >= TWO_PI] = 0.0  # rounding of tiny negative angles
    return thetas
