"""Independent oracles shared by the test modules.

Everything here recomputes expected values by brute force (enumeration,
direct counting, factorization, scalar algorithms) and never calls the code
paths it checks.  The exceptions are the sweeps' own evaluations through
the library's one-value forms, kept as the oracles of the sweeps that
share work across them: `gauss_errors_per_chunk` evaluates every chunk
of the gauss sweep through the whole-row functions, and
`polygon_sweep_per_side` evaluates the theorem1 and closure sweeps one
number of sides at a time.  The library computes the corner products over
one period of L indices only; `polygon_sweep_per_side` tiles that period
M times and evaluates the closed form at every one of the M L indices, so
the one-period sweep stays checked against an every-m evaluation.
`randu_plane_labels_by_division` reads its
RANDU states from the library's stream, which tests/test_prng.py checks
against `lcg_reference`, and labels them by division and sort.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce

import numpy as np

from filament_prng.errors import DomainError, EvenModulus, InvariantViolation
from filament_prng.filament import closure_residual_sides, corner_products_sides, z_qm_closed
from filament_prng.gauss import (
    active_indices,
    closed_row,
    gauss_direct_row,
    gauss_magnitude,
    theta_sequence,
)
from filament_prng.prng import lcg_stream, randu_preset
from filament_prng.verify import SuiteResult


def inverse_by_search(a: int, n: int) -> int | None:
    """Exhaustive-search modular inverse; None when none exists."""
    if n == 1:
        return 0
    for x in range(n):
        if a * x % n == 1:
            return x
    return None


class NotInvertible(DomainError):
    """The mod_inverse oracle's refusal of a residue with no inverse.  No
    library code raises it: the library inverts units only, checked first
    by coprime_row (NotCoprime)."""


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n by the extended Euclidean algorithm.

    n = 1 returns 0: the ring Z_1 is trivial and every congruence there
    holds vacuously.
    """
    if math.gcd(a, n) != 1:
        raise NotInvertible(f"{a % n} has no inverse mod {n}")
    return pow(a, -1, n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n >= 1 by the binary reciprocity
    algorithm; 0 when gcd(a, n) > 1, and (a | 1) = 1."""
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


def coprimes_by_gcd(q: int) -> list[int]:
    """Residues 1 <= p < q coprime to q, ascending; empty for q = 1."""
    return [p for p in range(1, q) if math.gcd(p, q) == 1]


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


def lcg_reference(a: int, b: int, q: int, x0: int, start: int, count: int) -> list[int]:
    """States x_n of x_(n+1) = a x_n + b mod q at n = start, ..., start +
    count - 1, each from its closed form alone: x_n = x0 + b n for a = 1
    mod q, else a^n x0 + b (a^n - 1) / (a - 1), the division made exact by
    taking a^n mod (a - 1) q (a is lifted to [2, q] first)."""
    lifted = a % q or q
    states = []
    for n in range(start, start + count):
        if lifted == 1:
            states.append((x0 + b * n) % q)
            continue
        power = pow(lifted, n, (lifted - 1) * q)
        states.append((power * x0 + b * ((power - 1) // (lifted - 1))) % q)
    return states


def _legendre_count(n: int, primes: list[int]) -> int:
    """Integers 1 <= k <= n divisible by none of the primes, by Legendre's
    recursion phi(n, a) = phi(n, a - 1) - phi(n // p_a, a - 1)."""
    if not primes or n == 0:
        return n
    *rest, last = primes
    return _legendre_count(n, rest) - _legendre_count(n // last, rest)


def coprime_reference(m: int, start: int, count: int) -> list[int]:
    """The start-th through (start + count - 1)-th positive integers coprime
    to m (the 0-th is 1), enumerated with math.gcd from the start-th one,
    which bisection on Legendre's count over the factorization of m finds;
    values may pass 2**63."""
    primes = sorted(factorize(m))
    lo, hi = 1, (start + 1) * m  # each run of m integers holds a coprime
    while lo < hi:
        mid = (lo + hi) // 2
        if _legendre_count(mid, primes) > start:
            hi = mid
        else:
            lo = mid + 1
    values = []
    while len(values) < count:
        if math.gcd(lo, m) == 1:
            values.append(lo)
        lo += 1
    return values


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


def star_scan_full_grid(points: np.ndarray, n: int) -> float:
    """Star discrepancy by a sweep that evaluates every anchored box at
    every distinct first coordinate, and at 1.0, in the library's float
    expressions: x * vol - count/n for the open boxes, count/n - x * vol
    for the closed ones, with integer counts.  The library's scan must
    return the same double."""
    ux, ix = np.unique(points[:, 0], return_inverse=True)
    axes = [np.unique(column, return_inverse=True) for column in points[:, 1:].T]
    vol = reduce(np.multiply.outer, [np.append(u, 1.0) for u, _ in axes], np.ones(()))
    corners = np.stack([ix, *(inverse for _, inverse in axes)], axis=1)[np.argsort(ix), 1:]
    # one group of corners per distinct x, and an empty one for x = 1.0
    groups = np.split(corners, np.cumsum(np.bincount(ix)))
    closed = np.zeros(vol.shape, dtype=np.int32)
    below = np.zeros(vol.shape)  # open-box counts over n; a box with an empty side holds 0
    shifted, kept = (slice(1, None),) * vol.ndim, (slice(None, -1),) * vol.ndim
    best = 0.0
    for x, group in zip(np.append(ux, 1.0), groups):
        xv = x * vol
        best = max(best, float(np.max(xv - below)))
        for corner in group:
            closed[tuple(slice(c, None) for c in corner)] += 1
        frac = closed / n
        best = max(best, float(np.max(frac - xv)))
        below[shifted] = frac[kept]
    return best


def randu_plane_labels_by_division(sample_count: int) -> set[int]:
    """Distinct floor((x_{n+2} - 6 x_{n+1} + 9 x_n) / 2^31) over the first
    sample_count RANDU states, read in one stream call, checked to be
    multiples of 2^31 by % and labelled by // and np.unique."""
    spec = randu_preset()
    x = lcg_stream(spec, sample_count).x
    combo = x[2:] - 6 * x[1:-1] + 9 * x[:-2]
    if np.any(combo % spec.q):
        raise InvariantViolation("RANDU three-term recurrence violated")
    return set(np.unique(combo // spec.q).tolist())


def max_pairs_on_a_line(x: np.ndarray, p: int) -> int:
    """The largest number of the wraparound pairs (x_n, x_(n+1 mod N)) of
    the N states x that lie on one line of F_p^2, counted with
    multiplicity, by brute force: through each pair, the others grouped by
    their direction from it (the slope dy / dx mod p, or vertical), the
    largest group plus the copies of the pair itself.  Inverses mod p come
    from Python's pow."""
    points = np.stack([x, np.roll(x, -1)], axis=1) % p
    inverse = np.array([0] + [pow(d, -1, p) for d in range(1, p)], dtype=np.int64)
    best = 0
    for px, py in points.tolist():
        dx, dy = (points[:, 0] - px) % p, (points[:, 1] - py) % p
        same = (dx == 0) & (dy == 0)
        slopes = np.where(dx == 0, p, dy * inverse[dx] % p)[~same]
        best = max(best, int(same.sum()) + int(np.bincount(slopes, minlength=1).max()))
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


def gauss_errors_per_chunk(q: int, chunk_elems: int = 2**12):
    """The gauss sweep's ((magnitude error, cases), (closed-form error,
    cases)) at one q, each chunk of at most chunk_elems entries evaluated
    whole: the direct rows, the magnitude law and closed_row at the active
    indices (none for q = 2), all recomputed per chunk."""
    scale = math.sqrt(q)
    law = gauss_magnitude(1, np.arange(q), q)
    active = np.asarray(active_indices(q) if q != 2 else [], dtype=np.int64)
    ps = np.array(coprimes_by_gcd(q) or [1], dtype=np.int64)
    size = max(1, chunk_elems // q)
    mag_err = closed_err = 0.0
    for lo in range(0, len(ps), size):
        chunk = ps[lo : lo + size]
        rows = gauss_direct_row(-chunk, q)
        mag_err = max(mag_err, float(np.max(np.abs(np.abs(rows) - law))) / scale)
        closed = closed_row(chunk, q, active)
        closed_err = max(
            closed_err, float(np.max(np.abs(closed - rows[:, active]), initial=0.0)) / scale
        )
    return (mag_err, q * len(ps)), (closed_err, len(active) * len(ps))


def _theorem1_error(sides: int, q: int, ps: np.ndarray, thetas: np.ndarray) -> tuple[float, int]:
    triples, scalars = corner_products_sides((sides,), q, thetas)
    reps = (1, sides)  # one period tiled over the M L indices
    triples, scalars = np.tile(triples[0], reps), np.tile(scalars[0], reps)
    closed = z_qm_closed(sides, q, ps[:, None], np.arange(triples.shape[-1]))
    return float(np.max(np.hypot(triples - closed.real, scalars - closed.imag))), triples.size


def _closure_error(sides: int, q: int, ps: np.ndarray, thetas: np.ndarray) -> tuple[float, int]:
    return float(np.max(closure_residual_sides((sides,), q, thetas)[0])), len(ps)


POLYGON_SWEEPS = {"theorem1": (_theorem1_error, 1e-8), "closure": (_closure_error, 1e-7)}


def polygon_sweep_per_side(
    name: str, sides_range: tuple[int, int], q_max: int, chunk_elems: int = 2**12
) -> SuiteResult:
    """The theorem1 or closure sweep with each number of sides M evaluated
    on its own, in the sweep's batches of coprime p: per M, one period of
    corner_products_sides((M,), ...) tiled M times against z_qm_closed at
    every one of the M L indices, or closure_residual_sides((M,), ...)."""
    error, tolerance = POLYGON_SWEEPS[name]
    sides_lo, sides_hi = sides_range
    rows = []
    for q in range(1, q_max + 1):
        corners = sides_hi * q if q % 2 else sides_hi * q // 2
        ps = np.array(coprimes_by_gcd(q) or [1], dtype=np.int64)
        size = max(1, chunk_elems // corners)
        for lo in range(0, len(ps), size):
            chunk = ps[lo : lo + size]
            thetas = theta_sequence(chunk, q)
            rows.extend(error(sides, q, chunk, thetas) for sides in range(sides_lo, sides_hi + 1))
    return SuiteResult(
        name, sum(c for _, c in rows), float(np.max([e for e, _ in rows])), tolerance
    )


def table_csv_by_rows(columns: dict[str, np.ndarray]) -> str:
    """Reference csv writer, one row at a time: the header, then each row's
    cells, ints by str and floats by "{:.17g}"."""
    lines = [",".join(columns)]
    for cells in zip(*(column.tolist() for column in columns.values())):
        lines.append(",".join(str(c) if isinstance(c, int) else f"{c:.17g}" for c in cells))
    return "\n".join(lines) + "\n"


def table_json_by_rows(columns: dict[str, np.ndarray]) -> str:
    """Reference json writer: the rows as objects, through json.dumps."""
    names = list(columns)
    cells = zip(*(column.tolist() for column in columns.values()))
    return json.dumps([dict(zip(names, row)) for row in cells], indent=2) + "\n"


def corner_cos(sides: int, q: int) -> float:
    """cos(rho) of the corner turn: 2 cos^(2/q)(pi/M) - 1 for odd q,
    2 cos^(4/q)(pi/M) - 1 for even q."""
    return 2.0 * math.cos(math.pi / sides) ** ((2.0 if q % 2 else 4.0) / q) - 1.0


def corner_rotations(sides: int, q: int, thetas: np.ndarray) -> np.ndarray:
    """(..., L, 3, 3) corner rotations by Rodrigues' formula: a turn by rho
    about the normal-plane axis u = (0, sin theta, -cos theta),
    cos(rho) I + sin(rho) [u]x + (1 - cos(rho)) u u^T."""
    c = corner_cos(sides, q)
    s = math.sqrt(max(0.0, 1.0 - c * c))
    zero = np.zeros_like(thetas)
    u = np.stack([zero, np.sin(thetas), -np.cos(thetas)], axis=-1)
    cross = np.stack(
        [
            np.stack([zero, -u[..., 2], u[..., 1]], axis=-1),
            np.stack([u[..., 2], zero, -u[..., 0]], axis=-1),
            np.stack([-u[..., 1], u[..., 0], zero], axis=-1),
        ],
        axis=-2,
    )
    return c * np.eye(3) + s * cross + (1.0 - c) * u[..., :, None] * u[..., None, :]


def transported_products(
    sides: int, q: int, thetas: np.ndarray, initial: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Triple and scalar products (..., K) by transporting a frame through
    every corner of the period, for rows (..., L) of corner phases (one row
    of theta_sequence; the phase at corner j is thetas[j mod L]).

    The frame starts at `initial` (the identity by default) and is stepped
    F_(j+1) = R_j F_j; t_j = F_j[0] is the tangent before corner j.  Index
    m reads det(t_j, t_(j+1), t_(j+2)) and t_j . t_(j+2) with j = m, or
    j = m - 1 (mod K) for q = 2 mod 4.
    """
    steps = list(np.moveaxis(corner_rotations(sides, q, thetas), -3, 0))  # R_0 .. R_(L-1)
    count = sides * len(steps)
    frame = np.broadcast_to(np.eye(3) if initial is None else initial, steps[0].shape)
    tangents = np.empty((count + 2,) + frame.shape[:-1])
    for j in range(count + 2):
        tangents[j] = frame[..., 0, :]
        frame = steps[j % len(steps)] @ frame
    tangents = np.moveaxis(tangents, 0, -2)
    first = np.arange(count)
    if q % 4 == 2:
        first = (first - 1) % count
    t0, t1, t2 = (tangents[..., first + k, :] for k in range(3))
    triples = np.sum(t0 * np.cross(t1, t2), axis=-1)
    return triples, np.sum(t0 * t2, axis=-1)
