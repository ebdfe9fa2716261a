"""Verification sweeps: closed forms against literal summation, the
two-rotation corner products against the closed form, closure of the
corner-rotation product as the power of its one-period product, and the
compound product identity.

Shared by the `verify` CLI subcommand and the acceptance test suite.  Each
sweep stacks the coprime p of one q into batches of at most _CHUNK_ELEMS
Gauss-row entries or corners."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BadParameters, TooLarge
from .filament import (
    MAX_POLYGON_CORNERS,
    circle_points,
    closed_phase_row,
    closure_residual_sides,
    corner_angle,
    corner_products_sides,
)
from .gauss import (
    TWO_PI,
    active_indices,
    closed_grid,
    closed_prefactor,
    gauss_direct_row,
    gauss_magnitude,
    theta_sequence,
)
from .modular import coprime_count, coprime_window, euler_totient
from .prng import COMPOUND_TOLERANCE, MAX_STREAM_SAMPLES, StreamSpec, compound_window

# Work budget of one sweep, in units of one matrix or Gauss-sum term: an
# upper bound computed from the parameters alone, before any work.
MAX_SWEEP_CASES = 2**30

# Largest batch of one sweep step: P values of p share one stack of P * q
# Gauss-row entries or P * K corner products, and at least one p is
# taken.  The cap keeps the stacks near the size of one default polygon:
# uncapped stacks raised the peak RSS of the default sweeps by about 17 %.
_CHUNK_ELEMS = 2**12

# Admissible p per evaluation of the compound identity, so the sweep's
# arrays stay bounded up to its 2**24 budget.
_COMPOUND_WINDOW = 2**20


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one sweep: worst observed error against its tolerance."""

    name: str
    cases: int
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name:<18} {status}  cases={self.cases:<8} "
            f"max_error={self.max_error:.3e}  tolerance={self.tolerance:.1e}"
        )


def _sweep_residues(q: int) -> np.ndarray:
    """Coprime p values used by the sweeps, as int64; q = 1 contributes p = 1."""
    return coprime_window(q, 0, euler_totient(q))


def _chunks(count: int, width: int) -> Iterator[slice]:
    """Consecutive runs of `count` values of p whose stacks of `width`
    entries per p hold at most _CHUNK_ELEMS entries, at least one p each."""
    size = max(1, _CHUNK_ELEMS // max(width, 1))
    return (slice(lo, lo + size) for lo in range(0, count, size))


def _check_sweep(name: str, work: int) -> None:
    if work > MAX_SWEEP_CASES:
        raise TooLarge(
            f"{name} sweep limited to {MAX_SWEEP_CASES} (2**30) units of work; "
            f"these parameters allow up to {work}"
        )


def _suite(name: str, rows: Sequence[tuple[float, int]], tolerance: float) -> SuiteResult:
    """Worst error and total cases over the (error, cases) rows of a sweep.

    A sweep whose parameters give no case checks nothing, so it is refused
    rather than reported as a pass.
    """
    cases = sum(count for _, count in rows)
    if cases == 0:
        raise BadParameters(f"{name} sweep has no cases for these parameters")
    return SuiteResult(name, cases, float(np.max([err for err, _ in rows])), tolerance)


def _gauss_errors_for_q(q: int) -> tuple[tuple[float, int], tuple[float, int]]:
    """(magnitude error, cases) and (closed-form error, cases), errors
    normalized by sqrt(q); the closed form is compared at the active
    indices.

    Once per q: the coprime p, the magnitude law, the closed form's index
    terms and root tables (closed_grid) and its per-p part
    (closed_prefactor) for every p.  Once per chunk of p: the direct rows,
    the closed grid over that chunk's slice of the per-p part, and the two
    errors, taken in place.
    """
    scale = math.sqrt(q)
    law = gauss_magnitude(1, np.arange(q), q)  # the same for every coprime p
    # q = 2 is left out of the closed-form suite so that its case count, which
    # bench/workloads.gauss_cases enumerates, stays comparable across versions;
    # tests/test_gauss.py checks the closed form at q = 2.
    active = active_indices(q) if q != 2 else range(0)
    columns = slice(active.start, active.stop, active.step)
    ps = _sweep_residues(q)
    grid = closed_grid(q, active)
    pref, phi1, phi2 = closed_prefactor(ps, q)
    mag_err = closed_err = 0.0
    for part in _chunks(len(ps), q):
        rows = gauss_direct_row(-ps[part], q)
        deviation = np.abs(rows)
        deviation -= law
        mag_err = max(mag_err, float(np.max(np.abs(deviation, out=deviation))) / scale)
        closed = grid(pref[part], phi1[part], phi2[part])
        closed -= rows[:, columns]
        closed_err = max(closed_err, float(np.max(np.abs(closed), initial=0.0)) / scale)
    return (mag_err, q * len(ps)), (closed_err, len(active) * len(ps))


def verify_gauss(q_max: int = 300) -> list[SuiteResult]:
    """Magnitude law and closed forms against literal summation, for every
    coprime (p, q) with q <= q_max and every index m; at most q_max**3
    terms are summed."""
    _check_sweep("gauss", max(q_max, 0) ** 3)
    rows = [_gauss_errors_for_q(q) for q in range(1, q_max + 1)]
    return [
        _suite("gauss-magnitude", [r[0] for r in rows], 1e-9),
        _suite("gauss-closed", [r[1] for r in rows], 1e-9),
    ]


def _polygon_sweep(
    name: str,
    sides_range: tuple[int, int],
    q_max: int,
    tolerance: float,
    errors: Callable[[range, int, np.ndarray, np.ndarray], list[tuple[float, int]]],
) -> SuiteResult:
    """Worst (error, cases) over every valid (sides, q, p), with p in
    batches whose theta rows serve every sides: `errors(sides, q, ps,
    thetas)` gives one (error, cases) per sides value of the range.

    Refused before any work when a polygon of the sweep could have more
    than MAX_POLYGON_CORNERS corners, the budget build_polygon keeps, when
    the sweep's corners could exceed MAX_SWEEP_CASES (each sides value and
    q contributes at most q polygons of sides * q corners), or when the
    sides range is empty.
    """
    sides_lo, sides_hi = sides_range
    if sides_hi * q_max > MAX_POLYGON_CORNERS:
        raise TooLarge(
            f"{name} sweep limited to {MAX_POLYGON_CORNERS} corners per polygon "
            f"(2**20); M <= {sides_hi} and q <= {q_max} give up to {sides_hi * q_max}"
        )
    _check_sweep(name, max(sides_hi - sides_lo + 1, 0) * sides_hi * max(q_max, 0) ** 3)
    if sides_lo > sides_hi:  # refused here: the q loop builds theta rows before any sides
        raise BadParameters(f"{name} sweep has no cases for these parameters")
    sides = range(sides_lo, sides_hi + 1)
    rows = []
    for q in range(1, q_max + 1):
        corners = sides_hi * len(active_indices(q))
        residues = _sweep_residues(q)
        for part in _chunks(len(residues), corners):
            ps = residues[part]
            rows.extend(errors(sides, q, ps, theta_sequence(ps, q)))
    return _suite(name, rows, tolerance)


def _theorem1_errors(
    sides: range, q: int, ps: np.ndarray, thetas: np.ndarray
) -> list[tuple[float, int]]:
    """Per M of sides, the worst distance of the (P, L) corner products from
    the closed form's (P, L) circle, and the M P L cases they stand for:
    both repeat after L indices, so one period is compared for all M.  One
    phase row over the period, and its sine and cosine, serve every M."""
    alpha = TWO_PI * closed_phase_row(ps[:, None], q, np.arange(thetas.shape[-1]))
    sin_alpha, cos_alpha = np.sin(alpha), np.cos(alpha)
    triples, scalars = corner_products_sides(sides, q, thetas)  # (S, P, L)
    rows = []
    for m, t, s in zip(sides, triples, scalars):
        closed = circle_points(corner_angle(m, q), sin_alpha, cos_alpha)
        rows.append((float(np.max(np.hypot(t - closed.real, s - closed.imag))), m * closed.size))
    return rows


def _closure_errors(
    sides: range, q: int, ps: np.ndarray, thetas: np.ndarray
) -> list[tuple[float, int]]:
    return [(float(np.max(r)), len(ps)) for r in closure_residual_sides(sides, q, thetas)]


def verify_theorem1(
    sides_range: tuple[int, int] = (3, 8), q_max: int = 40
) -> SuiteResult:
    """Triple and scalar products at every corner pair, read from its two
    corner rotations, against the closed form, for every valid (sides, q,
    p, m).  Both sides of the comparison repeat after one period of L
    indices, so one period is computed and counted M times.  The sides of
    one batch share one rotation stack and one closed-form phase row."""
    return _polygon_sweep("theorem1", sides_range, q_max, 1e-8, _theorem1_errors)


def verify_closure(
    sides_range: tuple[int, int] = (3, 10), q_max: int = 50
) -> SuiteResult:
    """Frobenius residual of the full-period rotation product, the power
    P**sides of the ordered product P over one period of phases, against
    the identity, for every valid (sides, q, p).  The sides of one batch
    share one rotation stack and one ordered product."""
    return _polygon_sweep("closure", sides_range, q_max, 1e-7, _closure_errors)


def verify_compound(
    prime_sets: Sequence[Sequence[int]] = ((5, 7), (11, 13, 17)),
    p_max: int = 10_000,
) -> SuiteResult:
    """Worst residual of the circle-product identity at M = 3 sides, the
    CLI's default, over every admissible index p <= p_max, read from
    compound_window in windows of at most _COMPOUND_WINDOW admissible p."""
    if p_max > MAX_STREAM_SAMPLES:
        raise TooLarge(f"compound sweep limited to p <= {MAX_STREAM_SAMPLES} (2**24), got {p_max}")
    rows = []
    for primes in prime_sets:
        count = coprime_count(StreamSpec.compound(primes).modulus, p_max)
        peaks = [
            np.max(compound_window(3, primes, min(_COMPOUND_WINDOW, count - start), start)[1])
            for start in range(0, count, _COMPOUND_WINDOW)
        ]
        rows.append((float(np.max(peaks, initial=0.0)), count))
    return _suite("compound", rows, COMPOUND_TOLERANCE)
