"""Verification sweeps: closed forms against literal summation, geometric
transport against the closed form, closure of the corner-rotation product,
and the compound product identity.

Shared by the `verify` CLI subcommand and the acceptance test suite.  The
sweeps run in one thread: they are bound by the interpreter lock, so more
threads would not make them faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BadParameters, TooLarge
from .filament import (
    MAX_POLYGON_CORNERS,
    PolygonConfig,
    RationalTime,
    closure_residual,
    corner_products,
    z_qm_closed,
)
from .gauss import (
    active_indices,
    closed_0mod4_row,
    closed_2mod4_row,
    closed_odd_row,
    gauss_direct_row,
    gauss_magnitude,
)
from .modular import coprime_residues
from .prng import MAX_STREAM_SAMPLES, StreamSpec, _compound_states, compound_identity_residual

# Work budget of one sweep, in units of one matrix or Gauss-sum term: an
# upper bound computed from the parameters alone, before any work.
MAX_SWEEP_CASES = 2**30


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


def _sweep_residues(q: int) -> list[int]:
    """Coprime p values used by the sweeps; q = 1 contributes p = 1."""
    return coprime_residues(q) or [1]


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
    return SuiteResult(name, cases, max(err for err, _ in rows), tolerance)


def _gauss_errors_for_q(q: int) -> tuple[tuple[float, int], tuple[float, int]]:
    """(magnitude error, cases) and (closed-form error, cases), errors
    normalized by sqrt(q)."""
    scale = math.sqrt(q)
    law = gauss_magnitude(1, np.arange(q), q)  # the same for every coprime p
    active = np.asarray(active_indices(q))
    mag_err = closed_err = 0.0
    mag_cases = closed_cases = 0
    for p in _sweep_residues(q):
        row = gauss_direct_row(-p, q)
        mag_err = max(mag_err, float(np.max(np.abs(np.abs(row) - law))) / scale)
        mag_cases += q
        if q % 2:
            closed = closed_odd_row(p, q, active)
        elif q % 4 == 2 and q > 2:
            closed = closed_2mod4_row(p, q, active)
        elif q % 4 == 0:
            closed = closed_0mod4_row(p, q, active)
        else:  # q = 2 carries no closed form; the direct route stands alone
            continue
        closed_err = max(
            closed_err, float(np.max(np.abs(closed - row[active]))) / scale
        )
        closed_cases += len(active)
    return (mag_err, mag_cases), (closed_err, closed_cases)


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
    error: Callable[[PolygonConfig], tuple[float, int]],
) -> SuiteResult:
    """Worst (error, cases) of `error` over every valid (sides, q, p).

    Refused before any work when a polygon of the sweep could have more
    than MAX_POLYGON_CORNERS corners, the budget build_polygon keeps, or
    when the sweep's corners could exceed MAX_SWEEP_CASES: each sides value
    and q contributes at most q polygons of sides * q corners.
    """
    sides_lo, sides_hi = sides_range
    if sides_hi * q_max > MAX_POLYGON_CORNERS:
        raise TooLarge(
            f"{name} sweep limited to {MAX_POLYGON_CORNERS} corners per polygon "
            f"(2**20); M <= {sides_hi} and q <= {q_max} give up to {sides_hi * q_max}"
        )
    _check_sweep(name, max(sides_hi - sides_lo + 1, 0) * sides_hi * max(q_max, 0) ** 3)
    rows = [
        error(PolygonConfig(sides, RationalTime(p, q)))
        for sides in range(sides_lo, sides_hi + 1)
        for q in range(1, q_max + 1)
        for p in _sweep_residues(q)
    ]
    return _suite(name, rows, tolerance)


def _theorem1_error(config: PolygonConfig) -> tuple[float, int]:
    triples, scalars = corner_products(config)
    index = np.arange(config.corner_count)
    closed = z_qm_closed(config.sides, config.time.q, config.time.p, index)
    err = np.hypot(triples - closed.real, scalars - closed.imag)
    return float(np.max(err)), config.corner_count


def verify_theorem1(
    sides_range: tuple[int, int] = (3, 8), q_max: int = 40
) -> SuiteResult:
    """Geometric triple/scalar products from frame transport against the
    closed form, for every valid (sides, q, p, m)."""
    return _polygon_sweep("theorem1", sides_range, q_max, 1e-8, _theorem1_error)


def verify_closure(
    sides_range: tuple[int, int] = (3, 10), q_max: int = 50
) -> SuiteResult:
    """Frobenius residual of the full-period rotation product against the
    identity, for every valid (sides, q, p)."""
    return _polygon_sweep(
        "closure", sides_range, q_max, 1e-7, lambda config: (closure_residual(config), 1)
    )


def verify_compound(
    prime_sets: Sequence[Sequence[int]] = ((5, 7), (11, 13, 17)),
    p_max: int = 10_000,
    sides: int = 3,
) -> SuiteResult:
    """Circle-product identity over every admissible index p <= p_max.

    Each stream is built once without compound_stream's own check, and the
    identity is evaluated once over it to record the worst residual.
    """
    if p_max > MAX_STREAM_SAMPLES:
        raise TooLarge(f"compound sweep limited to p <= {MAX_STREAM_SAMPLES} (2**24), got {p_max}")
    rows = []
    for primes in prime_sets:
        spec = StreamSpec.compound(primes)
        count = sum(1 for p in range(1, p_max + 1) if math.gcd(p, spec.modulus) == 1)
        stream = _compound_states(spec, count, 0)
        residual = compound_identity_residual(sides, spec.primes, stream.n, stream.u)
        rows.append((float(np.max(residual, initial=0.0)), len(stream)))
    return _suite("compound", rows, 1e-9)
