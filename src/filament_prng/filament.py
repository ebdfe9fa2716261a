"""The skew polygon at a rational time and the closed forms it validates.

At a rational time p/q the tangent evolution of a regular M-gon under the
binormal flow is a skew polygon: Mq corners for odd q, Mq/2 for even q.
Each corner applies a fixed-angle rotation (`rotation_stack`) whose axis
is set by a Gauss-sum phase; the phases repeat after q (odd q) or q/2
corners.  The triple and scalar products at a corner pair read its two
rotations, the closure product is P**M for P the product over one period,
and `z_qm_closed` predicts both from one modular inverse.

One period is the only shape the products are computed in: the M-gon's
M L products, and the closed form at its M L indices, are one period of L
repeated M times.  The products and residuals of several sides M at one q
share one stack of rotations (`corner_products_sides`,
`closure_residual_sides`); one polygon is the stack of one side and one
p.  Only `polygon_windows` (behind `build_polygon`) transports a frame
through every corner."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegeneratePolygon, NotCoprime, RangeError, TooLarge
from .gauss import TWO_PI, active_indices, theta_sequence
from .modular import phi_row

# Work budget of polygon_windows: K corners cost one Python step and one
# tangent and vertex row each, so time grows like K (about 4 s for a
# `polygon` csv export at 2**20 corners on a 2-core machine).  The rows are
# made one block at a time; the export's peak, 59 MB RSS at q = 349525, is
# set by the phases of one period, whose Gauss-sum row is one FFT.
MAX_POLYGON_CORNERS = 2**20


@dataclass(frozen=True, slots=True)
class RationalTime:
    """Reduced fraction p/q selecting the observation time (2 pi / M^2)(p/q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise RangeError(f"denominator must be positive, got {self.q}")
        if self.p < 0:
            raise RangeError(f"numerator must be nonnegative, got {self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise NotCoprime(f"{self.p}/{self.q} is not a reduced fraction")


@dataclass(frozen=True, slots=True)
class PolygonConfig:
    """A regular polygon initial curve observed at a rational time."""

    sides: int
    time: RationalTime

    def __post_init__(self):
        if self.sides < 3:
            raise DegeneratePolygon(f"need at least 3 sides, got {self.sides}")

    @property
    def corner_count(self) -> int:
        """Corners of the skew polygon over one full period: sides * L."""
        return self.sides * len(active_indices(self.time.q))

    @property
    def side_length(self) -> float:
        """Arc-length spacing between consecutive corners: 2 pi / (sides * L)."""
        return TWO_PI / self.corner_count


@dataclass(frozen=True, slots=True)
class CornerAngle:
    """Turning angle between adjacent sides, with its cached cos/sin."""

    rho: float
    cos_rho: float
    sin_rho: float


def corner_angle(sides: int, q: int) -> CornerAngle:
    """Turning angle rho with cos(rho) = 2 cos^(2/L)(pi/M) - 1, L the
    period len(active_indices(q)): q for odd q, q/2 for even q."""
    if sides < 3:
        raise DegeneratePolygon(f"need at least 3 sides, got {sides}")
    if q < 1:
        raise RangeError(f"q must be positive, got {q}")
    c = 2.0 * math.cos(math.pi / sides) ** (2.0 / len(active_indices(q))) - 1.0
    c = min(c, 1.0)  # float guard; the formula never leaves (-1, 1]
    rho = math.acos(c)
    return CornerAngle(rho=rho, cos_rho=c, sin_rho=math.sin(rho))


def rotation_stack(angle: CornerAngle, thetas: np.ndarray) -> np.ndarray:
    """(..., K, 3, 3) stack of the corner rotations acting on the (tangent,
    normal, normal) rows, one per phase of the (..., K) array thetas.

    Identity when rho = 0; for theta = 0 it reduces to an in-plane turn
    [[c, s, 0], [-s, c, 0], [0, 0, 1]].
    """
    return _rotations(angle.cos_rho, angle.sin_rho, np.cos(thetas), np.sin(thetas))


def _rotations(
    c: float | np.ndarray, s: float | np.ndarray, ct: np.ndarray, st: np.ndarray
) -> np.ndarray:
    """rotation_stack from the cosine c and sine s of the corner angle and
    the cosines and sines of the phases.  Scalar c and s give the phases'
    shape (..., 3, 3); arrays of S angles give (S, ..., 3, 3), one stack
    per angle."""
    c, s = (np.reshape(v, np.shape(v) + (1,) * np.ndim(ct)) for v in (c, s))
    out = np.empty(np.broadcast_shapes(c.shape, np.shape(ct)) + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = s * ct
    out[..., 0, 2] = s * st
    out[..., 1, 0] = -s * ct
    out[..., 1, 1] = c * ct * ct + st * st
    out[..., 1, 2] = (c - 1.0) * ct * st
    out[..., 2, 0] = -s * st
    out[..., 2, 1] = out[..., 1, 2]
    out[..., 2, 2] = c * st * st + ct * ct
    return out


def _side_rotations(sides: Sequence[int], q: int, thetas: np.ndarray) -> np.ndarray:
    """(S, ..., L, 3, 3): the rotation stack of each of the S sides at q,
    from one cosine and sine of the phases."""
    angles = [corner_angle(m, q) for m in sides]
    c = np.array([a.cos_rho for a in angles])
    s = np.array([a.sin_rho for a in angles])
    return _rotations(c, s, np.cos(thetas), np.sin(thetas))


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., K-1, :, :] @ ... @ mats[..., 0, :, :] along the corner axis
    by pairwise tree reduction (deterministic)."""
    if mats.shape[-3] == 0:
        return np.broadcast_to(np.eye(3), mats.shape[:-3] + (3, 3)).copy()
    while mats.shape[-3] > 1:
        half = mats.shape[-3] // 2
        paired = mats[..., 1 : 2 * half : 2, :, :] @ mats[..., 0 : 2 * half : 2, :, :]
        if mats.shape[-3] % 2:
            paired = np.concatenate([paired, mats[..., -1:, :, :]], axis=-3)
        mats = paired
    return mats[..., 0, :, :]


def closure_residual_sides(sides: Sequence[int], q: int, thetas: np.ndarray) -> np.ndarray:
    """(S, ...) closure residuals, one row per side M of sides: the
    Frobenius distance of P**M from the identity, for P the ordered product
    over each row (..., ·) of theta_sequence(ps, q).  The S rotation stacks
    share one ordered product; only the power is taken per side."""
    periods = _ordered_product(_side_rotations(sides, q, thetas))
    powers = np.stack([np.linalg.matrix_power(p, m) for p, m in zip(periods, sides)])
    gap = powers - np.eye(3)
    flat = gap.reshape(gap.shape[:-2] + (1, 9))
    # (1, 9) @ (9, 1) is the dot product np.linalg.norm takes for one matrix.
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2))[..., 0, 0]


def build_polygon(config: PolygonConfig) -> np.ndarray:
    """Vertex positions (K, 3): cumulative sum of side_length * tangent from
    the origin.  Arc-length side spacing; the traversal closes whenever the
    rotation product does.  Refused before any work above
    MAX_POLYGON_CORNERS corners."""
    return np.concatenate(list(polygon_windows(config, config.corner_count)))


def polygon_windows(config: PolygonConfig, rows: int) -> Iterator[np.ndarray]:
    """build_polygon's vertex rows in consecutive blocks of at most `rows`,
    so memory is bounded by one block: the transported frame, the last
    vertex and the step after it carry from one block to the next.  Each
    later block's cumulative sum starts from that vertex and step, and
    np.cumsum adds in sequence, so the blocks concatenate to the whole
    polygon bit for bit.  Refused at the first block above
    MAX_POLYGON_CORNERS corners."""
    if config.corner_count > MAX_POLYGON_CORNERS:
        raise TooLarge(
            f"polygon limited to {MAX_POLYGON_CORNERS} corners (2**20); "
            f"M={config.sides}, q={config.time.q} has {config.corner_count}"
        )
    q = config.time.q
    angle = corner_angle(config.sides, q)
    thetas = theta_sequence(config.time.p, q)  # one period; corner i turns by phase i mod L
    ct, st = np.cos(thetas), np.sin(thetas)
    frame = np.eye(3)
    for lo in range(0, config.corner_count, rows):
        phase = np.arange(lo, min(lo + rows, config.corner_count)) % len(thetas)
        rotations = _rotations(angle.cos_rho, angle.sin_rho, ct[phase], st[phase])
        tangents, frame = _tangent_rows(rotations, frame)
        steps = config.side_length * tangents
        if lo == 0:  # the origin, then the running sums
            block = np.zeros_like(steps)
            block[1:] = np.cumsum(steps[:-1], axis=0)
        else:
            block = np.cumsum(np.concatenate([carried, steps[:-1]]), axis=0)[1:]
        carried = np.stack([block[-1], steps[-1]])
        yield block


def _tangent_rows(rotations: np.ndarray, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangent rows (K, 3) through a stack (K, 3, 3) of corner rotations
    applied in order to `frame`: row i is the first row of the frame after
    corner i, one matrix product per corner.  Returns the rows and the
    last frame."""
    rows = np.empty((len(rotations), 3))
    for i, rotation in enumerate(rotations):
        frame = rotation @ frame
        rows[i] = frame[0]
    return rows, frame


def corner_products_sides(
    sides: Sequence[int], q: int, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Triple and scalar products (S, ..., L) over one period of the active
    index set, one row per side M of sides and per row (..., L) of
    theta_sequence(ps, q); side M's products repeat this period M times.

    Index m reads the tangents before, between and after the corner pair
    (j, j + 1), with j = m except for q = 2 mod 4, which pairs the corner
    before m with the one at m (j = m - 1, wrapping m = 0 around the
    period).  In the frame at corner j those tangents are e1, a = R_j[0]
    and b = (R_(j+1) R_j)[0], so the triple product is a1 b2 - a2 b1 and
    the scalar product is b0: two rotations per index, no transported
    frame.  The S rotation stacks share the cosines and sines of the
    phases.
    """
    rots = _side_rotations(sides, q, thetas)  # (S, ..., L, 3, 3)
    a = rots[..., 0, :]
    b = (np.roll(a, -1, axis=-2)[..., None, :] @ rots)[..., 0, :]  # R_(j+1)[0] @ R_j
    triples = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    scalars = b[..., 0]
    if q % 4 == 2:
        triples, scalars = np.roll(triples, 1, axis=-1), np.roll(scalars, 1, axis=-1)
    return triples, scalars


def circle_row(angle: CornerAngle, u: np.ndarray | float) -> np.ndarray:
    """The points i c^2 - i s^2 exp(2 pi i u) of the circle of center i c^2
    and radius s^2, one per phase u (a scalar gives a 0-d array)."""
    alpha = TWO_PI * np.asarray(u, dtype=float)
    return circle_points(angle, np.sin(alpha), np.cos(alpha))


def circle_points(angle: CornerAngle, sin_alpha: np.ndarray, cos_alpha: np.ndarray) -> np.ndarray:
    """circle_row from the sines and cosines of alpha = 2 pi u, so that
    circles of several angles can share them.  The real and imaginary parts
    are assigned, not added, so a signed zero survives."""
    c2, s2 = angle.cos_rho**2, angle.sin_rho**2
    out = np.empty(np.shape(sin_alpha), dtype=complex)
    out.real = s2 * sin_alpha
    out.imag = c2 - s2 * cos_alpha
    return out


def closed_phase_row(p: int | np.ndarray, q: int, m: int | np.ndarray) -> np.ndarray:
    """The exact phase u = phi k mod den / den of the closed form at index
    m (an int or an int64 index array), k = 2m + 1 mod q, or k = m mod q/2
    when q = 2 mod 4.

    p is an int or an int64 array (a column (P, 1) against a row of m gives
    a (P, len(m)) stack), its phi taken in one phi_row.  The index is
    reduced modulo the denominator before it meets phi, so every int64
    product stays below 2**62.
    """
    phi, den = phi_row(p, q)
    m = np.asarray(m, dtype=np.int64)
    if q % 4 == 2:
        k = m % den
    else:
        k = (2 * (m % q) + 1) % q
    return phi * k % den / den


def z_qm_closed(
    sides: int, q: int, p: int | np.ndarray, m: int | np.ndarray
) -> complex | np.ndarray:
    """Closed form of triple + i * scalar at quantity index m (an int or an
    int64 index array): i c^2 - i s^2 exp(2 pi i phi (2m+1) / q), or with
    exponent phi m / (q/2) when q = 2 mod 4, the circle_row of
    closed_phase_row.  p is an int or an int64 array, as there.
    """
    u = closed_phase_row(p, q, m)
    return circle_row(corner_angle(sides, q), u)[()]
